(* Quickstart: build a moving-object database, ask a nearest-neighbour
   query about the past, then monitor the same query into the future while
   updates arrive.

   Run with: dune exec examples/quickstart.exe *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb

(* The exact backend decides every comparison with rational/algebraic
   arithmetic; Backend.Filtered gives the same answers faster, deciding
   from float intervals first. *)
module B = Moq_core.Backend.Exact
module Sweep = Moq_core.Sweep.Make (B)
module Monitor = Moq_core.Monitor.Make (B)
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist
module Classify = Moq_core.Classify

let q = Q.of_int
let vec l = Qvec.of_list (List.map Q.of_int l)

let () =
  Format.printf "=== moq quickstart ===@.@.";

  (* 1. A MOD with three taxis moving in the plane, last updated at t=0. *)
  let db = DB.empty ~dim:2 ~tau:(q 0) in
  let db = DB.add_initial db 1 (T.linear ~start:(q 0) ~a:(vec [ 1; 0 ]) ~b:(vec [ 0; 5 ])) in
  let db = DB.add_initial db 2 (T.linear ~start:(q 0) ~a:(vec [ 0; -1 ]) ~b:(vec [ 8; 10 ])) in
  let db = DB.add_initial db 3 (T.linear ~start:(q 0) ~a:(vec [ -1; -1 ]) ~b:(vec [ 20; 20 ])) in
  Format.printf "Database: %d taxis, last update at t = %a@.@." (DB.cardinal db) Q.pp
    (DB.last_update db);

  (* 2. A g-distance: squared Euclidean distance to a customer standing at
     the origin (Example 8 of the paper). *)
  let customer = T.stationary ~start:(q 0) (vec [ 0; 0 ]) in
  let gdist = Gdist.euclidean_sq ~gamma:customer in

  (* 3. "Which taxi is nearest, at every instant of [0, 12]?" *)
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 12)) in
  Format.printf "Query %a is %a w.r.t. the database@." Fof.pp_query query Classify.pp
    (Classify.classify db query);

  let r = Sweep.run ~db ~gdist ~query in
  Format.printf "@.Snapshot answer Q^s (timeline):@.%a@." Sweep.TL.pp r.Sweep.timeline;
  let pp_set fmt s =
    Format.fprintf fmt "{%a}"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") Moq_mod.Oid.pp)
      (Moq_mod.Oid.Set.elements s)
  in
  Format.printf "Accumulative answer Q^E: %a@." pp_set (Sweep.TL.existential r.Sweep.timeline);
  Format.printf "Persevering answer  Q^A: %a@." pp_set (Sweep.TL.universal r.Sweep.timeline);
  Format.printf "(%d support changes processed)@.@." r.Sweep.support_changes;

  (* 4. The same query as a continuing/future query: monitor it while
     updates arrive chronologically. *)
  let m = Monitor.create ~db ~gdist ~query () in
  Format.printf "Monitoring... taxi 2 turns west at t = 3:@.";
  Monitor.apply_update_exn m (U.Chdir { oid = 2; tau = q 3; a = vec [ -1; 0 ] });
  Format.printf "  clock now %a; events so far: %d crossings@." Q.pp (Monitor.clock m)
    (Monitor.stats m).Monitor.E.crossings;
  Format.printf "Taxi 4 appears at t = 6 right next to the customer:@.";
  Monitor.apply_update_exn m (U.New { oid = 4; tau = q 6; a = vec [ 0; 0 ]; b = vec [ 1; 1 ] });
  let tl = Monitor.finalize m in
  Format.printf "@.Validated answer after all updates:@.%a@." Monitor.TL.pp tl
