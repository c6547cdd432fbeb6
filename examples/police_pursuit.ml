(* Police pursuit — the paper's "fastest arrival" query (Examples 7, 9 and
   Figure 1): which police car can reach the fleeing target first?

   The g-distance here is interception time squared, t_Δ² =
   |x_target(t) − x_car(t)|² / (v_car² − v_target²) — the paper's quadratic
   form under the Figure 1 pursuit geometry.  Cars have different maximum
   speeds, so this is genuinely not a nearest-neighbour query: a fast car
   far away can beat a slow car nearby.

   Run with: dune exec examples/police_pursuit.exe *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid
module QP = Moq_poly.Qpoly
module Qpiece = Moq_poly.Piecewise.Qpiece
module B = Moq_core.Backend.Exact
module Engine = Moq_core.Engine.Make (B)
module Monitor = Moq_core.Monitor.Make (B)
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist

let q = Q.of_int
let vec l = Qvec.of_list (List.map Q.of_int l)

(* Cars: (oid, start position, patrol velocity, max speed). *)
let cars = [ (1, [ 0; 10 ], [ 1; 0 ], 6); (2, [ 40; -5 ], [ 0; 1 ], 9); (3, [ -30; 0 ], [ 1; 1 ], 12) ]

let () =
  Format.printf "=== police pursuit (Examples 7, 9; Figure 1) ===@.@.";
  (* The target drives east at speed 5. *)
  let target = T.linear ~start:(q 0) ~a:(vec [ 5; 0 ]) ~b:(vec [ 10; 0 ]) in
  let db =
    List.fold_left
      (fun acc (o, b, a, _) -> DB.add_initial acc o (T.linear ~start:(q 0) ~a:(vec a) ~b:(vec b)))
      (DB.empty ~dim:2 ~tau:(q 0))
      cars
  in

  (* Figure 1 check: the interception-time curve is a quadratic polynomial
     of t (the paper's t_Δ² = c₂t² + c₁t + c₀). *)
  let show_curve (o, b, a, vmax) =
    let tr = T.linear ~start:(q 0) ~a:(vec a) ~b:(vec b) in
    let g = Gdist.intercept_time_sq ~gamma:target ~target_speed:(q 5) ~speed:(q vmax) in
    let curve = Gdist.curve g tr in
    let poly, _ = Qpiece.piece_covering curve (q 0) in
    Format.printf "car %d (v_max = %2d): t_delta^2(t) = %a   (degree %d)@." o vmax QP.pp poly
      (QP.degree poly)
  in
  List.iter show_curve cars;

  (* Sweep the per-car interception curves: each car needs its own
     g-distance (its own speed), so we mount the instantiated curves on the
     engine directly. *)
  let entries =
    List.map
      (fun (o, b, a, vmax) ->
        let tr = T.linear ~start:(q 0) ~a:(vec a) ~b:(vec b) in
        let g = Gdist.intercept_time_sq ~gamma:target ~target_speed:(q 5) ~speed:(q vmax) in
        (Engine.Obj (o, 0), Gdist.curve g tr))
      cars
  in
  let eng = Engine.create ~start:(q 0) ~horizon:(q 30) entries in
  let winner () =
    match Engine.first_n eng 1 with
    | [ e ] -> (match Engine.label e with Engine.Obj (o, _) -> o | Engine.Cst _ -> -1)
    | _ -> -1
  in
  Format.printf "@.fastest car at t = 0: car %d@." (winner ());
  let last = ref (winner ()) in
  Engine.advance eng ~upto:(q 30) ~emit:(function
    | Engine.Point i ->
      let w = winner () in
      if w <> !last then begin
        Format.printf "at t = %a the fastest interceptor becomes car %d@." B.pp_instant i w;
        last := w
      end
    | Engine.Span _ -> ());

  (* And the plain "who reaches a stationary suspect first" as an FO(f)
     query, using the scaled Euclidean g-distance (same speed for all,
     reduces to 1-NN; Example 7's simplified form). *)
  let suspect = T.stationary ~start:(q 0) (vec [ 15; 5 ]) in
  let g = Gdist.scaled_euclidean_sq ~gamma:suspect ~speed:(q 6) in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 20)) in
  let m = Monitor.create ~db ~gdist:g ~query () in
  Monitor.apply_update_exn m (U.Chdir { oid = 1; tau = q 4; a = vec [ 3; -1 ] });
  let tl = Monitor.finalize m in
  Format.printf "@.monitored 'first responder' to a suspect at (15,5), with car 1 turning at t=4:@.%a@."
    Monitor.TL.pp tl
