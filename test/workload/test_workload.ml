module Q = Moq_numeric.Rat
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module U = Moq_mod.Update
module Gen = Moq_workload.Gen
module Scenario = Moq_workload.Scenario
module BX = Moq_core.Backend.Exact
module EX = Moq_core.Engine.Make (BX)
module KnnX = Moq_core.Knn.Make (BX)
module Gdist = Moq_core.Gdist
module Qvec = Moq_geom.Vec.Qvec

let q = Q.of_int

let prop ?(count = 50) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let test_uniform_db () =
  let db = Gen.uniform_db ~seed:42 ~n:50 () in
  Alcotest.(check int) "50 objects" 50 (DB.cardinal db);
  Alcotest.(check int) "dim 2" 2 (DB.dim db);
  (* deterministic: same seed, same db *)
  let db' = Gen.uniform_db ~seed:42 ~n:50 () in
  List.iter2
    (fun (o, tr) (o', tr') ->
      Alcotest.(check int) "oid" o o';
      Alcotest.(check bool) "trajectory" true (T.equal tr tr'))
    (DB.objects db) (DB.objects db');
  (* different seed differs *)
  let db2 = Gen.uniform_db ~seed:43 ~n:50 () in
  Alcotest.(check bool) "seed matters" false
    (List.for_all2 (fun (_, a) (_, b) -> T.equal a b) (DB.objects db) (DB.objects db2))

(* swaps, not popped events: simultaneous multi-way intersections are one
   batch but still one swap per inverted pair *)
let count_crossings db ~hi =
  let g = Gdist.coordinate 0 in
  let r = KnnX.run ~db ~gdist:g ~k:1 ~lo:(q 0) ~hi in
  r.KnnX.stats.KnnX.E.swaps

let test_inversions_controlled () =
  (* the number of sweep crossings equals the requested inversions *)
  List.iter
    (fun inv ->
      let db = Gen.inversions_db ~seed:7 ~n:12 ~inversions:inv ~horizon:(q 100) in
      Alcotest.(check int)
        (Printf.sprintf "crossings for %d inversions" inv)
        inv
        (count_crossings db ~hi:(q 100)))
    [ 0; 1; 5; 20; 50 ]

let prop_inversions =
  prop "inversions = crossings" (QCheck.pair (QCheck.int_range 2 15) (QCheck.int_range 0 40))
    (fun (n, inv) ->
      let inv = min inv (n * (n - 1) / 2) in
      let db = Gen.inversions_db ~seed:(n + inv) ~n ~inversions:inv ~horizon:(q 50) in
      count_crossings db ~hi:(q 50) = inv)

let test_chdir_stream () =
  let db = Gen.uniform_db ~seed:1 ~n:10 () in
  let us = Gen.chdir_stream ~seed:2 ~db ~start:(q 0) ~gap:(q 5) ~count:8 () in
  Alcotest.(check int) "8 updates" 8 (List.length us);
  (* all applicable in order, chronological *)
  let final = DB.apply_all_exn db us in
  Alcotest.(check string) "clock" "40" (Q.to_string (DB.last_update final));
  List.iter (function U.Chdir _ -> () | _ -> Alcotest.fail "expected chdir") us

(* [Gen.chdir_stream] as it was written first: the live OIDs listed
   afresh and indexed with [List.nth] for every update. *)
let chdir_stream_by_scan ~seed ~db ~start ~gap ~count ?(speed = 10) () =
  let st = Moq_workload.Prng.create seed in
  let dim = DB.dim db in
  let rand_vec () =
    Qvec.of_list (List.init dim (fun _ -> q (Moq_workload.Prng.int st ((2 * speed) + 1) - speed)))
  in
  let rec go acc db i =
    if i > count then List.rev acc
    else begin
      let tau = Q.add start (Q.mul (q i) gap) in
      match List.map fst (DB.live db tau) with
      | [] -> List.rev acc
      | oids ->
        let o = List.nth oids (Moq_workload.Prng.int st (List.length oids)) in
        let u = U.Chdir { oid = o; tau; a = rand_vec () } in
        go (u :: acc) (DB.apply_exn db u) (i + 1)
    end
  in
  go [] db 1

(* A MOD whose objects are born late and die early: births spread over
   [0, 30], about a third terminated within 20 units of birth (a chdir
   before the death clears it). *)
let lifetimes_db ~seed ~n =
  let st = Moq_workload.Prng.create seed in
  let r lo hi = lo + Moq_workload.Prng.int st (hi - lo + 1) in
  let rec add db o =
    if o > n then db
    else begin
      let birth = Q.of_ints (r 0 60) 2 in
      let tr =
        T.linear ~start:birth ~a:(Qvec.of_list [ q (r (-3) 3); q (r (-3) 3) ])
          ~b:(Qvec.of_list [ q (r (-50) 50); q (r (-50) 50) ])
      in
      let tr = if r 0 2 = 0 then T.terminate tr (Q.add birth (Q.of_ints (r 1 40) 2)) else tr in
      add (DB.add_initial db (o * 3) tr) (o + 1)
    end
  in
  add (DB.empty ~dim:2 ~tau:(q 0)) 1

(* The Fenwick-tree live set picks the same object as the list scan at
   every update, on MODs with late births and terminations, with gaps
   that land on births and deaths exactly, and with gaps that go back in
   time (rejected by the MOD on both); output bytes compared. *)
let prop_chdir_stream_by_scan =
  prop ~count:200 "chdir stream = the list-scan reference"
    QCheck.(quad (int_range 1 10_000) (int_range 0 40) (int_range (-3) 6) (int_range 1 60))
    (fun (seed, n, gap2, count) ->
      let db = lifetimes_db ~seed ~n in
      let gap = Q.of_ints gap2 2 in
      let start = if gap2 <= 0 then q 20 else q 0 in
      let render f =
        match f () with
        | us -> Moq_mod.Mod_io.updates_to_string ~dim:2 us
        | exception Invalid_argument m -> "rejected: " ^ m
      in
      render (fun () -> Gen.chdir_stream ~seed ~db ~start ~gap ~count ~speed:4 ())
      = render (fun () -> chdir_stream_by_scan ~seed ~db ~start ~gap ~count ~speed:4 ()))

(* O(log N) per update: 4,000 chdirs over 20,000 objects (the list scan
   takes tens of seconds here). *)
let test_chdir_stream_scale () =
  let db = Gen.uniform_db ~seed:3 ~n:20_000 () in
  let t0 = Sys.time () in
  let us = Gen.chdir_stream ~seed:4 ~db ~start:(q 0) ~gap:(Q.of_ints 1 8) ~count:4_000 () in
  let cpu = Sys.time () -. t0 in
  Alcotest.(check int) "4,000 updates" 4_000 (List.length us);
  if cpu > 2.0 then Alcotest.failf "4,000 chdirs over 20,000 objects took %.2f s of CPU" cpu

let test_mixed_stream () =
  let db = Gen.uniform_db ~seed:1 ~n:10 () in
  let us = Gen.mixed_stream ~seed:3 ~db ~start:(q 0) ~gap:(q 2) ~count:40 () in
  Alcotest.(check int) "40 updates" 40 (List.length us);
  let final = DB.apply_all_exn db us in
  Alcotest.(check bool) "objects grew or shrank sensibly" true (DB.cardinal final >= 10);
  let kinds =
    List.fold_left
      (fun (n, t, c) -> function
        | U.New _ -> (n + 1, t, c)
        | U.Terminate _ -> (n, t + 1, c)
        | U.Chdir _ -> (n, t, c + 1))
      (0, 0, 0) us
  in
  let n, _, c = kinds in
  Alcotest.(check bool) "has news and chdirs" true (n > 0 && c > 0)

(* [Gen.mixed_stream] as it was written first: the live OIDs listed
   afresh, twice, and indexed with [List.nth] for every update. *)
let mixed_stream_by_scan ~seed ~db ~start ~gap ~count ?(speed = 10) ?(extent = 1000) () =
  let st = Moq_workload.Prng.create seed in
  let dim = DB.dim db in
  let rand_vec bound =
    Qvec.of_list (List.init dim (fun _ -> q (Moq_workload.Prng.int st ((2 * bound) + 1) - bound)))
  in
  let live_oids db t = List.map fst (DB.live db t) in
  let next_oid = ref (1 + List.fold_left max 0 (DB.oids db)) in
  let rec go acc db i =
    if i > count then List.rev acc
    else begin
      let tau = Q.add start (Q.mul (q i) gap) in
      let roll = Moq_workload.Prng.int st 10 in
      let u =
        if roll < 2 || live_oids db tau = [] then begin
          let o = !next_oid in
          incr next_oid;
          U.New { oid = o; tau; a = rand_vec speed; b = rand_vec extent }
        end
        else begin
          let oids = live_oids db tau in
          let o = List.nth oids (Moq_workload.Prng.int st (List.length oids)) in
          if roll = 2 && List.length oids > 1 then U.Terminate { oid = o; tau }
          else U.Chdir { oid = o; tau; a = rand_vec speed }
        end
      in
      go (u :: acc) (DB.apply_exn db u) (i + 1)
    end
  in
  go [] db 1

(* The Fenwick-tree live set draws the same stream as the list scan, on
   MODs with late births and terminations (the stream's own terminations
   and chdirs moving or clearing deaths), with gaps that land on births
   and deaths exactly and gaps that go back in time; bytes compared. *)
let prop_mixed_stream_by_scan =
  prop ~count:200 "mixed stream = the list-scan reference"
    QCheck.(quad (int_range 1 10_000) (int_range 0 40) (int_range (-3) 6) (int_range 1 80))
    (fun (seed, n, gap2, count) ->
      let db = lifetimes_db ~seed ~n in
      let gap = Q.of_ints gap2 2 in
      let start = if gap2 <= 0 then q 20 else q 0 in
      let render f =
        match f () with
        | us -> Moq_mod.Mod_io.updates_to_string ~dim:2 us
        | exception Invalid_argument m -> "rejected: " ^ m
      in
      render (fun () -> Gen.mixed_stream ~seed ~db ~start ~gap ~count ~speed:4 ~extent:50 ())
      = render (fun () -> mixed_stream_by_scan ~seed ~db ~start ~gap ~count ~speed:4 ~extent:50 ()))

(* O(log N) per update: 1,000 updates over 20,000 objects (the list scan
   took 2.7 s here, against 0.013 s for [chdir_stream]). *)
let test_mixed_stream_scale () =
  let db = Gen.uniform_db ~seed:3 ~n:20_000 () in
  let t0 = Sys.time () in
  let us = Gen.mixed_stream ~seed:4 ~db ~start:(q 0) ~gap:(Q.of_ints 1 8) ~count:1_000 () in
  let cpu = Sys.time () -. t0 in
  Alcotest.(check int) "1,000 updates" 1_000 (List.length us);
  if cpu > 0.5 then Alcotest.failf "1,000 updates over 20,000 objects took %.2f s of CPU" cpu

let test_scenario_example1 () =
  let tr = Scenario.example1_airplane () in
  Alcotest.(check (list string)) "turns" [ "21"; "22" ] (List.map Q.to_string (T.turns tr));
  let tr2 = Scenario.example2_landing () in
  Alcotest.(check bool) "landed and parked" true
    (Qvec.equal (T.position_exn tr2 (q 47)) (T.position_exn tr2 (q 99)))

(* the Scenario curves must reproduce the paper's Example 12 trace (the
   deep assertions live in test/core; here we pin the scenario fixture) *)
let test_scenario_example12 () =
  let o1, o2, o3, o4 = Scenario.example12_curves () in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 40)
      [ (EX.Obj (1, 0), o1); (EX.Obj (2, 0), o2); (EX.Obj (3, 0), o3); (EX.Obj (4, 0), o4) ]
  in
  let points = ref [] in
  EX.advance eng ~upto:(q 20) ~emit:(function
    | EX.Point i -> points := BX.instant_to_float i :: !points
    | EX.Span _ -> ());
  Alcotest.(check (list (float 1e-9))) "events before 20" [ 8.0; 10.0; 17.0 ] (List.rev !points);
  EX.replace_curve eng ~at:(q 20) (EX.Obj (1, 0)) (Scenario.example12_o1_after_chdir o1);
  points := [];
  EX.advance eng ~upto:(q 40) ~emit:(function
    | EX.Point i -> points := BX.instant_to_float i :: !points
    | EX.Span _ -> ());
  Alcotest.(check (list (float 1e-9))) "events after update" [ 22.0; 31.0 ] (List.rev !points)

(* Regression: coincident crossing clusters once made the engine drop a
   neighbour's pending event without rescheduling it (the pair's crossing was
   then lost and the final order stayed wrong).  The inversions workload is
   dense in such clusters; both backends must end in the true final order. *)
let test_coincident_cluster_final_order () =
  let module EF = Moq_core.Engine.Make (Moq_core.Backend.Approx) in
  let module BF = Moq_core.Backend.Approx in
  let n = 64 in
  let db = Gen.inversions_db ~seed:n ~n ~inversions:(2 * n) ~horizon:(q 1000) in
  let gd = Gdist.coordinate 0 in
  let ex =
    EX.create ~start:(q 0) ~horizon:(q 1000)
      (List.map (fun (o, tr) -> (EX.Obj (o, 0), BX.curve_of_qpiece (Gdist.curve gd tr)))
         (DB.objects db))
  in
  let ef =
    EF.create ~start:0.0 ~horizon:1000.0
      (List.map (fun (o, tr) -> (EF.Obj (o, 0), BF.curve_of_qpiece (Gdist.curve gd tr)))
         (DB.objects db))
  in
  EX.advance ex ~upto:(q 1000) ~emit:(fun _ -> ());
  EF.advance ef ~upto:1000.0 ~emit:(fun _ -> ());
  EX.check_invariants ex;
  EF.check_invariants ef;
  let ox = List.map (fun e -> match EX.label e with EX.Obj (o, _) -> o | _ -> -1) (EX.order ex) in
  let of_ = List.map (fun e -> match EF.label e with EF.Obj (o, _) -> o | _ -> -1) (EF.order ef) in
  Alcotest.(check (list int)) "final orders identical" ox of_;
  Alcotest.(check int) "exact swaps = inversions" (2 * n) (EX.stats ex).EX.swaps;
  let sf = EF.stats ef in
  Alcotest.(check int) "float swaps = inversions" (2 * n) sf.EF.swaps

let test_scenario_figure2 () =
  let c1, c2 = Scenario.figure2_curves () in
  let module C = EX.C in
  (match C.first_crossing ~after:(BX.instant_of_scalar (q 0)) c1 c2 with
   | Some i -> Alcotest.(check (float 1e-9)) "D = 8" 8.0 (BX.instant_to_float i)
   | None -> Alcotest.fail "expected crossing at D");
  let c1' = Scenario.figure2_o1_after_a c1 in
  (match C.first_crossing ~after:(BX.instant_of_scalar (q 3)) c1' c2 with
   | None -> ()
   | Some _ -> Alcotest.fail "crossing should be cancelled");
  let c2' = Scenario.figure2_o2_after_b c2 in
  (match C.first_crossing ~after:(BX.instant_of_scalar (q 5)) c1' c2' with
   | Some i -> Alcotest.(check (float 1e-9)) "C = 7" 7.0 (BX.instant_to_float i)
   | None -> Alcotest.fail "expected crossing at C")

(* ------------------------------------------------------------------ *)
(* Determinism regression: the generators are specified to emit exactly
   the same bytes for the same seed on every supported OCaml (the CI
   matrix runs 4.14 and 5.1).  All randomness flows through the repo's
   own splitmix64 Prng and all numbers are exact rationals, so these
   digests are golden — a change means a silent workload change and
   breaks cross-version bench comparability. *)

let digest s = Digest.to_hex (Digest.string s)

let render_trace rows =
  String.concat "\n"
    (List.map
       (fun (oid, t, pos) ->
         Printf.sprintf "%d,%s,%s" oid (Q.to_string t)
           (String.concat "," (List.map Q.to_string (Qvec.to_list pos))))
       rows)

let test_generator_digests () =
  let db = Gen.uniform_db ~seed:42 ~n:25 () in
  Alcotest.(check string) "uniform_db seed 42"
    "92a4b07bbccf00e7a160555d03479618"
    (digest (Moq_mod.Mod_io.db_to_string db));
  let clustered = Gen.clustered_db ~seed:9 ~n:60 () in
  Alcotest.(check string) "clustered_db seed 9"
    "c1617011bf0d49e509fbaf8bde09c00f"
    (digest (Moq_mod.Mod_io.db_to_string clustered));
  let stream =
    Gen.mixed_stream ~seed:43 ~db ~start:(q 0) ~gap:(q 3) ~count:20 ()
  in
  Alcotest.(check string) "mixed_stream seed 43"
    "ed33c95be5a32858d7f00b59abe8bc07"
    (digest (Moq_mod.Mod_io.updates_to_string ~dim:2 stream));
  let trace = Gen.trace_like ~seed:5 ~n:6 ~steps:10 () in
  Alcotest.(check string) "trace_like seed 5"
    "158a61b150b616494e474b0527a80288"
    (digest (render_trace trace))

let () =
  Alcotest.run "workload"
    [ ("gen", [
        Alcotest.test_case "uniform deterministic" `Quick test_uniform_db;
        Alcotest.test_case "inversions controlled" `Quick test_inversions_controlled;
        prop_inversions;
        Alcotest.test_case "chdir stream" `Quick test_chdir_stream;
        prop_chdir_stream_by_scan;
        Alcotest.test_case "chdir stream at 20,000 objects" `Quick test_chdir_stream_scale;
        Alcotest.test_case "mixed stream" `Quick test_mixed_stream;
        prop_mixed_stream_by_scan;
        Alcotest.test_case "mixed stream at 20,000 objects" `Quick test_mixed_stream_scale;
      ]);
      ("scenario", [
        Alcotest.test_case "example 1/2 airplane" `Quick test_scenario_example1;
        Alcotest.test_case "example 12 trace" `Quick test_scenario_example12;
        Alcotest.test_case "figure 2 crossings" `Quick test_scenario_figure2;
      ]);
      ("regression", [
        Alcotest.test_case "coincident clusters: no lost events" `Quick
          test_coincident_cluster_final_order;
        Alcotest.test_case "byte-identical generator output per seed" `Quick
          test_generator_digests;
      ]);
    ]
