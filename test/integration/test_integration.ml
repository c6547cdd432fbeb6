(* Cross-layer integration: the CQL evaluator (quantifier elimination), the
   FO(f) sweep, the specialized operators, and the baselines must tell one
   consistent story on shared workloads. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid
module Cql = Moq_cql.Cql
module Cql_ex = Moq_cql.Cql_examples
module BX = Moq_core.Backend.Exact
module SwX = Moq_core.Sweep.Make (BX)
module KnnX = Moq_core.Knn.Make (BX)
module RangeX = Moq_core.Range_query.Make (BX)
module MonX = Moq_core.Monitor.Make (BX)
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist
module Classify = Moq_core.Classify
module NaiveX = Moq_baseline.Naive.Make (BX)
module LazyX = Moq_baseline.Lazy_eval.Make (BX)
module Gen = Moq_workload.Gen

let q = Q.of_int

let prop ?(count = 25) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ------------------------------------------------------------------ *)
(* CQL (QE) vs FO(f) sweep: "met gamma" = "within squared distance 0"   *)
(* ------------------------------------------------------------------ *)

let test_cql_vs_fof_meeting () =
  (* objects on a line; gamma crosses some of them *)
  let db = DB.empty ~dim:1 ~tau:(q 0) in
  let add db o x v = DB.add_initial db o (T.linear ~start:(q 0) ~a:(Qvec.of_list [ q v ]) ~b:(Qvec.of_list [ q x ])) in
  let db = add db 1 0 1 in
  (* meets gamma head-on *)
  let db = add db 2 20 (-1) in
  (* parallel to gamma with an offset, never meets *)
  let db = add db 3 6 2 in
  let gamma = T.linear ~start:(q 0) ~a:(Qvec.of_list [ q 2 ]) ~b:(Qvec.of_list [ q 5 ]) in
  (* CQL: same position as gamma at some time in [0, 10] *)
  let cql_ans = Cql.answer db (Cql_ex.met_gamma ~gamma ~dim:1 ~tau1:(q 0) ~tau2:(q 10)) in
  (* FO(f): squared distance to gamma is <= 0 at some time in [0, 10] *)
  let gdist = Gdist.euclidean_sq ~gamma in
  let query = Fof.within_q ~bound:(q 0) ~interval:(Fof.Interval.closed (q 0) (q 10)) in
  let r = SwX.run ~db ~gdist ~query in
  let fof_ans = Oid.Set.elements (SwX.TL.existential r.SwX.timeline) in
  Alcotest.(check (list int)) "CQL and FO(f) agree" cql_ans fof_ans;
  (* o1 meets gamma: x0=0,v=1 vs 5+2t: never (gamma faster, ahead).
     o2: 20 - t = 5 + 2t -> t = 5: meets. o3 parallel offset: never. *)
  Alcotest.(check (list int)) "expected answer" [ 2 ] fof_ans

let random_line_db specs =
  List.fold_left
    (fun db (o, x, v) ->
      DB.add_initial db o
        (T.linear ~start:(q 0) ~a:(Qvec.of_list [ q v ]) ~b:(Qvec.of_list [ q x ])))
    (DB.empty ~dim:1 ~tau:(q 0))
    specs

let prop_cql_vs_fof =
  prop "CQL met-gamma = FO(f) within-0, random lines"
    (QCheck.list_of_size (QCheck.Gen.int_range 1 5)
       (QCheck.pair (QCheck.int_range (-15) 15) (QCheck.int_range (-3) 3)))
    (fun specs ->
      let specs = List.mapi (fun i (x, v) -> (i + 1, x, v)) specs in
      let db = random_line_db specs in
      let gamma = T.linear ~start:(q 0) ~a:(Qvec.of_list [ q 1 ]) ~b:(Qvec.of_list [ q 0 ]) in
      let cql_ans = Cql.answer db (Cql_ex.met_gamma ~gamma ~dim:1 ~tau1:(q 0) ~tau2:(q 8)) in
      let gdist = Gdist.euclidean_sq ~gamma in
      let query = Fof.within_q ~bound:(q 0) ~interval:(Fof.Interval.closed (q 0) (q 8)) in
      let r = SwX.run ~db ~gdist ~query in
      cql_ans = Oid.Set.elements (SwX.TL.existential r.SwX.timeline))

(* ------------------------------------------------------------------ *)
(* Specialized operators vs generic sweep vs naive baseline             *)
(* ------------------------------------------------------------------ *)

let prop_knn_three_ways =
  prop "1-NN: operator = generic FO(f) = naive, random workloads"
    (QCheck.int_range 0 10000)
    (fun seed ->
      let db = Gen.uniform_db ~seed ~n:6 ~extent:30 ~speed:4 () in
      let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
      let gdist = Gdist.euclidean_sq ~gamma in
      let lo = q 0 and hi = q 15 in
      let op = KnnX.run ~db ~gdist ~k:1 ~lo ~hi in
      let generic =
        SwX.run ~db ~gdist ~query:(Fof.nearest_q ~interval:(Fof.Interval.closed lo hi))
      in
      let naive, _ = NaiveX.knn_run ~db ~gdist ~k:1 ~lo ~hi in
      List.for_all
        (fun j ->
          let t = Q.div (q (3 * j + 1)) (q 2) in
          let at tl = SwX.TL.find_at tl (BX.instant_of_scalar t) in
          match at op.KnnX.timeline, at generic.SwX.timeline, at naive with
          | Some a, Some b, Some c -> Oid.Set.equal a b && Oid.Set.equal b c
          | _ -> false)
        (List.init 10 (fun j -> j)))

let prop_range_vs_generic =
  prop "within-r: operator = generic FO(f)" (QCheck.int_range 0 10000) (fun seed ->
      let db = Gen.uniform_db ~seed ~n:6 ~extent:30 ~speed:4 () in
      let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
      let gdist = Gdist.euclidean_sq ~gamma in
      let bound = q 400 in
      let lo = q 0 and hi = q 15 in
      let op = RangeX.run ~db ~gdist ~bound ~lo ~hi in
      let generic =
        SwX.run ~db ~gdist ~query:(Fof.within_q ~bound ~interval:(Fof.Interval.closed lo hi))
      in
      List.for_all
        (fun j ->
          let t = Q.div (q (3 * j + 1)) (q 2) in
          match
            ( SwX.TL.find_at op.RangeX.timeline (BX.instant_of_scalar t),
              SwX.TL.find_at generic.SwX.timeline (BX.instant_of_scalar t) )
          with
          | Some a, Some b -> Oid.Set.equal a b
          | _ -> false)
        (List.init 10 (fun j -> j)))

(* ------------------------------------------------------------------ *)
(* Monitor = lazy sweep under mixed update streams (eager vs lazy)      *)
(* ------------------------------------------------------------------ *)

let prop_eager_lazy_mixed =
  prop "monitor = lazy sweep under mixed updates" (QCheck.int_range 0 10000) (fun seed ->
      let db = Gen.uniform_db ~seed ~n:5 ~extent:30 ~speed:4 () in
      let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
      let gdist = Gdist.euclidean_sq ~gamma in
      let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 30)) in
      let updates = Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q 0) ~gap:(q 3) ~count:6 () in
      let eager = MonX.create ~db ~gdist ~query () in
      let lazy_ = LazyX.create ~db ~gdist ~query in
      List.iter
        (fun u ->
          MonX.apply_update_exn eager u;
          LazyX.apply_update_exn lazy_ u)
        updates;
      let tl = MonX.finalize eager in
      let r = LazyX.answer lazy_ in
      List.for_all
        (fun j ->
          let t = Q.div (q (6 * j + 1)) (q 4) in
          match
            ( MonX.TL.find_at tl (BX.instant_of_scalar t),
              MonX.TL.find_at r.LazyX.Sw.timeline (BX.instant_of_scalar t) )
          with
          | Some a, Some b -> Oid.Set.equal a b
          | _ -> false)
        (List.init 20 (fun j -> j)))

(* ------------------------------------------------------------------ *)
(* Classification transitions as the clock moves                        *)
(* ------------------------------------------------------------------ *)

let test_classification_lifecycle () =
  (* a query over [5, 10] against a database whose update clock advances *)
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 5) (q 10)) in
  let db0 = DB.empty ~dim:1 ~tau:(q 0) in
  Alcotest.(check bool) "future before any update" true
    (Classify.classify db0 query = Classify.Future);
  let db1 =
    DB.apply_exn db0 (U.New { oid = 1; tau = q 7; a = Qvec.of_list [ q 1 ]; b = Qvec.of_list [ q 0 ] })
  in
  Alcotest.(check bool) "continuing mid-interval" true
    (Classify.classify db1 query = Classify.Continuing);
  let db2 =
    DB.apply_exn db1 (U.Chdir { oid = 1; tau = q 11; a = Qvec.of_list [ q 0 ] })
  in
  Alcotest.(check bool) "past once the clock passes the interval" true
    (Classify.classify db2 query = Classify.Past)

(* ------------------------------------------------------------------ *)
(* Air-traffic end-to-end: Example 1 plane in a fleet, queried 3 ways   *)
(* ------------------------------------------------------------------ *)

let test_airplane_three_queries () =
  let plane = Moq_workload.Scenario.example1_airplane () in
  let db = DB.add_initial (DB.empty ~dim:3 ~tau:(q 0)) 7 plane in
  let db =
    DB.add_initial db 9
      (T.linear ~start:(q 0) ~a:(Qvec.of_list [ q 2; q 0; q 0 ]) ~b:(Qvec.of_list [ q 0; q 0; q 30 ]))
  in
  let gamma = Option.get (DB.find db 9) in
  let gdist = Gdist.euclidean_sq ~gamma in
  (* 1-NN among {7} relative to flight 9 is trivially 7; the point is the
     multi-piece curve sweeps cleanly across the turns at 21 and 22 *)
  let db7 = DB.add_initial (DB.empty ~dim:3 ~tau:(q 0)) 7 plane in
  let r = KnnX.run ~db:db7 ~gdist ~k:1 ~lo:(q 0) ~hi:(q 40) in
  Alcotest.(check (list int)) "plane always the answer" [ 7 ]
    (Oid.Set.elements (KnnX.TL.universal r.KnnX.timeline));
  (* range query with a threshold the plane crosses *)
  let rr = RangeX.run ~db:db7 ~gdist ~bound:(q 2000) ~lo:(q 0) ~hi:(q 40) in
  let ex = Oid.Set.elements (RangeX.TL.existential rr.RangeX.timeline) in
  let un = Oid.Set.elements (RangeX.TL.universal rr.RangeX.timeline) in
  Alcotest.(check (list int)) "within 2000 at some point" [ 7 ] ex;
  Alcotest.(check (list int)) "not within 2000 always" [] un

let () =
  Alcotest.run "integration"
    [ ("cql-vs-fof", [
        Alcotest.test_case "meeting query two ways" `Quick test_cql_vs_fof_meeting;
        prop_cql_vs_fof;
      ]);
      ("operators", [ prop_knn_three_ways; prop_range_vs_generic ]);
      ("eager-vs-lazy", [ prop_eager_lazy_mixed ]);
      ("lifecycle", [ Alcotest.test_case "classification transitions" `Quick test_classification_lifecycle ]);
      ("air-traffic", [ Alcotest.test_case "multi-piece plane, 3 queries" `Quick test_airplane_three_queries ]);
    ]
