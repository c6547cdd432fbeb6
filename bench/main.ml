(* The experiment harness: one entry per figure / theorem / baseline
   comparison of the paper (see DESIGN.md section 5 for the index, and
   EXPERIMENTS.md for recorded paper-vs-measured results).

     dune exec bench/main.exe            -- run every experiment (series mode)
     dune exec bench/main.exe -- f3 t4   -- run selected experiments
     dune exec bench/main.exe -- bechamel -- Bechamel micro-benchmarks *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module QP = Moq_poly.Qpoly
module Qpiece = Moq_poly.Piecewise.Qpiece
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid

module A = Moq_poly.Algnum

module BX = Moq_core.Backend.Exact
module BFl = Moq_core.Backend.Filtered
module EX = Moq_core.Engine.Make (BX)
module EFl = Moq_core.Engine.Make (BFl)
module KnnX = Moq_core.Knn.Make (BX)
module KnnFl = Moq_core.Knn.Make (BFl)
module ShF = Moq_core.Shard.Make (BFl)
module MonFl = Moq_core.Monitor.Make (BFl)
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist
module NaiveFl = Moq_baseline.Naive.Make (BFl)
module SR = Moq_baseline.Song_roussopoulos
module LazyFl = Moq_baseline.Lazy_eval.Make (BFl)
module LH = Moq_dstruct.Leftist_heap
module BH = Moq_dstruct.Bin_heap
module Gen = Moq_workload.Gen
module Grid = Moq_index.Grid
module Scenario = Moq_workload.Scenario
module Agg = Moq_agg.Agg
module AggX = Moq_agg.Agg.Make (BX)
module AlibiX = Moq_agg.Alibi.Make (BX)
module AlibiFl = Moq_agg.Alibi.Make (BFl)
module Ingest = Moq_ingest.Ingest
module Cql = Moq_cql.Cql
module Cql_ex = Moq_cql.Cql_examples
module Turing = Moq_decide.Turing
module Reduction = Moq_decide.Reduction
module Registry = Moq_obs.Registry
module Sink = Moq_obs.Sink
module Json = Moq_obs.Json

let q = Q.of_int

(* ------------------------------------------------------------------ *)
(* Machine-readable results.  Each experiment runs against a fresh
   registry (instrumented experiments thread [!bench_sink] into the
   engine/store they exercise); the driver times the whole experiment and
   writes BENCH_<ID>.json — schema {exp, n, seed, wall_s, counters} — to
   the current directory, or $MOQ_BENCH_DIR when set.                   *)

let bench_reg = ref (Registry.create ())
let bench_sink = ref Sink.noop
let bench_n = ref 0
let bench_seed = ref 0

(* experiment-specific top-level JSON fields (e.g. a3's backend id and
   filter hit rate); validated by scripts/validate_bench.py *)
let bench_extras : (string * Json.t) list ref = ref []

let bench_dir () =
  match Sys.getenv_opt "MOQ_BENCH_DIR" with Some d -> d | None -> "."

let write_bench_json id wall =
  let counters = Registry.flatten !bench_reg in
  let j =
    Json.Obj
      ([ ("exp", Json.Str id);
         ("n", Json.Int !bench_n);
         ("seed", Json.Int !bench_seed);
         ("wall_s", Json.Float wall);
         ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) counters));
       ]
      @ !bench_extras)
  in
  let path = Filename.concat (bench_dir ()) (Printf.sprintf "BENCH_%s.json" id) in
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc

let run_experiment (id, f) =
  bench_reg := Registry.create ();
  bench_sink := Sink.of_registry !bench_reg;
  bench_n := 0;
  bench_seed := 0;
  bench_extras := [];
  let t0 = Sink.monotonic () in
  f ();
  write_bench_json id (Sink.monotonic () -. t0)

let time_once f =
  let t0 = Sink.monotonic () in
  let r = f () in
  (Sink.monotonic () -. t0, r)

(* median of [reps] timings, first result *)
let timed ?(reps = 3) f =
  let runs = List.init reps (fun _ -> time_once f) in
  let times = List.sort compare (List.map fst runs) in
  (List.nth times (reps / 2), snd (List.hd runs))

let header id title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "[%s] %s\n" id title;
  Printf.printf "==============================================================\n"

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 / Example 9 -- interception time is a quadratic        *)
(* ------------------------------------------------------------------ *)

let f1 () =
  header "F1" "Figure 1 / Example 9: t_delta^2 is a quadratic polynomial of t";
  let target = T.linear ~start:(q 0) ~a:(Qvec.of_list [ q 5; q 0 ]) ~b:(Qvec.of_list [ q 10; q 0 ]) in
  row "pursuer start   velocity  v_max | t_delta^2(t)                                degree\n";
  List.iter
    (fun (bx, by, ax, ay, vmax) ->
      let tr = T.linear ~start:(q 0) ~a:(Qvec.of_list [ q ax; q ay ]) ~b:(Qvec.of_list [ q bx; q by ]) in
      let g = Gdist.intercept_time_sq ~gamma:target ~target_speed:(q 5) ~speed:(q vmax) in
      let poly, _ = Qpiece.piece_covering (Gdist.curve g tr) (q 0) in
      row "(%3d,%3d)      (%2d,%2d)    %2d   | %-42s  %d\n" bx by ax ay vmax
        (QP.to_string poly) (QP.degree poly))
    [ (0, 10, 1, 0, 6); (40, -5, 0, 1, 9); (-30, 0, 1, 1, 12); (0, -20, 2, 2, 7) ];
  row "paper: t_delta^2 = c2 t^2 + c1 t + c0 (quadratic) -- all degrees above must be <= 2\n"

(* ------------------------------------------------------------------ *)
(* F2: Figure 2 -- updates move/cancel the expected crossing           *)
(* ------------------------------------------------------------------ *)

let f2 () =
  header "F2" "Figure 2: chdir at A cancels crossing D; chdir at B creates earlier crossing C";
  let c1, c2 = Scenario.figure2_curves () in
  let eng = EX.create ~start:(q 0) ~horizon:(q 20) [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2) ] in
  let log_events label upto =
    let points = ref [] in
    EX.advance eng ~upto ~emit:(function
      | EX.Point i -> points := BX.instant_to_float i :: !points
      | EX.Span _ -> ());
    row "%-44s events: [%s]\n" label
      (String.concat "; " (List.rev_map (Printf.sprintf "%g") !points))
  in
  row "initially o2 is closer; expected crossing D at t = 8\n";
  log_events "advance to A = 3 (no events expected)" (q 3);
  EX.replace_curve eng ~at:(q 3) (EX.Obj (1, 0)) (Scenario.figure2_o1_after_a c1);
  row "chdir(o1) at A = 3: crossing at D is cancelled\n";
  log_events "advance to B = 5 (no events expected)" (q 5);
  EX.replace_curve eng ~at:(q 5) (EX.Obj (2, 0)) (Scenario.figure2_o2_after_b c2);
  row "chdir(o2) at B = 5: new crossing expected at C = 7 < D = 8\n";
  log_events "advance to 20" (q 20);
  let nearest =
    match EX.first_n eng 1 with
    | [ e ] -> Format.asprintf "%a" EX.pp_label (EX.label e)
    | _ -> "?"
  in
  row "after C the closer object is %s (paper: o1 closer again)\n" nearest

(* ------------------------------------------------------------------ *)
(* F3: Figure 3 / Example 12 -- the paper's full 2-NN trace            *)
(* ------------------------------------------------------------------ *)

let f3 () =
  header "F3" "Figure 3 / Example 12: 2-NN over [0,40], update (chdir o1) at t = 20";
  let o1, o2, o3, o4 = Scenario.example12_curves () in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 40)
      [ (EX.Obj (1, 0), o1); (EX.Obj (2, 0), o2); (EX.Obj (3, 0), o3); (EX.Obj (4, 0), o4) ]
  in
  let order () =
    String.concat " < "
      (List.map (fun e -> Format.asprintf "%a" EX.pp_label (EX.label e)) (EX.order eng))
  in
  (* the 2-NN just after the current instant: the order's first two *)
  let twonn () =
    let oid e = match EX.label e with EX.Obj (o, _) -> o | EX.Cst _ -> assert false in
    String.concat ","
      (List.map (Printf.sprintf "o%d") (List.sort compare (List.map oid (EX.first_n eng 2))))
  in
  row "t = 0 : order %s; 2-NN = {%s}   (paper: o4 < o3 < o2 < o1, answer {o3,o4})\n"
    (order ()) (twonn ());
  let emit = function
    | EX.Point i ->
      row "t = %-6g: event; order now %s; 2-NN = {%s}\n" (BX.instant_to_float i) (order ())
        (twonn ())
    | EX.Span _ -> ()
  in
  EX.advance eng ~upto:(q 20) ~emit;
  row "t = 20    : update chdir(o1) -- event at 24 deleted, earlier crossing inserted\n";
  EX.replace_curve eng ~at:(q 20) (EX.Obj (1, 0)) (Scenario.example12_o1_after_chdir o1);
  EX.advance eng ~upto:(q 40) ~emit;
  row "paper's narrative: events at 8 (o3,o4), 10 (o1,o2), 17 (o3,o4), then 22 (moved from 24), 31\n";
  let s = EX.stats eng in
  row "stats: %d crossings, %d swaps, %d batches; queue <= N at all times (Lemma 9)\n"
    s.EX.crossings s.EX.swaps s.EX.batches

(* ------------------------------------------------------------------ *)
(* P1: Proposition 1 -- CQL evaluation is polynomial in the MOD size   *)
(* ------------------------------------------------------------------ *)

let p1 () =
  header "P1" "Proposition 1: CQL (Example 3 'entering') evaluation time vs N";
  row "%8s %12s %14s %10s\n" "N" "time (s)" "time/N (ms)" "answered";
  List.iter
    (fun n ->
      let db = ref (DB.empty ~dim:2 ~tau:(q 0)) in
      let st = Random.State.make [| n |] in
      for i = 1 to n do
        let b = Qvec.of_list [ q (-Random.State.int st 50 - 1); q (Random.State.int st 12 - 6) ] in
        let a = Qvec.of_list [ q (1 + Random.State.int st 3); q (Random.State.int st 3 - 1) ] in
        db := DB.add_initial !db i (T.linear ~start:(q 0) ~a ~b)
      done;
      let region = Cql_ex.box [ (q 0, q 40); (q (-5), q 5) ] in
      let query = Cql_ex.entering ~region ~dim:2 ~tau1:(q 0) ~tau2:(q 30) in
      let t, ans = timed ~reps:1 (fun () -> Cql.answer !db query) in
      row "%8d %12.4f %14.4f %10d\n" n t (1000.0 *. t /. float_of_int n) (List.length ans))
    [ 16; 32; 64; 128; 256; 512 ];
  row "paper: polynomial in MOD size -- time/N stays bounded (linear data complexity here)\n"

(* ------------------------------------------------------------------ *)
(* T2: Theorem 2 -- undecidability reduction, executable               *)
(* ------------------------------------------------------------------ *)

let t2 () =
  header "T2" "Theorem 2: 'is this query past?' embeds TM halting";
  let check name m bounds =
    List.iter
      (fun b ->
        let t, past = timed ~reps:1 (fun () -> Reduction.is_past_up_to m ~max_steps:b) in
        row "%-18s bound %6d: query still past? %-5b   (%.4fs)\n" name b past t)
      bounds
  in
  check "busy-beaver-3" (Turing.busy_beaver_3 ()) [ 5; 12; 13; 50 ];
  check "loop-forever" (Turing.loop_forever ()) [ 100; 10000 ];
  row "the halting machine flips to 'not past' exactly when its halting computation fits the\n";
  row "bound; the looping machine stays 'past' for every bound -- no algorithm decides the limit\n"

(* ------------------------------------------------------------------ *)
(* T4: past queries in O((m + N) log N)                                *)
(* ------------------------------------------------------------------ *)

let t4 () =
  header "T4" "Past k-NN sweep: O((m+N) log N) -- scaling in N (m ~ 2N) and in m (N fixed)";
  let run_inversions ~n ~inv =
    bench_n := max !bench_n n;
    bench_seed := n + inv;
    let db = Gen.inversions_db ~seed:(n + inv) ~n ~inversions:inv ~horizon:(q 1000) in
    timed (fun () ->
        KnnFl.run_obs ~sink:!bench_sink ~db ~gdist:(Gdist.coordinate 0) ~k:2
          ~lo:(q 0) ~hi:(q 1000))
  in
  row "-- N sweep (m = 2N):\n%8s %8s %12s %20s\n" "N" "m" "time (s)" "us/((m+N)logN)";
  List.iter
    (fun n ->
      let t, r = run_inversions ~n ~inv:(2 * n) in
      let m = r.KnnFl.stats.KnnFl.E.swaps in
      row "%8d %8d %12.4f %20.4f\n" n m t
        (t /. (float_of_int (m + n) *. log (float_of_int n)) *. 1e6))
    [ 64; 128; 256; 512; 1024; 2048 ];
  row "-- m sweep (N = 512):\n%8s %8s %12s %20s\n" "N" "m" "time (s)" "us/((m+N)logN)";
  List.iter
    (fun inv ->
      let t, r = run_inversions ~n:512 ~inv in
      let m = r.KnnFl.stats.KnnFl.E.swaps in
      row "%8d %8d %12.4f %20.4f\n" 512 m t
        (t /. (float_of_int (m + 512) *. log 512.0) *. 1e6))
    [ 0; 512; 2048; 8192; 32768 ];
  row "paper: the normalized column should stay roughly flat across both sweeps\n"

(* ------------------------------------------------------------------ *)
(* T5a: future-query initialization in O(N log N)                      *)
(* ------------------------------------------------------------------ *)

(* Support-maintenance-only monitor (materialize:false): Theorems 5 and 10
   bound the support maintenance, not the answer materialization. *)
let nearest_monitor ?(sink = Sink.noop) db =
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 1000)) in
  MonFl.create ~sink ~materialize:false ~db ~gdist ~query ()

let t5a () =
  header "T5a" "Theorem 5(1): monitor initialization vs N -- O(N log N)";
  row "%8s %12s %18s\n" "N" "time (s)" "us/(N logN)";
  List.iter
    (fun n ->
      bench_n := max !bench_n n;
      bench_seed := n;
      let db = Gen.uniform_db ~seed:n ~n () in
      let t, _ = timed (fun () -> nearest_monitor ~sink:!bench_sink db) in
      row "%8d %12.4f %18.4f\n" n t (t /. (float_of_int n *. log (float_of_int n)) *. 1e6))
    [ 128; 256; 512; 1024; 2048; 4096 ];
  row "paper: normalized column flat => O(N log N) initialization\n"

(* ------------------------------------------------------------------ *)
(* T5b: per-update maintenance -- O(m log N), O(log N) when m bounded  *)
(* ------------------------------------------------------------------ *)

let t5b () =
  header "T5b" "Theorem 5(2) / Corollary 6: per-update cost";
  (* Corollary 6 assumes the number of support changes between updates is
     bounded: the inversions workload fixes the TOTAL number of crossings,
     so per-update m stays constant as N grows. *)
  row "-- N sweep (sparse workload: support changes per update stay bounded):\n";
  row "%8s %17s %12s %12s\n" "N" "avg update (us)" "us/logN" "crossings";
  List.iter
    (fun n ->
      (* objects widely separated in height with zero velocity; each chdir
         gives one object a tiny slope, producing O(1) crossings per update
         regardless of N *)
      let db = ref (DB.empty ~dim:1 ~tau:(q 0)) in
      for i = 1 to n do
        db :=
          DB.add_initial !db i
            (T.linear ~start:(q 0) ~a:(Qvec.of_list [ q 0 ])
               ~b:(Qvec.of_list [ q (i * 1000) ]))
      done;
      let db = !db in
      bench_n := max !bench_n n;
      bench_seed := n + 1;
      let gdist = Gdist.coordinate 0 in
      let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 1000)) in
      let m = MonFl.create ~sink:!bench_sink ~materialize:false ~db ~gdist ~query () in
      let updates = Gen.chdir_stream ~seed:(n + 1) ~db ~start:(q 0) ~gap:(q 5) ~count:100 ~speed:1 () in
      let t, () = timed ~reps:1 (fun () -> List.iter (MonFl.apply_update_exn m) updates) in
      let per = t /. 100.0 *. 1e6 in
      row "%8d %17.2f %12.2f %12d\n" n per
        (per /. log (float_of_int n))
        (MonFl.stats m).MonFl.E.crossings)
    [ 128; 256; 512; 1024; 2048; 4096; 8192 ];
  row "-- gap sweep (N = 512, dense uniform workload; larger gap => more events per update):\n";
  row "%8s %17s %12s\n" "gap" "avg update (us)" "crossings";
  List.iter
    (fun gap ->
      let db = Gen.uniform_db ~seed:99 ~n:512 () in
      let m = nearest_monitor ~sink:!bench_sink db in
      let updates = Gen.chdir_stream ~seed:100 ~db ~start:(q 0) ~gap:(q gap) ~count:50 () in
      let t, () = timed ~reps:1 (fun () -> List.iter (MonFl.apply_update_exn m) updates) in
      row "%8d %17.2f %12d\n" gap (t /. 50.0 *. 1e6) (MonFl.stats m).MonFl.E.crossings)
    [ 1; 2; 4; 8; 16 ];
  row "paper: with bounded m the per-update cost grows only like log N (first table);\n";
  row "with growing gaps the cost tracks m, the events per update (second table)\n"

(* ------------------------------------------------------------------ *)
(* T10: chdir on the query trajectory in O(N)                          *)
(* ------------------------------------------------------------------ *)

let t10 () =
  header "T10" "Theorem 10: query-trajectory chdir is O(N) (engine rebuild vs sort-based re-init)";
  (* Isolate the engine-level operation: both variants get the SAME already-
     built curves and views, so curve construction (O(N) in both) is
     excluded; what remains is Theorem 10's claim -- rebuilding the pending
     events without re-sorting vs initializing with a sort.  The new curves'
     views are built before either timing: the first variant timed would
     otherwise pay for them and the second reuse them. *)
  let module E = EFl in
  row "%8s %15s %15s %12s %12s %12s\n" "N" "rebuild (us)" "re-init (us)" "cmp rebuild" "cmp re-init" "cmp ratio";
  List.iter
    (fun n ->
      let db = Gen.uniform_db ~seed:n ~n () in
      let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
      let gamma' = T.chdir gamma (q 10) (Qvec.of_list [ q 1; q 1 ]) in
      let curves g =
        List.map
          (fun (o, tr) ->
            (E.Obj (o, 0), Gdist.curve (Gdist.euclidean_sq ~gamma:g) tr))
          (DB.objects db)
      in
      let c0 = curves gamma and c1 = curves gamma' in
      List.iter (fun (_, c) -> ignore (BFl.PW.view c)) c1;
      let tbl = Hashtbl.create (List.length c1) in
      List.iter (fun (lbl, c) -> Hashtbl.replace tbl lbl c) c1;
      let eng = E.create ~start:(q 0) ~horizon:(q 1000) c0 in
      let cmp_before = (E.stats eng).E.comparisons in
      let t_chdir, () =
        time_once (fun () ->
            E.replace_all_curves eng ~at:(q 0) (fun e ->
                Option.value ~default:(E.curve e) (Hashtbl.find_opt tbl (E.label e))))
      in
      let cmp_rebuild = (E.stats eng).E.comparisons - cmp_before in
      let t_reinit, eng2 = timed (fun () -> E.create ~start:(q 0) ~horizon:(q 1000) c1) in
      let cmp_reinit = (E.stats eng2).E.comparisons in
      row "%8d %15.2f %15.2f %12d %12d %12.2f\n" n (t_chdir *. 1e6) (t_reinit *. 1e6)
        cmp_rebuild cmp_reinit
        (float_of_int cmp_reinit /. float_of_int (max 1 cmp_rebuild)))
    [ 512; 1024; 2048; 4096; 8192; 16384 ];
  row "paper's cost model excludes intersection computation: in comparisons, the rebuild is\n";
  row "O(N) while re-initialization sorts in O(N log N) -- the cmp ratio grows like log N.\n";
  row "(wall-clock is dominated by the O(N) intersection computations both variants share)\n"

(* ------------------------------------------------------------------ *)
(* B1: sweep vs naive re-evaluation                                    *)
(* ------------------------------------------------------------------ *)

let b1 () =
  header "B1" "Sweep vs naive re-evaluation (all-pairs intersections + full re-sort per event)";
  row "%8s %12s %12s %10s\n" "N" "sweep (s)" "naive (s)" "speedup";
  List.iter
    (fun n ->
      let db = Gen.inversions_db ~seed:n ~n ~inversions:(2 * n) ~horizon:(q 1000) in
      let gdist = Gdist.coordinate 0 in
      let t_sweep, _ = timed (fun () -> KnnFl.run ~db ~gdist ~k:2 ~lo:(q 0) ~hi:(q 1000)) in
      let t_naive, _ =
        timed ~reps:1 (fun () -> NaiveFl.knn_run ~db ~gdist ~k:2 ~lo:(q 0) ~hi:(q 1000))
      in
      row "%8d %12.4f %12.4f %9.1fx\n" n t_sweep t_naive (t_naive /. t_sweep))
    [ 32; 64; 128; 256; 512 ];
  row "paper: the sweep examines adjacent pairs only; the gap must widen with N\n"

(* ------------------------------------------------------------------ *)
(* B2: Song-Roussopoulos re-search misses exchanges (Figure 2)         *)
(* ------------------------------------------------------------------ *)

let b2 () =
  header "B2" "[26]-style periodic re-search vs sweep: fraction of time with a wrong answer";
  let db = Gen.uniform_db ~seed:4 ~n:64 ~extent:200 ~speed:8 () in
  let gamma = T.linear ~start:(q 0) ~a:(Qvec.of_list [ q 3; q 1 ]) ~b:(Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let sweep = KnnFl.run ~db ~gdist ~k:2 ~lo:(q 0) ~hi:(q 100) in
  let truth t = KnnFl.TL.find_at sweep.KnnFl.timeline (BFl.instant_of_scalar (Q.of_float t)) in
  row "%10s %22s\n" "period" "mismatch fraction";
  List.iter
    (fun period ->
      let samples = SR.run ~db ~gamma ~k:2 ~lo:(q 0) ~hi:(q 100) ~period () in
      let miss = SR.mismatch_fraction ~truth ~samples ~lo:0.0 ~hi:100.0 ~probes:4000 in
      row "%10.2f %22.4f\n" period miss)
    [ 50.0; 20.0; 10.0; 5.0; 2.0; 1.0; 0.5 ];
  row "%10s %22.4f   (the sweep tracks every exchange)\n" "sweep" 0.0;
  row "paper (Fig. 2): between re-searches the result 'may soon become incorrect'; the error\n";
  row "only vanishes as the period shrinks toward the inter-event gap (brute-force resampling)\n"

(* ------------------------------------------------------------------ *)
(* B3: eager monitor vs lazy evaluation                                *)
(* ------------------------------------------------------------------ *)

let b3 () =
  header "B3" "Eager (monitor) vs lazy (sweep when asked): latency of the final answer";
  (* the monitored query is within-distance (quantifier-free), so answer
     materialization is O(N) per support change for both strategies; the
     latency difference is purely WHEN the work happens *)
  row "%8s %8s %16s %19s %15s\n" "N" "updates" "eager total (s)" "eager max/upd (us)" "lazy final (s)";
  List.iter
    (fun n ->
      let db = Gen.uniform_db ~seed:n ~n () in
      let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
      let gdist = Gdist.euclidean_sq ~gamma in
      let query =
        Fof.within_q ~bound:(q 250000) ~interval:(Fof.Interval.closed (q 0) (q 200))
      in
      let updates = Gen.chdir_stream ~seed:(n + 1) ~db ~start:(q 0) ~gap:(q 2) ~count:80 () in
      let eager = MonFl.create ~db ~gdist ~query () in
      let lazy_ = LazyFl.create ~db ~gdist ~query in
      let max_upd = ref 0.0 and total = ref 0.0 in
      List.iter
        (fun u ->
          let t, () = time_once (fun () -> MonFl.apply_update_exn eager u) in
          LazyFl.apply_update_exn lazy_ u;
          total := !total +. t;
          if t > !max_upd then max_upd := t)
        updates;
      let t_fin, _ = time_once (fun () -> MonFl.finalize eager) in
      let t_lazy, _ = timed ~reps:1 (fun () -> LazyFl.answer lazy_) in
      row "%8d %8d %16.4f %19.2f %15.4f\n" n (List.length updates) (!total +. t_fin)
        (!max_upd *. 1e6) t_lazy)
    [ 64; 128; 256 ];
  row "paper (Sec. 3): lazy pays the whole sweep at answer time; eager spreads the same work\n";
  row "across updates -- compare 'eager max/upd' against 'lazy final'\n"

(* ------------------------------------------------------------------ *)
(* A1: Lemma 9's deletable leftist heap vs a plain binary heap         *)
(* ------------------------------------------------------------------ *)

let a1 () =
  header "A1" "Lemma 9 ablation: deletable leftist heap vs binary heap with stale events";
  (* Simulated sweep pattern: N pending events; repeatedly pop the minimum,
     invalidate two random pending events (an adjacency change), insert two
     fresh ones.  The leftist heap deletes by handle; the binary heap keeps
     stale entries and filters them on pop. *)
  let simulate_lh n rounds =
    let st = Random.State.make [| n |] in
    let t = LH.create ~cmp:Float.compare in
    let handles = Array.init n (fun i -> LH.insert t (Random.State.float st 1000.0) i) in
    for _ = 1 to rounds do
      (match LH.pop_min t with Some _ -> () | None -> ());
      for _ = 1 to 2 do
        let i = Random.State.int st n in
        LH.delete t handles.(i);
        handles.(i) <- LH.insert t (Random.State.float st 1000.0) i
      done
    done;
    LH.length t
  in
  let simulate_bh n rounds =
    let st = Random.State.make [| n |] in
    let t = BH.create ~cmp:Float.compare in
    let version = Array.make n 0 in
    for i = 0 to n - 1 do
      BH.insert t (Random.State.float st 1000.0) (i, 0)
    done;
    let max_len = ref 0 in
    for _ = 1 to rounds do
      let rec pop () =
        match BH.pop_min t with
        | Some (_, (i, v)) when version.(i) = v -> ()
        | Some _ -> pop () (* stale entry: filter and retry *)
        | None -> ()
      in
      pop ();
      for _ = 1 to 2 do
        let i = Random.State.int st n in
        version.(i) <- version.(i) + 1;
        BH.insert t (Random.State.float st 1000.0) (i, version.(i))
      done;
      if BH.length t > !max_len then max_len := BH.length t
    done;
    !max_len
  in
  row "%8s %8s %14s %14s %17s\n" "N" "rounds" "leftist (s)" "binheap (s)" "binheap max len";
  List.iter
    (fun n ->
      let rounds = 20 * n in
      let t_lh, final_lh = timed (fun () -> simulate_lh n rounds) in
      let t_bh, max_bh = timed (fun () -> simulate_bh n rounds) in
      row "%8d %8d %14.4f %14.4f %17d   (leftist stays at %d)\n" n rounds t_lh t_bh max_bh
        final_lh)
    [ 256; 1024; 4096 ];
  row "paper (Lemma 9): handle deletion keeps the queue at <= N events; the plain heap\n";
  row "accumulates stale entries and re-filters them on every pop\n"

(* ------------------------------------------------------------------ *)
(* A3: filtered exact backend vs plain exact backend                   *)
(* ------------------------------------------------------------------ *)

(* Bit-identical output is the whole point of the filter: compare the two
   timelines piece by piece with exact algebraic comparison. *)
let timelines_identical (tx : KnnX.TL.t) (tf : KnnFl.TL.t) =
  List.length tx = List.length tf
  && List.for_all2
       (fun px pf ->
         match px, pf with
         | KnnX.TL.Span (a, b, s), KnnFl.TL.Span (a', b', s') ->
           A.compare a (BFl.to_algnum a') = 0
           && A.compare b (BFl.to_algnum b') = 0
           && Oid.Set.equal s s'
         | KnnX.TL.At (a, s), KnnFl.TL.At (a', s') ->
           A.compare a (BFl.to_algnum a') = 0 && Oid.Set.equal s s'
         | _ -> false)
       tx tf

let a3 () =
  header "A3" "Filtered exact backend: float-interval fast path, rational fallback";
  row "%8s %8s %12s %14s %10s %10s %10s\n" "N" "m" "exact (s)" "filtered (s)" "speedup"
    "hit rate" "identical";
  let final_speedup = ref 0.0 and final_hit_rate = ref 0.0 and final_misses = ref 0.0 in
  let final_searches = ref 0.0 in
  List.iter
    (fun n ->
      bench_n := max !bench_n n;
      bench_seed := n;
      let db = Gen.inversions_db ~seed:n ~n ~inversions:(2 * n) ~horizon:(q 1000) in
      let gdist = Gdist.coordinate 0 in
      let t_x, rx = timed ~reps:1 (fun () -> KnnX.run ~db ~gdist ~k:2 ~lo:(q 0) ~hi:(q 1000)) in
      BFl.reset_filter_stats ();
      let t_f, rf = timed (fun () -> KnnFl.run ~db ~gdist ~k:2 ~lo:(q 0) ~hi:(q 1000)) in
      let s = BFl.filter_stats () in
      let hit_rate = float_of_int s.BFl.hits /. float_of_int (max 1 s.BFl.decisions) in
      let same = timelines_identical rx.KnnX.timeline rf.KnnFl.timeline in
      if not same then failwith (Printf.sprintf "A3: filtered timeline diverged at N = %d" n);
      BFl.publish !bench_sink;
      if n = 1000 then begin
        final_speedup := t_x /. t_f;
        final_hit_rate := hit_rate;
        final_misses :=
          float_of_int s.BFl.misses /. float_of_int (max 1 rf.KnnFl.stats.KnnFl.E.comparisons);
        let st = rf.KnnFl.stats in
        final_searches :=
          float_of_int st.KnnFl.E.searches
          /. float_of_int
               (max 1 (st.KnnFl.E.crossings + st.KnnFl.E.births + st.KnnFl.E.deaths + st.KnnFl.E.jumps))
      end;
      row "%8d %8d %12.4f %14.4f %9.1fx %9.1f%% %10b\n" n rx.KnnX.stats.KnnX.E.swaps t_x t_f
        (t_x /. t_f) (100.0 *. hit_rate) same)
    [ 128; 256; 512; 1000 ];
  bench_extras :=
    [ ("backend", Json.Str "filtered");
      ("filter_hit_rate", Json.Float !final_hit_rate);
      ("filter_misses_per_comparison", Json.Float !final_misses);
      ("searches_per_event", Json.Float !final_searches);
      ("speedup_vs_exact", Json.Float !final_speedup);
    ];
  row "the filter answers sign and ordering queries from outward-rounded float intervals\n";
  row "and falls back to exact Sturm/algebraic arithmetic only when an interval straddles\n";
  row "the decision boundary -- output must stay bit-identical to the exact backend\n"

(* ------------------------------------------------------------------ *)
(* R1: durable store -- WAL ingest and crash-recovery throughput       *)
(* ------------------------------------------------------------------ *)

module DStore = Moq_durable.Store

(* An experiment's scratch directory [moq_bench_<name>_<pid>], emptied if a
   previous run left files in it; and its removal. *)
let clear_dir d =
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)

let fresh_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "moq_bench_%s_%d" name (Unix.getpid ()))
  in
  clear_dir d;
  d

let rm_dir d =
  clear_dir d;
  try Unix.rmdir d with Unix.Unix_error _ -> ()

let r1 () =
  header "R1" "Durable store: WAL ingest and crash-recovery throughput (fsync off)";
  let dir = fresh_dir "r1" in
  row "%8s %8s %16s %20s %10s\n" "N" "updates" "ingest (us/upd)" "recover (us/replay)" "replayed";
  List.iter
    (fun n ->
      bench_n := max !bench_n n;
      bench_seed := n;
      let db = Gen.uniform_db ~seed:n ~n () in
      let count = 2000 in
      let us =
        Gen.mixed_stream ~seed:(n + 1) ~db ~start:(q 0) ~gap:(Q.of_string "1/8") ~count ()
      in
      let t_ingest, store =
        time_once (fun () ->
            let store =
              DStore.init ~fsync:false ~checkpoint_every:512 ~sink:!bench_sink ~dir db
            in
            List.iter (fun u -> ignore (DStore.append store u)) us;
            store)
      in
      DStore.close store;
      let t_rec, r =
        timed (fun () ->
            match DStore.recover_obs ~sink:!bench_sink ~dir with
            | Ok r -> r
            | Error e -> failwith e)
      in
      row "%8d %8d %16.2f %20.2f %10d\n" n count
        (t_ingest /. float_of_int count *. 1e6)
        (t_rec /. float_of_int (max 1 r.DStore.replayed) *. 1e6)
        r.DStore.replayed)
    [ 64; 256; 1024 ];
  rm_dir dir;
  row "replay re-validates every record (CRC + Mobdb.apply); the checkpoint cadence bounds\n";
  row "how much log a crash can leave -- recovery cost tracks records since the snapshot\n"

(* ------------------------------------------------------------------ *)
(* S1: moq serve under load -- concurrent sessions, live subscription  *)
(* streams, abrupt kill + recovery                                     *)
(* ------------------------------------------------------------------ *)

module Server = Moq_server.Server
module SClient = Moq_server.Client
module Proto = Moq_proto.Proto
module IO = Moq_mod.Mod_io

(* Walk one subscription's event stream: sequence numbers must tile
   [0, expected) with EVENT frames and EVENT-DROPPED markers -- any
   uncovered gap counts as lost, any re-covered number as duplicated. *)
let account_events evs =
  let expected = ref 0 and pushed = ref 0 and dropped = ref 0 in
  let lost = ref 0 and dup = ref 0 in
  List.iter
    (fun ev ->
      let arrive ~first ~next ~count counter =
        if first > !expected then lost := !lost + (first - !expected)
        else if first < !expected then dup := !dup + (!expected - first);
        expected := next;
        counter := !counter + count
      in
      match ev with
      | Proto.E_pieces { first_seq; pieces; _ } ->
        let c = List.length pieces in
        arrive ~first:first_seq ~next:(first_seq + c) ~count:c pushed
      | Proto.E_dropped { from_seq; to_seq; _ } ->
        arrive ~first:from_seq ~next:(to_seq + 1) ~count:(to_seq - from_seq + 1) dropped
      | _ -> ())
    evs;
  (!pushed, !dropped, !lost, !dup)

let quantile sorted p =
  if Array.length sorted = 0 then 0.0
  else sorted.(min (Array.length sorted - 1) (int_of_float (p *. float_of_int (Array.length sorted))))

(* The server fixture of s1, s2, o1 and o2.  [server_cfg] is a loopback
   server on an ephemeral port over [dir], seeded with [init_db], without
   fsync or idle timeout; experiments override further fields with
   [with]. *)
let server_cfg ~dir ~init_db =
  { (Server.default_config ~listen:(Server.Tcp ("127.0.0.1", 0)) ~store_dir:dir) with
    Server.init_db = Some init_db; fsync = false; idle_timeout = 0. }

let start_server ?registry what cfg =
  match Server.start ?registry cfg with Ok s -> s | Error e -> failwith (what ^ ": " ^ e)

(* Connect and HELLO, retrying every 50 ms until [deadline]: a node just
   spawned, or a follower still bootstrapping, may not answer yet. *)
let connect_ready ?(deadline = 20.) what addr =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match SClient.connect ~connect_timeout:1. addr with
    | Ok c ->
      (match SClient.hello c with
       | Ok (Proto.R_hello _) -> c
       | Ok _ | Error _ ->
         SClient.close c;
         retry ())
    | Error _ -> retry ()
  and retry () =
    if Unix.gettimeofday () -. t0 > deadline then failwith (what ^ " not ready")
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let subscribe_range what c ~radius ~hi =
  match
    SClient.request c
      (Proto.Subscribe { kind = Proto.Sub_range (q radius); lo = q 0; hi = q hi })
  with
  | Ok (Proto.R_subscribe _) -> ()
  | Ok _ | Error _ -> failwith (what ^ ": subscribe failed")

(* A chdir of object 1..n to a velocity in [-6, 6]^2.  The draws go oid,
   then vy, then vx: the order every committed baseline was made with. *)
let random_chdir st ~n ~tau =
  let oid = 1 + Random.State.int st n in
  let vy = Random.State.int st 13 - 6 in
  let vx = Random.State.int st 13 - 6 in
  U.Chdir { oid; tau; a = Qvec.of_list [ q vx; q vy ] }

(* false when the server rejects or quarantines [u]; a wire error fails *)
let update_accepted ?(attrs = Proto.no_attrs) what c u =
  match SClient.request_attrs c attrs (Proto.Update u) with
  | Ok (Proto.R_update Proto.V_accepted) -> true
  | Ok (Proto.R_update (Proto.V_rejected _ | Proto.V_quarantined _)) -> false
  | Ok _ | Error _ -> failwith (what ^ ": update failed")

(* p50 and p99, in ms, of latency samples in seconds *)
let p50_p99 samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  (quantile sorted 0.5 *. 1e3, quantile sorted 0.99 *. 1e3)

(* One discarded warmup run (page cache, allocator growth), then [reps]
   runs per mode interleaved off, on, off, on, ... so slow drift in the
   host's load hits both modes equally.  Returns (off runs, on runs). *)
let interleaved ~reps run_mode =
  ignore (run_mode false 99);
  let runs =
    List.init (2 * reps) (fun i -> (i mod 2 = 1, run_mode (i mod 2 = 1) (i / 2)))
  in
  let mode on = List.filter_map (fun (o, r) -> if o = on then Some r else None) runs in
  (mode false, mode true)

(* One throughput over runs of [updates] each: total updates over total
   wall, where run i took updates / rps_i.  The max or median of a
   handful of short runs is itself a noisy statistic. *)
let pooled_rps ~updates rpss =
  let wall = List.fold_left (fun acc rps -> acc +. (float_of_int updates /. rps)) 0. rpss in
  float_of_int (List.length rpss * updates) /. wall

let s1 () =
  header "S1" "moq serve: 32 concurrent sessions, live subscriptions, kill + recover";
  let connections = 32 and n = 12 and updates_per_client = 10 in
  bench_n := n;
  bench_seed := 7;
  let dir = fresh_dir "s1" in
  let db = Gen.uniform_db ~seed:7 ~n ~extent:100 ~speed:6 () in
  let hi = connections * updates_per_client + 20 in
  let srv =
    start_server ~registry:!bench_reg "s1"
      { (server_cfg ~dir ~init_db:db) with Server.max_sessions = connections + 4 }
  in
  let addr = Server.bound_addr srv in
  (* every session opens one range subscription it holds for the whole run *)
  let clients =
    Array.init connections (fun i ->
        let what = Printf.sprintf "s1 session %d" i in
        let c = connect_ready what addr in
        subscribe_range what c ~radius:10000 ~hi;
        c)
  in
  (* chronological discipline over concurrent writers: a shared counter
     hands out strictly increasing taus; arrival races turn into counted
     stale rejects, never corruption *)
  let tau_m = Mutex.create () in
  let tau = ref 0 in
  let next_tau () =
    Mutex.lock tau_m;
    incr tau;
    let v = !tau in
    Mutex.unlock tau_m;
    q v
  in
  let accepted = ref 0 and stale = ref 0 in
  let acc_m = Mutex.create () in
  let latencies = Array.make (connections * updates_per_client) 0.0 in
  let t0 = Unix.gettimeofday () in
  let worker i =
    let c = clients.(i) in
    let st = Random.State.make [| 1000 + i |] in
    for j = 0 to updates_per_client - 1 do
      let u = random_chdir st ~n ~tau:(next_tau ()) in
      let t0 = Unix.gettimeofday () in
      let ok = update_accepted "s1" c u in
      latencies.(i * updates_per_client + j) <- Unix.gettimeofday () -. t0;
      Mutex.lock acc_m;
      incr (if ok then accepted else stale);
      Mutex.unlock acc_m
    done
  in
  let threads = Array.init connections (fun i -> Thread.create worker i) in
  Array.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  (* a PING after the last global update queues behind every pushed event,
     so its PONG means each session's stream is fully delivered *)
  let pushed = ref 0 and dropped = ref 0 and lost = ref 0 and dup = ref 0 in
  Array.iter
    (fun c ->
      (match SClient.request c Proto.Ping with
       | Ok (Proto.R_pong _) -> ()
       | Ok _ | Error _ -> failwith "s1: final ping failed");
      let p, d, l, u = account_events (SClient.drain_events c) in
      pushed := !pushed + p;
      dropped := !dropped + d;
      lost := !lost + l;
      dup := !dup + u)
    clients;
  if !lost > 0 || !dup > 0 then
    failwith (Printf.sprintf "s1: %d lost / %d duplicated subscription events" !lost !dup);
  (* abrupt kill: snapshot the served MOD, crash without checkpointing,
     recover from WAL -- database, clock and an exact k-NN sweep over the
     recovered MOD must be bit-identical *)
  let pre_db = Server.db_snapshot srv in
  let pre = IO.db_to_string pre_db in
  let pre_clock = Server.clock srv in
  let knn_timeline db =
    let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
    let r = KnnX.run ~db ~gdist:(Gdist.euclidean_sq ~gamma) ~k:2 ~lo:(q 0) ~hi:(q 20) in
    Format.asprintf "%a" KnnX.TL.pp r.KnnX.timeline
  in
  let knn_pre = knn_timeline pre_db in
  Server.crash srv;
  Array.iter SClient.close clients;
  let r = match DStore.recover ~dir with Ok r -> r | Error e -> failwith e in
  let identical =
    String.equal pre (IO.db_to_string r.DStore.db)
    && Q.compare pre_clock r.DStore.clock = 0
    && String.equal knn_pre (knn_timeline r.DStore.db)
  in
  if not identical then failwith "s1: recovered MOD diverged from the served one";
  rm_dir dir;
  let requests = connections * updates_per_client in
  let rps = float_of_int requests /. wall in
  let p50, p99 = p50_p99 latencies in
  row "%12s %9s %9s %9s %10s %8s %8s %6s\n" "connections" "rps" "p50(ms)" "p99(ms)"
    "accepted" "stale" "pushed" "drop";
  row "%12d %9.0f %9.2f %9.2f %10d %8d %8d %6d\n" connections rps p50 p99 !accepted
    !stale !pushed !dropped;
  row "all %d sessions: sequence numbers tile with no loss or duplication;\n" connections;
  row "kill -9 equivalent + WAL recovery reproduced the served MOD bit-identically\n";
  bench_extras :=
    [ ("connections", Json.Int connections);
      ("rps", Json.Float rps);
      ("p50_ms", Json.Float p50);
      ("p99_ms", Json.Float p99);
      ("pushed_events", Json.Int !pushed);
      ("dropped", Json.Int !dropped);
      ("recover_identical", Json.Bool identical);
    ]

(* ------------------------------------------------------------------ *)
(* S2: replication under chaos -- 1 primary + R followers, each behind  *)
(* its own seeded chaos proxy; aggregate query throughput must scale    *)
(* with R while the primary's update latency holds and every digest     *)
(* audit matches (zero divergence)                                      *)
(* ------------------------------------------------------------------ *)

module Chaos = Moq_chaos.Chaos

let s2 () =
  header "S2" "replication: 1 primary + R followers under chaos, query scaling";
  let n = 24 and updates = 48 in
  let base_seed =
    match Sys.getenv_opt "MOQ_FAULT_SEEDS" with
    | None | Some "" -> 40
    | Some s ->
      let seeds =
        List.map
          (fun w ->
            match int_of_string_opt (String.trim w) with
            | Some seed -> seed
            | None ->
              failwith (Printf.sprintf "s2: MOQ_FAULT_SEEDS=%S: %S is not an integer" s w))
          (String.split_on_char ',' s)
      in
      List.hd seeds
  in
  bench_n := n;
  bench_seed := base_seed;
  let wait_until ?(deadline = 30.) what pred =
    let t0 = Unix.gettimeofday () in
    let rec go () =
      if pred () then ()
      else if Unix.gettimeofday () -. t0 > deadline then
        failwith (Printf.sprintf "s2: timed out waiting for %s" what)
      else begin
        Thread.delay 0.02;
        go ()
      end
    in
    go ()
  in
  (* a port the chaos proxy will bind a moment after the follower that
     dials it has been spawned (the follower's replication loop retries) *)
  let reserve_port () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let p = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
    Unix.close fd;
    p
  in
  (* Each server node runs in its own forked process -- the deployment
     shape, and on a small box the only honest measurement: in-process
     "nodes" would share one OCaml runtime lock and the bench would
     measure its own interference.  The parent stays a pure wire client. *)
  let spawn_server cfg =
    flush stdout;
    flush stderr;
    let rp, wp = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      (try
         Unix.close rp;
         let srv = start_server "s2 child" cfg in
         let port =
           match Server.bound_addr srv with
           | Server.Tcp (_, p) -> p
           | Server.Unix_sock _ -> 0
         in
         let oc = Unix.out_channel_of_descr wp in
         Printf.fprintf oc "%d\n%!" port;
         Server.run srv;
         Stdlib.exit 0
       with e ->
         prerr_endline (Printexc.to_string e);
         Stdlib.exit 1)
    | pid ->
      Unix.close wp;
      let ic = Unix.in_channel_of_descr rp in
      let port =
        match input_line ic with
        | line -> int_of_string (String.trim line)
        | exception End_of_file -> failwith "s2: server child failed to start"
      in
      close_in ic;
      (pid, Server.Tcp ("127.0.0.1", port))
  in
  let kill_server pid =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  (* counters over the wire: the prometheus exposition is `name value` *)
  let counter_of_stats body name =
    let prefix = name ^ " " in
    let plen = String.length prefix in
    List.fold_left
      (fun acc line ->
        if String.length line > plen && String.equal (String.sub line 0 plen) prefix
        then
          match int_of_string_opt (String.sub line plen (String.length line - plen)) with
          | Some v -> v
          | None -> acc
        else acc)
      0
      (String.split_on_char '\n' body)
  in
  let wire_counter c name =
    match SClient.request c (Proto.Stats `Prometheus) with
    | Ok (Proto.R_stats body) -> counter_of_stats body name
    | Ok _ | Error _ -> failwith "s2: stats request failed"
  in
  let wire_clock c =
    match SClient.request c Proto.Ping with
    | Ok (Proto.R_pong { clock }) -> clock
    | Ok _ | Error _ -> failwith "s2: ping failed"
  in
  (* (followers, agg qps, update p50 ms, update p99 ms, divergence) *)
  let results = ref [] in
  row "%9s %14s %12s %12s %11s %6s %7s %6s\n" "followers" "agg_query_rps"
    "upd_p50(ms)" "upd_p99(ms)" "divergence" "tears" "audits" "aerr";
  List.iter
    (fun r ->
      let db = Gen.uniform_db ~seed:11 ~n ~extent:100 ~speed:6 () in
      let pdir = fresh_dir (Printf.sprintf "s2_p%d" r) in
      let fdirs = List.init r (fun i -> fresh_dir (Printf.sprintf "s2_f%d_%d" r i)) in
      let proxy_ports = List.init r (fun _ -> reserve_port ()) in
      (* children first (the parent is still single-threaded: forking with
         live proxy threads could leave the child a locked runtime) *)
      let ppid, paddr =
        spawn_server
          { (server_cfg ~dir:pdir ~init_db:db) with
            Server.repl_digest_every = 8; max_sessions = 16 + (2 * r) }
      in
      let fpids, faddrs =
        List.split
          (List.map2
             (fun dir pport ->
               spawn_server
                 { (server_cfg ~dir ~init_db:(DB.empty ~dim:2 ~tau:(q 0))) with
                   Server.follow = Some (Server.Tcp ("127.0.0.1", pport)) })
             fdirs proxy_ports)
      in
      (* now the repl links: one seeded chaos proxy per follower *)
      let upstream = Server.sockaddr_of paddr in
      let proxies =
        List.mapi
          (fun i port ->
            Chaos.start ~profile:Chaos.flaky ~port ~seed:(base_seed + (10 * r) + i)
              ~upstream ())
          proxy_ports
      in
      SClient.close (connect_ready "s2 primary" paddr);
      List.iter (fun a -> SClient.close (connect_ready "s2 follower" a)) faddrs;
      let latencies = Array.make updates 0.0 in
      let stop = ref false in
      let writer () =
        let wc = connect_ready "s2 writer" paddr in
        let st = Random.State.make [| 77 |] in
        for j = 0 to updates - 1 do
          (* taus start at 2: the queried window [0,1] stays untouched, so
             query cost is constant across the run *)
          let u = random_chdir st ~n ~tau:(q (j + 2)) in
          let t0 = Unix.gettimeofday () in
          if not (update_accepted "s2" wc u) then failwith "s2: update rejected";
          latencies.(j) <- Unix.gettimeofday () -. t0;
          Thread.delay 0.002
        done;
        SClient.close wc
      in
      (* one paced query client per serving node -- clients connect
         DIRECTLY to each server; only the replication links see chaos *)
      let addrs = paddr :: faddrs in
      let counts = Array.make (List.length addrs) 0 in
      let query_worker i addr =
        let c = connect_ready "s2 query node" addr in
        while not !stop do
          (match
             SClient.request c
               (Proto.Query { kind = Proto.Qk_knn 1; lo = q 0; hi = q 1 })
           with
           | Ok (Proto.R_query _) -> counts.(i) <- counts.(i) + 1
           | Ok _ | Error _ -> stop := true);
          Thread.delay 0.004
        done;
        SClient.close c
      in
      let wth = Thread.create writer () in
      let t0 = Unix.gettimeofday () in
      let qths =
        List.mapi (fun i a -> Thread.create (fun () -> query_worker i a) ()) addrs
      in
      Thread.join wth;
      (* hold the query window at >= 1s so rps is comparable across R *)
      let elapsed = Unix.gettimeofday () -. t0 in
      if elapsed < 1.0 then Thread.delay (1.0 -. elapsed);
      let window = Unix.gettimeofday () -. t0 in
      stop := true;
      List.iter Thread.join qths;
      (* convergence: every follower reaches the primary's exact clock, and
         its digest audits (byte-compares of the serialized MOD against the
         primary's shipped CRC) all matched *)
      let pc = connect_ready "s2 primary audit" paddr in
      let pclock = wire_clock pc in
      SClient.close pc;
      let divergence = ref 0 and audits = ref 0 and apply_errors = ref 0 in
      List.iter
        (fun a ->
          let fc = connect_ready "s2 follower audit" a in
          wait_until "follower convergence" (fun () ->
              Q.compare (wire_clock fc) pclock = 0);
          wait_until "a digest audit" (fun () ->
              wire_counter fc "moq_repl_digest_checks_total" >= 1);
          audits := !audits + wire_counter fc "moq_repl_digest_checks_total";
          divergence := !divergence + wire_counter fc "moq_repl_divergence_total";
          apply_errors := !apply_errors + wire_counter fc "moq_repl_apply_errors_total";
          SClient.close fc)
        faddrs;
      let tears =
        List.fold_left (fun acc p -> acc + (Chaos.stats p).Chaos.tears) 0 proxies
      in
      let total_queries = Array.fold_left ( + ) 0 counts in
      let qps = float_of_int total_queries /. window in
      let p50, p99 = p50_p99 latencies in
      row "%9d %14.0f %12.2f %12.2f %11d %6d %7d %6d\n" r qps p50 p99 !divergence
        tears !audits !apply_errors;
      results := (r, qps, p50, p99, !divergence) :: !results;
      List.iter kill_server fpids;
      kill_server ppid;
      List.iter Chaos.stop proxies;
      List.iter rm_dir fdirs;
      rm_dir pdir)
    [ 0; 1; 2 ];
  let results = List.rev !results in
  let (max_r, qps_max, _, p99_max, _) =
    List.fold_left
      (fun ((ar, _, _, _, _) as acc) ((r, _, _, _, _) as cand) ->
        if r > ar then cand else acc)
      (List.hd results) results
  in
  let divergence_detected = List.exists (fun (_, _, _, _, d) -> d > 0) results in
  let base_qps = match results with (0, v, _, _, _) :: _ -> v | _ -> 0. in
  row "aggregate query throughput grows with read replicas (%.0f -> %.0f rps);\n"
    base_qps qps_max;
  row "the primary's update path never waits on a replica (commit shipping is\n";
  row "asynchronous), and every digest audit over the chaos links matched\n";
  bench_extras :=
    [ ("followers", Json.Int max_r);
      ("agg_query_rps", Json.Float qps_max);
      ("primary_p99_ms", Json.Float p99_max);
      ("divergence_detected", Json.Bool divergence_detected);
    ]

(* ------------------------------------------------------------------ *)
(* O1: observability -- tracing overhead, end-to-end delivery latency  *)
(* and replication freshness.  One primary + one follower + one        *)
(* subscribed client, in-process; the writer pushes updates with and   *)
(* without trace propagation, and the traced runs also measure the     *)
(* paper's Definition 4 instant: how long after an update commits do   *)
(* its newly-valid pieces reach a subscriber.                          *)
(* ------------------------------------------------------------------ *)

module Tr = Moq_obs.Trace

let o1 () =
  header "O1" "observability: tracing overhead, e2e delivery latency, repl lag";
  (* best-of-5 per mode: the workload is round-trip bound, so the max over
     reps converges to the same ceiling for both modes and the overhead
     estimate stops being scheduler noise *)
  let n = 16 and updates = 400 and reps = 5 in
  bench_n := n;
  bench_seed := 5;
  let wait_until ?(deadline = 30.) what pred =
    let t0 = Unix.gettimeofday () in
    while (not (pred ())) && Unix.gettimeofday () -. t0 < deadline do
      Thread.delay 0.005
    done;
    if not (pred ()) then failwith (Printf.sprintf "o1: timed out waiting for %s" what)
  in
  let flag v = List.assoc_opt "moq_repl_lag_updates" (Registry.flatten v) in
  (* One rep: fresh primary + follower + subscribed client; returns
     (rps, e2e samples [traced runs only], lag gauge samples, final lag). *)
  let run_mode trace rep =
    let tag = Printf.sprintf "%s%d" (if trace then "on" else "off") rep in
    let pdir = fresh_dir ("o1_p" ^ tag) and fdir = fresh_dir ("o1_f" ^ tag) in
    let db = Gen.uniform_db ~seed:5 ~n ~extent:100 ~speed:6 () in
    (* traced runs land their counters in the bench registry, so the
       stage histograms ship inside BENCH_o1.json *)
    let primary =
      start_server "o1 primary"
        ~registry:(if trace then !bench_reg else Registry.create ())
        { (server_cfg ~dir:pdir ~init_db:db) with Server.trace }
    in
    let freg = Registry.create () in
    let follower =
      start_server "o1 follower" ~registry:freg
        { (server_cfg ~dir:fdir ~init_db:(DB.empty ~dim:2 ~tau:(q 0))) with
          Server.follow = Some (Server.bound_addr primary); trace }
    in
    wait_until "replication link" (fun () -> Server.repl_connected follower);
    let sc = connect_ready "o1 subscriber" (Server.bound_addr follower) in
    subscribe_range "o1" sc ~radius:100000 ~hi:(updates + 50);
    let wc = connect_ready "o1 writer" (Server.bound_addr primary) in
    let send_m = Mutex.create () in
    let send_times : (int, float) Hashtbl.t = Hashtbl.create 512 in
    let e2e = ref [] in
    let stop_sub = ref false in
    let sub_thread =
      Thread.create
        (fun () ->
          while not !stop_sub do
            match SClient.next_event_full ~timeout:0.05 sc with
            | Some (_, attrs, _) ->
              (match attrs.Proto.a_trace with
               | Some (tid, _) ->
                 let now = Unix.gettimeofday () in
                 Mutex.lock send_m;
                 (match Hashtbl.find_opt send_times tid with
                  | Some t0 ->
                    (* first delivered event per traced update *)
                    Hashtbl.remove send_times tid;
                    e2e := (now -. t0) :: !e2e
                  | None -> ());
                 Mutex.unlock send_m
               | None -> ())
            | None -> ()
          done)
        ()
    in
    let lag_samples = ref [] in
    let stop_lag = ref false in
    let lag_thread =
      Thread.create
        (fun () ->
          while not !stop_lag do
            (match flag freg with
             | Some v -> lag_samples := v :: !lag_samples
             | None -> ());
            Thread.delay 0.005
          done)
        ()
    in
    let st = Random.State.make [| 99; rep |] in
    let t0 = Unix.gettimeofday () in
    for j = 0 to updates - 1 do
      let u = random_chdir st ~n ~tau:(q (j + 2)) in
      let attrs =
        if trace then begin
          let ctx = Tr.new_ctx () in
          Mutex.lock send_m;
          Hashtbl.replace send_times ctx.Tr.trace_id (Unix.gettimeofday ());
          Mutex.unlock send_m;
          { Proto.no_attrs with
            Proto.a_trace = Some (ctx.Tr.trace_id, ctx.Tr.span_id) }
        end
        else Proto.no_attrs
      in
      if not (update_accepted ~attrs "o1" wc u) then failwith "o1: update rejected"
    done;
    let wall = Unix.gettimeofday () -. t0 in
    (* freshness: the follower catches all the way up, and its lag gauge
       returns to zero *)
    wait_until "follower convergence" (fun () ->
        Q.compare (Server.clock follower) (Server.clock primary) = 0);
    wait_until "lag back to zero" (fun () ->
        match flag freg with Some v -> v = 0. | None -> false);
    Thread.delay 0.2;
    stop_sub := true;
    stop_lag := true;
    Thread.join sub_thread;
    Thread.join lag_thread;
    let final_lag = match flag freg with Some v -> v | None -> nan in
    ignore (SClient.request wc Proto.Bye);
    ignore (SClient.request sc Proto.Bye);
    SClient.close wc;
    SClient.close sc;
    Server.stop follower;
    Server.stop primary;
    rm_dir pdir;
    rm_dir fdir;
    (float_of_int updates /. wall, !e2e, !lag_samples, final_lag)
  in
  let off, on = interleaved ~reps run_mode in
  let rps_of runs = pooled_rps ~updates (List.map (fun (rps, _, _, _) -> rps) runs) in
  let rps_off = rps_of off and rps_on = rps_of on in
  let e2e = List.concat_map (fun (_, e, _, _) -> e) on in
  let lags = Array.of_list (List.concat_map (fun (_, _, l, _) -> l) on) in
  let final_lag = match List.rev on with (_, _, _, f) :: _ -> f | [] -> nan in
  let overhead = 100. *. (rps_off -. rps_on) /. rps_off in
  let e2e_p50, e2e_p99 = p50_p99 (Array.of_list e2e) in
  Array.sort compare lags;
  let lag_p99 = quantile lags 0.99 in
  row "%10s %12s %12s\n" "tracing" "updates" "pooled rps";
  row "%10s %12d %12.0f\n" "off" updates rps_off;
  row "%10s %12d %12.0f\n" "on" updates rps_on;
  row "trace overhead %.1f%% (pooled over %d interleaved runs per mode)\n"
    overhead reps;
  row "e2e delivery (update send -> subscriber pull, via the follower):\n";
  row "  %d samples, p50 %.2f ms, p99 %.2f ms\n" (List.length e2e) e2e_p50 e2e_p99;
  row "follower repl lag: p99 %.0f updates over the run, %.0f after catch-up\n"
    lag_p99 final_lag;
  if e2e = [] then failwith "o1: no traced events were delivered";
  bench_extras :=
    [ ("trace_overhead_pct", Json.Float overhead);
      ("rps_trace_off", Json.Float rps_off);
      ("rps_trace_on", Json.Float rps_on);
      ("e2e_p50_ms", Json.Float e2e_p50);
      ("e2e_p99_ms", Json.Float e2e_p99);
      ("e2e_samples", Json.Int (List.length e2e));
      ("repl_lag_p99", Json.Float lag_p99);
      ("final_lag_updates", Json.Float final_lag);
    ]

(* ------------------------------------------------------------------ *)
(* O2: query-level observability -- explain + flight-recorder + cost-  *)
(* accounting overhead (o1's pooled interleaved methodology, obs        *)
(* machinery off vs on), and hot-object attribution coverage on a       *)
(* skewed workload (a few movers soak up nearly all sweep comparisons). *)
(* ------------------------------------------------------------------ *)

module MonX = Moq_core.Monitor.Make (BX)
module Explain = Moq_core.Explain
module Recorder = Moq_obs.Recorder

let o2 () =
  header "O2" "observability: explain/flight-recorder overhead, hot-object coverage";
  (* the epsilon slow-query threshold makes nearly every step a capture
     (that is the point: the capture path is what we are pricing), so
     silence the resulting WARN flood for the duration of the run *)
  Moq_obs.Log.set_level Moq_obs.Log.Error;
  Fun.protect ~finally:(fun () -> Moq_obs.Log.set_level Moq_obs.Log.Info)
  @@ fun () ->
  let n = 16 and updates = 400 and reps = 5 in
  bench_n := n;
  bench_seed := 6;
  (* One rep: a primary with one subscribed client; the writer pushes
     [updates] chronological chdirs with a k-NN query every 64.  The two
     modes run the identical request sequence; only the observability
     machinery differs: [obs] on = defaults (flight recorder, per-object
     attribution, slow-query capture at an epsilon threshold so the
     capture path is actually exercised), off = all three disabled. *)
  let slowq_captured = ref 0 and flight_recorded = ref 0 in
  let run_mode obs rep =
    let dir = fresh_dir (Printf.sprintf "o2_%s%d" (if obs then "on" else "off") rep) in
    let db = Gen.uniform_db ~seed:6 ~n ~extent:100 ~speed:6 () in
    let srv =
      start_server "o2 server"
        ~registry:(if obs then !bench_reg else Registry.create ())
        { (server_cfg ~dir ~init_db:db) with
          Server.slow_query_ms = (if obs then 0.05 else 0.);
          hot_objects = obs;
          flight_capacity = (if obs then 2048 else 0) }
    in
    let sc = connect_ready "o2 subscriber" (Server.bound_addr srv) in
    subscribe_range "o2" sc ~radius:100000 ~hi:(updates + 50);
    let stop_sub = ref false in
    let sub_thread =
      Thread.create
        (fun () ->
          while not !stop_sub do
            ignore (SClient.next_event ~timeout:0.05 sc)
          done)
        ()
    in
    let wc = connect_ready "o2 writer" (Server.bound_addr srv) in
    let st = Random.State.make [| 42; rep |] in
    let t0 = Unix.gettimeofday () in
    for j = 0 to updates - 1 do
      if not (update_accepted "o2" wc (random_chdir st ~n ~tau:(q (j + 2)))) then
        failwith "o2: update rejected";
      if j mod 64 = 63 then
        match
          SClient.request wc
            (Proto.Query { kind = Proto.Qk_knn 2; lo = q 0; hi = q (updates + 50) })
        with
        | Ok (Proto.R_query _) -> ()
        | Ok _ | Error _ -> failwith "o2: query failed"
    done;
    let wall = Unix.gettimeofday () -. t0 in
    (* a STATS scrape outside the timed window publishes the hot gauges *)
    (match SClient.request wc (Proto.Stats `Json) with
     | Ok (Proto.R_stats _) -> ()
     | Ok _ | Error _ -> failwith "o2: stats failed");
    if obs then begin
      slowq_captured :=
        (match Registry.counter_value (Server.registry srv) "moq_slowq_total" with
         | Some v -> v
         | None -> 0);
      flight_recorded := Recorder.recorded (Server.recorder srv)
    end;
    stop_sub := true;
    Thread.join sub_thread;
    ignore (SClient.request wc Proto.Bye);
    ignore (SClient.request sc Proto.Bye);
    SClient.close wc;
    SClient.close sc;
    Server.stop srv;
    rm_dir dir;
    float_of_int updates /. wall
  in
  let off, on = interleaved ~reps run_mode in
  let rps_off = pooled_rps ~updates off and rps_on = pooled_rps ~updates on in
  let overhead = 100. *. (rps_off -. rps_on) /. rps_off in
  row "%14s %12s %12s\n" "observability" "updates" "pooled rps";
  row "%14s %12d %12.0f\n" "off" updates rps_off;
  row "%14s %12d %12.0f\n" "on" updates rps_on;
  row "explain/recorder/accounting overhead %.1f%% (pooled over %d runs per mode)\n"
    overhead reps;
  row "slow-query captures %d, flight-recorder events %d (last obs-on rep)\n"
    !slowq_captured !flight_recorded;
  (* Hot-object attribution coverage on a deliberately skewed workload:
     5 movers trading places near the origin, 45 stationary bystanders
     far away.  Nearly every sweep comparison belongs to a mover, so the
     top-5 must cover >= 80% of all attributed comparisons. *)
  let movers = 5 and cold = 45 and hot_updates = 200 in
  let db = ref (DB.empty ~dim:2 ~tau:(q 0)) in
  for i = 1 to movers do
    db :=
      DB.add_initial !db i
        (T.linear ~start:(q 0) ~a:(Qvec.zero 2) ~b:(Qvec.of_list [ q i; q 0 ]))
  done;
  for i = 1 to cold do
    db :=
      DB.add_initial !db (movers + i)
        (T.linear ~start:(q 0) ~a:(Qvec.zero 2)
           ~b:(Qvec.of_list [ q (1000 + (10 * i)); q 1000 ]))
  done;
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let query =
    Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q (hot_updates + 10)))
  in
  let m = MonX.create ~sink:!bench_sink ~db:!db ~gdist ~query () in
  for j = 0 to hot_updates - 1 do
    let oid = 1 + (j mod movers) in
    (* alternate aim: overtake then fall back, so the movers' distance
       curves keep crossing each other *)
    let s = if j mod 2 = 0 then 1 else -1 in
    MonX.apply_update_exn m
      (U.Chdir
         { oid; tau = q (j + 1);
           a = Qvec.of_list [ q (s * (1 + (j mod 3))); q 0 ] })
  done;
  let hot = MonX.hot_objects m in
  let report =
    Explain.make ~kind:"past" ~query:"o2 skewed nearest" ~backend:"exact"
      ~n_objects:(movers + cold) ~lo:0. ~hi:(float_of_int (hot_updates + 10))
      ~timeline_pieces:0 ~sweep:Explain.zero_sweep ~hot
      ~counters:(Registry.flatten !bench_reg) ()
  in
  let coverage = 100. *. Explain.hot_coverage report in
  let comparisons = List.fold_left (fun a h -> a + h.MonX.E.h_comparisons) 0 in
  let total_cmp = comparisons hot in
  let top5_cmp = comparisons (Explain.top_hot report) in
  row "hot-object attribution (skewed: %d movers / %d bystanders, %d updates):\n"
    movers cold hot_updates;
  List.iter
    (fun h ->
      row "  oid %-4d %7d comparisons %6d swaps\n" h.MonX.E.h_oid
        h.MonX.E.h_comparisons h.MonX.E.h_swaps)
    (Explain.top_hot report);
  row "top-5 cover %.1f%% of %d attributed comparisons\n" coverage total_cmp;
  if total_cmp = 0 then failwith "o2: no comparisons were attributed";
  bench_extras :=
    [ ("explain_overhead_pct", Json.Float overhead);
      ("rps_obs_off", Json.Float rps_off);
      ("rps_obs_on", Json.Float rps_on);
      ("hot_coverage_pct", Json.Float coverage);
      ("hot_top5_comparisons", Json.Int top5_cmp);
      ("hot_total_comparisons", Json.Int total_cmp);
      ("hot_attributed_objects", Json.Int (List.length hot));
      ("slowq_captured", Json.Int !slowq_captured);
      ("flight_recorded", Json.Int !flight_recorded);
    ]

(* ------------------------------------------------------------------ *)
(* W1: the workload subsystem — continuous POI aggregation on an
   ingested trace, incremental vs per-window rescans, plus the alibi
   query's exact-vs-filtered bit-identity over 200 paired workloads    *)
(* ------------------------------------------------------------------ *)

let w1 () =
  (* Trace → segmentation → update stream, the real ingestion path: a
     GPS-style sampled trace from Gen.trace_like is quantised into a
     piecewise-linear stream, the [New]s seed the MOD and the rest drive
     the continuous aggregation.  The incremental path (per-POI monitors,
     ring-pruned watch sets, harvest-on-window-close) is timed against
     the ground-truth baseline that sweeps the whole database once per
     POI per window; both must produce bit-identical rows. *)
  let seed = 77 and n = 16 and steps = 16 in
  bench_seed := seed;
  bench_n := n;
  let samples =
    List.map
      (fun (oid, t, pos) -> { Ingest.oid; t; pos })
      (Gen.trace_like ~seed ~n ~steps ~extent:120 ~speed:5 ())
  in
  let stream = Ingest.segment samples in
  let news, rest =
    List.partition (function U.New _ -> true | _ -> false) stream
  in
  let db =
    List.fold_left
      (fun db u ->
        match u with
        | U.New { oid; tau; a; b } ->
          DB.add_initial db oid (T.of_pieces [ { T.start = tau; a; b } ])
        | _ -> db)
      (DB.empty ~dim:2 ~tau:Q.zero)
      news
  in
  let lo = q 0 and hi = q (steps - 1) and window = q 5 and d = q 30 in
  let pois =
    List.init 4 (fun i ->
        let c = Q.div (q ((i + 1) * 120)) (q 5) in
        Qvec.of_list [ c; c ])
  in
  let run_incremental () =
    let cont =
      AggX.Cont.create ~sink:!bench_sink ~cell:32.0 ~db ~pois ~d ~window ~lo
        ~hi ()
    in
    List.iter (AggX.Cont.apply_update_exn cont) rest;
    (AggX.Cont.finalize cont, AggX.Cont.stats cont)
  in
  let t_inc, (inc_rows, st) = timed ~reps:3 run_incremental in
  let final_db = DB.apply_all_exn db rest in
  let t_scan, scan_rows =
    timed ~reps:1 (fun () -> AggX.rescan ~db:final_db ~pois ~d ~window ~lo ~hi ())
  in
  let identical = AggX.equal_rows inc_rows scan_rows in
  if not identical then
    failwith "W1: incremental rows diverged from the rescan baseline";
  let speedup = t_scan /. Float.max 1e-9 t_inc in
  row "W1: continuous aggregation, %d samples -> %d update(s), %d POI(s) x %d window(s)\n"
    (List.length samples) (List.length stream) st.Agg.pois st.Agg.windows;
  row "  incremental %.4f s, rescan %.4f s: %.1fx (gate: >= 5x, bit-identical)\n"
    t_inc t_scan speedup;
  row "  watch sets: %d admitted / %d pruned; %d update(s) offered, %d forwarded\n"
    st.Agg.admitted st.Agg.pruned st.Agg.updates st.Agg.forwarded;
  (* The alibi query: 200 paired workloads decided on both the exact and
     the float-filtered backend; verdicts and earliest-meeting witnesses
     must be bit-identical. *)
  let alibi_cases = 200 in
  let alibi_meets = ref 0 in
  let alibi_identical = ref true in
  for i = 1 to alibi_cases do
    let adb = Gen.uniform_db ~seed:(9000 + i) ~n:2 ~extent:60 ~speed:6 () in
    let find oid =
      match DB.find adb oid with Some tr -> tr | None -> assert false
    in
    let o1 = find 1 and o2 = find 2 in
    let d = q (1 + (i mod 40)) and lo = q 0 and hi = q 30 in
    let vx = AlibiX.decide ~o1 ~o2 ~d ~lo ~hi in
    let vf = AlibiFl.decide ~o1 ~o2 ~d ~lo ~hi in
    match vx, vf with
    | AlibiX.No_meet, AlibiFl.No_meet -> ()
    | AlibiX.Meet wx, AlibiFl.Meet wf ->
      incr alibi_meets;
      if A.compare wx (BFl.to_algnum wf) <> 0 then alibi_identical := false
    | AlibiX.Meet _, AlibiFl.No_meet | AlibiX.No_meet, AlibiFl.Meet _ ->
      alibi_identical := false
  done;
  if not !alibi_identical then
    failwith "W1: alibi verdicts diverged between exact and filtered";
  row "  alibi: %d/%d workloads meet; exact == filtered on all %d\n"
    !alibi_meets alibi_cases alibi_cases;
  bench_extras :=
    [ ("agg_speedup_vs_rescan", Json.Float speedup);
      ("agg_identical", Json.Bool identical);
      ("agg_rows", Json.Int (List.length inc_rows));
      ("agg_pois", Json.Int st.Agg.pois);
      ("agg_windows", Json.Int st.Agg.windows);
      ("watch_admitted", Json.Int st.Agg.admitted);
      ("watch_pruned", Json.Int st.Agg.pruned);
      ("ingest_updates", Json.Int (List.length stream));
      ("alibi_cases", Json.Int alibi_cases);
      ("alibi_meets", Json.Int !alibi_meets);
      ("alibi_identical", Json.Bool !alibi_identical);
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test per experiment id               *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let knn_f3 () =
    let o1, o2, o3, o4 = Scenario.example12_curves () in
    let eng =
      EX.create ~start:(q 0) ~horizon:(q 40)
        [ (EX.Obj (1, 0), o1); (EX.Obj (2, 0), o2); (EX.Obj (3, 0), o3); (EX.Obj (4, 0), o4) ]
    in
    EX.advance eng ~upto:(q 40) ~emit:(fun _ -> ())
  in
  let t4_sweep () =
    let db = Gen.inversions_db ~seed:1 ~n:128 ~inversions:256 ~horizon:(q 1000) in
    ignore (KnnFl.run ~db ~gdist:(Gdist.coordinate 0) ~k:2 ~lo:(q 0) ~hi:(q 1000))
  in
  let t5a_init =
    let db = Gen.uniform_db ~seed:2 ~n:256 () in
    fun () -> ignore (nearest_monitor db)
  in
  let t5b_updates =
    let db = Gen.uniform_db ~seed:3 ~n:128 () in
    let updates = Gen.chdir_stream ~seed:4 ~db ~start:(q 0) ~gap:(q 1) ~count:10 () in
    fun () ->
      let m = nearest_monitor db in
      List.iter (MonFl.apply_update_exn m) updates
  in
  let t10_chdir =
    let db = Gen.uniform_db ~seed:5 ~n:256 () in
    let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
    let gdist = Gdist.euclidean_sq ~gamma in
    let gdist' = Gdist.euclidean_sq ~gamma:(T.chdir gamma (q 10) (Qvec.of_list [ q 1; q 1 ])) in
    let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 1000)) in
    fun () ->
      let m = MonFl.create ~materialize:false ~db ~gdist ~query () in
      MonFl.chdir_query m ~tau:(q 10) ~gdist:gdist'
  in
  let b1_naive () =
    let db = Gen.inversions_db ~seed:6 ~n:32 ~inversions:64 ~horizon:(q 1000) in
    ignore (NaiveFl.knn_run ~db ~gdist:(Gdist.coordinate 0) ~k:2 ~lo:(q 0) ~hi:(q 1000))
  in
  let p1_cql () =
    let db = ref (DB.empty ~dim:2 ~tau:(q 0)) in
    for i = 1 to 16 do
      db :=
        DB.add_initial !db i
          (T.linear ~start:(q 0)
             ~a:(Qvec.of_list [ q 2; q 0 ])
             ~b:(Qvec.of_list [ q (-i); q ((i mod 7) - 3) ]))
    done;
    let region = Cql_ex.box [ (q 0, q 40); (q (-5), q 5) ] in
    ignore (Cql.answer !db (Cql_ex.entering ~region ~dim:2 ~tau1:(q 0) ~tau2:(q 30)))
  in
  let t2_reduction () =
    ignore (Reduction.is_past_up_to (Turing.busy_beaver_3 ()) ~max_steps:30)
  in
  (* Kernel layer: one exact sign test at a float-derived dyadic, one
     Filtered root certification of a quadratic (scheduled and then read
     exactly), one canonical print of an irrational instant (memo warm, as
     for the server's repeats), one Filtered crossing scheduled and never
     read (the sweep's common case), one small-rational float
     conversion.  The index layer: one grid build. *)
  let quad = QP.of_list [ Q.of_ints (-1234567) 89; Q.of_ints 311 3; Q.of_ints 5 2 ] in
  let k1_sign_at =
    let x = Q.of_float 3.7416573867739413 in
    fun () -> ignore (QP.sign_at quad x)
  in
  let before = BFl.instant_of_scalar (q 0) in
  let k2_certify () = Option.iter (fun i -> ignore (BFl.to_algnum i)) (BFl.first_root_after quad before) in
  let k3_pp =
    let x = List.nth (A.roots quad) 1 in
    fun () -> ignore (Format.asprintf "%a" A.pp x)
  in
  let k4_schedule () = ignore (BFl.first_root_after quad before) in
  let k5_to_float =
    let x = Q.of_ints (-1234567) 89 in
    fun () -> ignore (Q.to_float x)
  in
  (* Index layer: one shard-index build over scan's database shape. *)
  let k6_grid_build =
    let db = Gen.clustered_db ~seed:3 ~n:5000 () in
    fun () -> ignore (Grid.build ~cell:256.0 ~lo:(q 6) ~hi:(q 16) db)
  in
  (* Kernel layer under a sweep: one Filtered k-NN past query of the
     server's mixed-read shape -- two discs of 100 objects 10^4 apart,
     40 time units of history with a chdir every fifth of a unit, k = 8
     over a half-unit window.  k7 builds every curve (cold); k8 reads them
     through a warm curve store, as the server's repeat queries do. *)
  let k7_db, k7_gdist =
    let st = Moq_workload.Prng.create 3 in
    let heading () =
      let phi = Moq_workload.Prng.float st (2. *. Float.pi) in
      let c x = q (Float.to_int (Float.round (5. *. x))) in
      Qvec.of_list [ c (cos phi); c (sin phi) ]
    in
    let disc db ~first ~cx =
      let db = ref db in
      for j = 0 to 99 do
        let r = 200. *. (float_of_int j +. 0.5) /. 100. in
        let th = Moq_workload.Prng.float st (2. *. Float.pi) in
        let at x = Float.to_int (Float.round (r *. x)) in
        let b = Qvec.of_list [ q (cx + at (cos th)); q (at (sin th)) ] in
        db := DB.add_initial !db (first + j) (T.linear ~start:(q 0) ~a:(heading ()) ~b)
      done;
      !db
    in
    let db = disc (disc (DB.empty ~dim:2 ~tau:(q 0)) ~first:1 ~cx:0) ~first:101 ~cx:10_000 in
    let turn i = U.Chdir { oid = (i mod 200) + 1; tau = Q.of_ints (i + 1) 5; a = heading () } in
    let db = DB.apply_all_exn db (List.init 200 turn) in
    (db, Gdist.euclidean_sq ~gamma:(T.stationary ~start:(q 0) (Qvec.zero 2)))
  in
  let k7_filtered_knn_past () =
    ignore (KnnFl.run ~db:k7_db ~gdist:k7_gdist ~k:8 ~lo:(q 20) ~hi:(Q.of_ints 41 2))
  in
  let k8_knn_past_warm =
    let store = Moq_core.Curve_store.create k7_gdist in
    let run () =
      KnnFl.run_store ~sink:Sink.noop ~store ~db:k7_db ~k:8 ~lo:(q 20) ~hi:(Q.of_ints 41 2)
    in
    ignore (run ());
    fun () -> ignore (run ())
  in
  let tests =
    Test.make_grouped ~name:"moq" ~fmt:"%s:%s"
      [ Test.make ~name:"f3-example12-sweep" (Staged.stage knn_f3);
        Test.make ~name:"t4-past-knn-n128" (Staged.stage t4_sweep);
        Test.make ~name:"t5a-init-n256" (Staged.stage t5a_init);
        Test.make ~name:"t5b-10-updates-n128" (Staged.stage t5b_updates);
        Test.make ~name:"t10-chdir-query-n256" (Staged.stage t10_chdir);
        Test.make ~name:"b1-naive-knn-n32" (Staged.stage b1_naive);
        Test.make ~name:"p1-cql-entering-n16" (Staged.stage p1_cql);
        Test.make ~name:"t2-reduction-bb3" (Staged.stage t2_reduction);
        Test.make ~name:"k1-qpoly-sign-at-dyadic" (Staged.stage k1_sign_at);
        Test.make ~name:"k2-filtered-certify-quadratic" (Staged.stage k2_certify);
        Test.make ~name:"k3-algnum-pp-instant" (Staged.stage k3_pp);
        Test.make ~name:"k4-filtered-schedule-crossing" (Staged.stage k4_schedule);
        Test.make ~name:"k5-rat-to-float-small" (Staged.stage k5_to_float);
        Test.make ~name:"k6-grid-build" (Staged.stage k6_grid_build);
        Test.make ~name:"k7-filtered-knn-past" (Staged.stage k7_filtered_knn_past);
        Test.make ~name:"k8-knn-past-warm" (Staged.stage k8_knn_past_warm);
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:30 ~quota:(Time.second 0.5) ~kde:None ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n%-36s %16s\n" "benchmark" "ns/run";
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Printf.printf "%-36s %16.0f\n" name est
      | _ -> Printf.printf "%-36s %16s\n" name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* S3: sharded index-pruned sweeps -- per-event cost local, not global *)
(* ------------------------------------------------------------------ *)

(* Sharded-vs-exact bit-identity (the 200-workload property suite covers
   many more shapes; this guards the benchmark workload itself). *)
let sharded_identical (tx : KnnX.TL.t) (ts : ShF.TL.t) =
  List.length tx = List.length ts
  && List.for_all2
       (fun px ps ->
         match px, ps with
         | KnnX.TL.Span (a, b, s), ShF.TL.Span (a', b', s') ->
           A.compare a (BFl.to_algnum a') = 0
           && A.compare b (BFl.to_algnum b') = 0
           && Oid.Set.equal s s'
         | KnnX.TL.At (a, s), ShF.TL.At (a', s') ->
           A.compare a (BFl.to_algnum a') = 0 && Oid.Set.equal s s'
         | _ -> false)
       tx ts

(* Words [f] allocates: minor words (exact at every call) plus words
   allocated straight in the major heap ([Gc.counters]' major and
   promoted counts move together). *)
let allocated_words f =
  let count () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = count () in
  ignore (Sys.opaque_identity (f ()));
  count () -. w0

let s3 () =
  header "S3" "Sharded index-pruned sweep: per-event cost stays local as N grows";
  row "%8s %8s %8s %9s %8s %11s %12s %8s %11s %10s\n" "N" "shards" "touched" "admitted"
    "events" "sweep (s)" "ns/event" "prune" "build (ms)" "words/obj";
  (* Spatially-local workload: the query sits in cluster 0 at the origin;
     growing N adds distant clusters (Gen.clustered_db keeps cluster size
     fixed at ~100), so the answer-relevant activity is constant in N and
     per-event cost must stay flat once the index prunes the far shards.
     The O(N) index build is accounted separately (it is a once-per-query
     linear pass, not per-event work). *)
  let k = 8 and lo = q 0 and hi = q 20 and cell = 256.0 in
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let per_event = ref [] and build_ms = ref [] and build_words = ref [] in
  let prune_rate = ref 0.0 in
  let identical = ref false in
  let build_sum () =
    match
      List.assoc_opt "moq_shard_index_build_seconds_sum"
        (Registry.flatten !bench_reg)
    with
    | Some s -> s
    | None -> 0.0
  in
  List.iter
    (fun n ->
      bench_n := max !bench_n n;
      bench_seed := 33;
      let db = Gen.clustered_db ~seed:33 ~n () in
      (* three runs per N, and the median sweep and build times: one run's
         time on a shared host swings by more than the growth gate allows *)
      let runs =
        List.init 3 (fun _ ->
            let build0 = build_sum () in
            let t_all, r =
              time_once (fun () ->
                  ShF.run_obs ~sink:!bench_sink ~db ~gamma ~k ~lo ~hi ~cell ())
            in
            let build = build_sum () -. build0 in
            (t_all -. build, build, r))
      in
      let median f = List.nth (List.sort compare (List.map f runs)) 1 in
      let sweep = median (fun (s, _, _) -> s) in
      let build = median (fun (_, b, _) -> b) in
      let _, _, r = List.hd runs in
      build_ms := (string_of_int n, Json.Float (build *. 1e3)) :: !build_ms;
      (* a count, so it does not swing with the host's speed *)
      let words =
        allocated_words (fun () -> Grid.build ~cell ~lo ~hi db) /. float_of_int n
      in
      build_words := (string_of_int n, Json.Float words) :: !build_words;
      let st = r.ShF.stats in
      let events =
        max 1
          (st.ShF.E.crossings + st.ShF.E.births + st.ShF.E.deaths
         + st.ShF.E.jumps)
      in
      let ns = sweep *. 1e9 /. float_of_int events in
      per_event := (string_of_int n, Json.Float ns) :: !per_event;
      let sb = r.ShF.shard in
      prune_rate :=
        float_of_int sb.ShF.pruned
        /. float_of_int (max 1 (sb.ShF.admitted + sb.ShF.pruned));
      if n = 1_000 then begin
        let gdist = Gdist.euclidean_sq ~gamma in
        let rx = KnnX.run ~db ~gdist ~k ~lo ~hi in
        identical := sharded_identical rx.KnnX.timeline r.ShF.timeline;
        if not !identical then
          failwith "S3: sharded timeline diverged from exact at N = 1000"
      end;
      row "%8d %8d %8d %9d %8d %11.4f %12.0f %7.1f%% %11.2f %10.1f\n" n sb.ShF.shards_total
        sb.ShF.shards_touched sb.ShF.admitted events sweep ns
        (100.0 *. !prune_rate) (build *. 1e3) words)
    [ 1_000; 10_000; 100_000 ];
  let ns_of n =
    match List.assoc_opt (string_of_int n) !per_event with
    | Some (Json.Float v) -> v
    | _ -> nan
  in
  let growth = ns_of 100_000 /. Float.max 1.0 (ns_of 10_000) in
  bench_extras :=
    [ ("backend", Json.Str "sharded-filtered");
      ("per_event_ns_by_n", Json.Obj (List.rev !per_event));
      ("per_event_growth", Json.Float growth);
      ("index_build_ms_by_n", Json.Obj (List.rev !build_ms));
      ("index_build_words_per_object_by_n", Json.Obj (List.rev !build_words));
      ("prune_rate", Json.Float !prune_rate);
      ("identical_to_exact", Json.Bool !identical);
    ];
  row "per-event growth 1e4 -> 1e5: %.2fx (gate: <= 2x; the sweep never\n" growth;
  row "touches pruned shards, so cost tracks local activity, not N)\n"

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("f1", f1); ("f2", f2); ("f3", f3); ("p1", p1); ("t2", t2); ("t4", t4);
    ("t5a", t5a); ("t5b", t5b); ("t10", t10); ("b1", b1); ("b2", b2);
    ("b3", b3); ("a1", a1); ("a3", a3); ("r1", r1); ("s1", s1);
    ("s2", s2); ("s3", s3); ("o1", o1); ("o2", o2); ("w1", w1) ]

let () =
  let args = List.filter (fun a -> a <> "--") (List.tl (Array.to_list Sys.argv)) in
  match args with
  | [] ->
    Printf.printf "moq experiment harness -- reproducing every figure and theorem\n";
    Printf.printf "(experiment index: DESIGN.md section 5; recorded results: EXPERIMENTS.md)\n";
    List.iter (fun (id, f) -> run_experiment (id, f)) experiments
  | [ "bechamel" ] -> bechamel_suite ()
  | ids ->
    List.iter
      (fun id ->
        match List.assoc_opt id experiments with
        | Some f -> run_experiment (id, f)
        | None -> Printf.eprintf "unknown experiment %S\n" id)
      ids
