(* Explain-report tests: the JSON schema is golden (key set and order are
   stable), the report's counters reconcile exactly with the registry the
   run counted into, the Lemma 9 block is the in-batch per-event quantity
   (initial sort excluded), and hot-object attribution is ranked and
   covers the attributed comparisons. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module Registry = Moq_obs.Registry
module Sink = Moq_obs.Sink
module Json = Moq_obs.Json
module Gdist = Moq_core.Gdist
module Explain = Moq_core.Explain
module Cost = Moq_core.Sweep_cost
module Gen = Moq_workload.Gen
module BX = Moq_core.Backend.Exact
module KnnX = Moq_core.Knn.Make (BX)

let q = Q.of_int

(* Run a k-NN sweep against a live registry and assemble the report the
   way the CLI and the server do. *)
let run_report ?(seed = 11) ?(n = 16) ?(k = 2) ?(lo = 0) ?(hi = 40) () =
  let reg = Registry.create () in
  let sink = Sink.of_registry reg in
  let db = Gen.uniform_db ~seed ~n ~extent:50 ~speed:5 () in
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let r = KnnX.run_obs ~sink ~db ~gdist ~k ~lo:(q lo) ~hi:(q hi) in
  let report =
    Explain.make ~kind:"knn" ~query:"test knn" ~backend:"exact" ~n_objects:n
      ~lo:(float_of_int lo) ~hi:(float_of_int hi)
      ~timeline_pieces:(List.length r.KnnX.timeline)
      ~sweep:(Explain.sweep_of r.KnnX.stats) ~hot:r.KnnX.hot
      ~phases:[ { Explain.name = "run"; ns = 1e6 } ]
      ~counters:(Registry.flatten reg) ()
  in
  (report, reg)

(* The golden schema: any key added, removed or reordered here is a
   deliberate, versioned change (bump moq_explain alongside). *)
let golden_keys =
  [ "moq_explain"; "kind"; "query"; "backend"; "classification"; "n_objects";
    "lo"; "hi"; "timeline_pieces"; "sweep"; "lemma9"; "filter"; "shards";
    "agg"; "hot"; "hot_coverage_top5"; "phases"; "counters" ]

let golden_agg_keys =
  [ "pois"; "windows"; "rows"; "watch_admitted"; "watch_pruned"; "updates";
    "forwarded" ]

let golden_shards_keys =
  [ "total"; "touched"; "admitted"; "pruned"; "frontier_merge_ops";
    "shard_events"; "band" ]

let golden_sweep_keys =
  [ "batches"; "crossings"; "births"; "deaths"; "jumps"; "swaps";
    "comparisons"; "support_changes" ]

let golden_lemma9_keys =
  [ "events"; "event_comparisons"; "ops_per_event"; "bound"; "within" ]

let obj_keys = function
  | Json.Obj kvs -> List.map fst kvs
  | _ -> Alcotest.fail "expected a JSON object"

let field j k =
  match j with
  | Json.Obj kvs ->
    (match List.assoc_opt k kvs with
     | Some v -> v
     | None -> Alcotest.failf "field %s missing" k)
  | _ -> Alcotest.fail "expected a JSON object"

let test_golden_schema () =
  let report, _ = run_report () in
  let j = Explain.to_json report in
  Alcotest.(check (list string)) "top-level keys" golden_keys (obj_keys j);
  Alcotest.(check (list string)) "sweep keys" golden_sweep_keys
    (obj_keys (field j "sweep"));
  Alcotest.(check (list string)) "lemma9 keys" golden_lemma9_keys
    (obj_keys (field j "lemma9"));
  (match field j "moq_explain" with
   | Json.Int 3 -> ()
   | _ -> Alcotest.fail "schema version tag must be 3");
  (* the exact backend carries no filter block *)
  (match field j "filter" with
   | Json.Null -> ()
   | _ -> Alcotest.fail "exact backend: filter must be null");
  (* an unsharded run carries no shards block *)
  (match field j "shards" with
   | Json.Null -> ()
   | _ -> Alcotest.fail "unsharded run: shards must be null");
  (* a non-aggregation run carries no agg block *)
  (match field j "agg" with
   | Json.Null -> ()
   | _ -> Alcotest.fail "non-aggregation run: agg must be null");
  (* the report must also survive a print (no exceptions, non-empty) *)
  Alcotest.(check bool) "to_text renders" true
    (String.length (Explain.to_text report) > 0)

(* A sharded run populates the shards block with self-consistent pruning
   accounting, under the same golden key order. *)
let test_sharded_report () =
  let module BFl = Moq_core.Backend.Filtered in
  let module Sh = Moq_core.Shard.Make (BFl) in
  let reg = Registry.create () in
  let sink = Sink.of_registry reg in
  let n = 30 in
  let db =
    Gen.clustered_db ~seed:21 ~n ~clusters:5 ~spacing:3_000 ~spread:40
      ~speed:2 ()
  in
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let r = Sh.run_obs ~sink ~db ~gamma ~k:2 ~lo:(q 0) ~hi:(q 20) ~cell:64.0 () in
  let report =
    Explain.make ~kind:"knn" ~query:"test sharded knn"
      ~backend:"sharded-filtered" ~n_objects:n ~lo:0. ~hi:20.
      ~timeline_pieces:(List.length r.Sh.timeline)
      ~sweep:(Explain.sweep_of r.Sh.stats)
      ~shards:(Sh.shards_block r.Sh.shard)
      ~counters:(Registry.flatten reg) ()
  in
  let j = Explain.to_json report in
  Alcotest.(check (list string)) "top-level keys" golden_keys (obj_keys j);
  Alcotest.(check (list string)) "shards keys" golden_shards_keys
    (obj_keys (field j "shards"));
  (match field j "shards" with
   | Json.Obj kvs ->
     let geti k =
       match List.assoc_opt k kvs with
       | Some (Json.Int i) -> i
       | _ -> Alcotest.failf "shards.%s missing or not an int" k
     in
     Alcotest.(check int) "admitted + pruned = population" n
       (geti "admitted" + geti "pruned");
     Alcotest.(check bool) "touched <= total" true
       (geti "touched" <= geti "total");
     Alcotest.(check bool) "clustered run pruned objects" true
       (geti "pruned" > 0)
   | _ -> Alcotest.fail "shards must be an object for a sharded run");
  (* the text rendering mentions the sharding section *)
  let txt = Explain.to_text report in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool) "to_text has sharding section" true
    (contains txt "sharding")

(* An aggregation run populates the agg block under the same golden key
   order; prune accounting is self-consistent. *)
let test_agg_report () =
  let agg =
    { Explain.a_pois = 3; a_windows = 5; a_rows = 15; a_admitted = 9;
      a_pruned = 21; a_updates = 40; a_forwarded = 24 }
  in
  let report =
    Explain.make ~kind:"agg" ~query:"test agg" ~backend:"exact" ~n_objects:10
      ~lo:0. ~hi:50. ~timeline_pieces:0 ~sweep:Explain.zero_sweep ~agg
      ~counters:[] ()
  in
  let j = Explain.to_json report in
  Alcotest.(check (list string)) "top-level keys" golden_keys (obj_keys j);
  Alcotest.(check (list string)) "agg keys" golden_agg_keys
    (obj_keys (field j "agg"));
  let txt = Explain.to_text report in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool) "to_text has aggregation section" true
    (contains txt "aggregation")

let test_counters_reconcile () =
  let report, reg = run_report () in
  let c name =
    match Registry.counter_value reg name with Some v -> v | None -> 0
  in
  let s = report.Explain.sweep in
  Alcotest.(check int) "crossings = registry" (c "moq_sweep_crossings_total")
    s.Explain.crossings;
  Alcotest.(check int) "swaps = registry" (c "moq_sweep_swaps_total")
    s.Explain.swaps;
  Alcotest.(check int) "batches = registry" (c "moq_sweep_batches_total")
    s.Explain.batches;
  (* the registry counts order-line exchanges (swaps + births + deaths);
     the report's support_changes is Corollary 6's m — distinct support
     change events (crossings + births + deaths) *)
  Alcotest.(check int) "registry support changes = swaps + births + deaths"
    (c "moq_sweep_support_changes_total")
    (s.Explain.swaps + s.Explain.births + s.Explain.deaths);
  (* lemma9 reads the in-batch counters, so it reconciles by construction;
     check it against the registry rather than the engine total (which
     includes the initial O(N log N) sort) *)
  let l = report.Explain.lemma9 in
  Alcotest.(check int) "lemma9 events" (c "moq_sweep_events_total") l.Explain.events;
  Alcotest.(check int) "lemma9 comparisons" (c "moq_sweep_comparisons_total")
    l.Explain.event_comparisons;
  Alcotest.(check bool) "in-batch < total comparisons" true
    (l.Explain.event_comparisons < s.Explain.comparisons);
  (* and the flattened registry embedded in the report agrees too *)
  Alcotest.(check (option (float 0.))) "embedded counters agree"
    (Some (float_of_int s.Explain.crossings))
    (List.assoc_opt "moq_sweep_crossings_total" report.Explain.counters)

let test_lemma9_regime () =
  (* per-event work stays within the generous c·log2(N+1) + c' reference
     line across sizes — the Lemma 9 regime check the report automates *)
  List.iter
    (fun n ->
      let report, _ = run_report ~seed:7 ~n () in
      let l = report.Explain.lemma9 in
      if l.Explain.events > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "within bound at n=%d (%.2f <= %.2f)" n
             l.Explain.ops_per_event l.Explain.bound)
          true l.Explain.within)
    [ 4; 16; 48 ]

let test_hot_ranked_and_covering () =
  let report, _ = run_report ~n:24 () in
  let hot = report.Explain.hot in
  Alcotest.(check bool) "attribution on" true (hot <> []);
  let rec sorted = function
    | a :: (b :: _ as tl) ->
      a.Cost.h_comparisons >= b.Cost.h_comparisons && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "hottest first" true (sorted hot);
  let cov = Explain.hot_coverage report in
  Alcotest.(check bool) "coverage in (0,1]" true (cov > 0. && cov <= 1.);
  (* top_hot truncates without reordering *)
  Alcotest.(check int) "top_hot caps at k" (min 3 (List.length hot))
    (List.length (Explain.top_hot ~k:3 report))

let hot oid c s = { Cost.h_oid = oid; h_comparisons = c; h_swaps = s }

let check_hot msg expected hots =
  Alcotest.(check (list (triple int int int))) msg expected
    (List.map (fun (h : Cost.hot) -> (h.h_oid, h.h_comparisons, h.h_swaps)) hots)

(* The one hot ranking: comparisons, then swaps (both descending), then oid
   ascending. *)
let test_rank_ties () =
  check_hot "comparisons, then swaps, then oid"
    [ (9, 7, 0); (4, 5, 3); (2, 5, 1); (6, 5, 1); (1, 2, 8) ]
    (Cost.rank_hot [ hot 6 5 1; hot 1 2 8; hot 2 5 1; hot 4 5 3; hot 9 7 0 ])

let test_merge_sums () =
  check_hot "each oid summed across lists, then ranked"
    [ (3, 10, 4); (1, 6, 1); (2, 6, 0); (5, 1, 1) ]
    (Cost.merge_hot
       [ [ hot 1 4 1; hot 3 2 2 ]; []; [ hot 3 8 2; hot 2 6 0 ];
         [ hot 5 1 1; hot 1 2 0 ] ])

let test_publish_hot () =
  let published hots =
    let reg = Registry.create () in
    Cost.publish_hot (Sink.of_registry reg) hots;
    Registry.flatten reg
  in
  let flat = published (List.init 7 (fun i -> hot (i + 1) (10 - i) i)) in
  List.iter
    (fun prefix ->
      Alcotest.(check int) (prefix ^ " ranks") 5
        (List.length
           (List.filter (fun (k, _) -> String.starts_with ~prefix k) flat)))
    [ "moq_hot_oid_"; "moq_hot_comparisons_"; "moq_hot_swaps_" ];
  Alcotest.(check (option (float 0.))) "rank 0 is the hottest" (Some 1.)
    (List.assoc_opt "moq_hot_oid_0" flat);
  Alcotest.(check (option (float 1e-9))) "coverage of the top five"
    (Some (100. *. 40. /. 49.))
    (List.assoc_opt "moq_hot_coverage_pct" flat);
  let zero = published [ hot 1 0 0; hot 2 0 0 ] in
  Alcotest.(check bool) "no coverage when nothing was attributed" false
    (List.mem_assoc "moq_hot_coverage_pct" zero);
  Alcotest.(check bool) "nothing at all for an empty list" true
    (published [] = [])

(* [moq explain agg] always evaluates on Exact, so a Filtered [--backend]
   must not attach (or publish) the interval filter's block. *)
let test_cli_agg_has_no_filter () =
  let out = Filename.temp_file "explain_agg" ".json" in
  let cmd =
    Printf.sprintf
      "../../bin/moq.exe explain agg --backend filtered --seed 11 -n 24 -k 3 \
       --lo 0 --hi 40 --json > %s"
      (Filename.quote out)
  in
  Alcotest.(check int) "moq explain exits 0" 0 (Sys.command cmd);
  let j =
    match Json.of_string (In_channel.with_open_bin out In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "explain JSON: %s" e
  in
  Sys.remove out;
  Alcotest.(check bool) "backend is exact" true
    (field j "backend" = Json.Str "exact");
  Alcotest.(check bool) "filter is null" true (field j "filter" = Json.Null);
  Alcotest.(check bool) "no moq_filter_* counters" false
    (List.exists (String.starts_with ~prefix:"moq_filter_")
       (obj_keys (field j "counters")))

let test_bound_monotone () =
  Alcotest.(check bool) "bound grows with N" true
    (Explain.lemma9_bound ~n_objects:1000 > Explain.lemma9_bound ~n_objects:10);
  Alcotest.(check bool) "bound sane at N=0" true
    (Explain.lemma9_bound ~n_objects:0 >= 8.)

let () =
  Alcotest.run "explain"
    [ ("schema",
       [ Alcotest.test_case "golden JSON key set" `Quick test_golden_schema;
         Alcotest.test_case "sharded report shards block" `Quick
           test_sharded_report;
         Alcotest.test_case "agg report agg block" `Quick test_agg_report ]);
      ("reconcile",
       [ Alcotest.test_case "report = registry" `Quick test_counters_reconcile ]);
      ("lemma9",
       [ Alcotest.test_case "per-event regime" `Quick test_lemma9_regime;
         Alcotest.test_case "bound monotone" `Quick test_bound_monotone ]);
      ("hot",
       [ Alcotest.test_case "ranked attribution" `Quick
           test_hot_ranked_and_covering;
         Alcotest.test_case "rank ties" `Quick test_rank_ties;
         Alcotest.test_case "merge sums" `Quick test_merge_sums;
         Alcotest.test_case "publish top five" `Quick test_publish_hot ]);
      ("cli",
       [ Alcotest.test_case "agg has no filter block" `Quick
           test_cli_agg_has_no_filter ]) ]
