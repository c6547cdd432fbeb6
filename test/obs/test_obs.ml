(* Telemetry subsystem tests: histogram quantile accuracy, counter
   saturation, deterministic Prometheus exposition (golden), the span
   tracer's ring buffer, and a cross-check of the sweep instrumentation
   against an independent all-pairs crossing count. *)

module Histo = Moq_obs.Histo
module Registry = Moq_obs.Registry
module Export = Moq_obs.Export
module Json = Moq_obs.Json
module Sink = Moq_obs.Sink
module Help = Moq_obs.Help
module Trace = Moq_obs.Trace
module Recorder = Moq_obs.Recorder

module Q = Moq_numeric.Rat
module DB = Moq_mod.Mobdb
module BX = Moq_core.Backend.Exact
module KnnX = Moq_core.Knn.Make (BX)
module CX = KnnX.E.C
module Gdist = Moq_core.Gdist
module Gen = Moq_workload.Gen

let q = Q.of_int

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_histo_quantiles () =
  let h = Histo.create "lat" in
  (* uniform grid on (0, 1]: the q-quantile is ~q *)
  for i = 1 to 1000 do
    Histo.observe h (float_of_int i /. 1000.0)
  done;
  Alcotest.(check int) "count" 1000 (Histo.count h);
  List.iter
    (fun p ->
      let est = Histo.quantile h p in
      let err = Float.abs (est -. p) /. p in
      if err > 0.15 then
        Alcotest.failf "p%.0f: estimate %f off true %f by %.1f%%" (100.0 *. p)
          est p (100.0 *. err))
    [ 0.5; 0.9; 0.99 ];
  (* estimates are clamped into [min, max] *)
  Alcotest.(check bool) "p99 <= max" true (Histo.quantile h 0.99 <= Histo.max_value h);
  Alcotest.(check bool) "p50 >= min" true (Histo.quantile h 0.5 >= Histo.min_value h)

let test_histo_degenerate () =
  let h = Histo.create "one" in
  for _ = 1 to 17 do Histo.observe h 42.0 done;
  (* a single-valued distribution reports exactly, thanks to clamping *)
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q%.2f exact" p) 42.0 (Histo.quantile h p))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  Alcotest.(check (float 1e-9)) "mean" 42.0 (Histo.mean h);
  Alcotest.(check (float 1e-9)) "sum" (42.0 *. 17.0) (Histo.sum h)

let test_histo_edges () =
  let h = Histo.create ~lo:1.0 ~ratio:2.0 ~buckets:4 "edge" in
  Histo.observe h 1e-30;   (* below lo: bucket 0 *)
  Histo.observe h 1e30;    (* beyond the last bound: clamped into bucket 3 *)
  Histo.observe h nan;     (* ignored *)
  Alcotest.(check int) "NaN ignored" 2 (Histo.count h);
  (match Histo.cumulative h with
   | [ (b0, 1); (_, 2) ] ->
     Alcotest.(check (float 1e-9)) "bucket 0 bound" 1.0 b0
   | other ->
     Alcotest.failf "unexpected cumulative shape (%d buckets)" (List.length other));
  (* empty histogram: nan quantiles, not exceptions *)
  let e = Histo.create "empty" in
  Alcotest.(check bool) "empty quantile nan" true (Float.is_nan (Histo.quantile e 0.5));
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Histo.mean e))

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_overflow () =
  let reg = Registry.create () in
  let c = Registry.counter reg "c_total" in
  Registry.add c (max_int - 2);
  Registry.add c 10;
  Alcotest.(check int) "saturates at max_int" max_int (Registry.value c);
  Registry.add c 1;
  Alcotest.(check int) "stays saturated" max_int (Registry.value c);
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Registry.add: counters are monotonic") (fun () ->
      Registry.add c (-1))

(* Regression for the unsynchronised-increment bug: counters, sinks and
   histograms must tally exactly under contention, not approximately.
   Before the registry grew its mutex, parallel [add]s lost updates. *)
let test_registry_race () =
  let reg = Registry.create () in
  let sink = Sink.of_registry reg in
  let h = Registry.histogram reg "race_lat" in
  let c = Registry.counter reg "race_total" in
  let threads = 8 and iters = 10_000 in
  let worker _ =
    for _ = 1 to iters do
      Registry.add c 1;
      (* exercises lazy registration under contention too *)
      Sink.count sink "race_sink_total" 1;
      Histo.observe h 1.0
    done
  in
  let ts = List.init threads (fun i -> Thread.create worker i) in
  List.iter Thread.join ts;
  let expect = threads * iters in
  Alcotest.(check int) "counter exact" expect (Registry.value c);
  Alcotest.(check (option int)) "sink counter exact" (Some expect)
    (Registry.counter_value reg "race_sink_total");
  Alcotest.(check int) "histogram count exact" expect (Histo.count h);
  Alcotest.(check (float 1e-6)) "histogram sum exact" (float_of_int expect)
    (Histo.sum h)

let test_registry_idempotent () =
  let reg = Registry.create () in
  let c1 = Registry.counter reg "shared_total" in
  Registry.add c1 3;
  let c2 = Registry.counter reg "shared_total" in
  Registry.add c2 4;
  Alcotest.(check int) "one metric" 7 (Registry.value c1);
  Alcotest.(check (option int)) "by name" (Some 7)
    (Registry.counter_value reg "shared_total");
  Alcotest.check_raises "wrong type re-registration"
    (Invalid_argument "Registry.gauge: shared_total registered as another type")
    (fun () -> ignore (Registry.gauge reg "shared_total"));
  let h = Registry.histogram reg "h" in
  Histo.observe h 2.0;
  Histo.observe h 3.0;
  Alcotest.(check bool) "flatten exposes histogram _count/_sum" true
    (List.mem ("h_count", 2.0) (Registry.flatten reg)
     && List.mem ("h_sum", 5.0) (Registry.flatten reg))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_prometheus_golden () =
  let reg = Registry.create () in
  let c = Registry.counter ~help:"processed events" reg "moq_events_total" in
  Registry.add c 42;
  let g = Registry.gauge ~help:"order list length" reg "moq_order_len" in
  Registry.set g 17.5;
  let h = Registry.histogram ~help:"latency" ~lo:1.0 ~ratio:2.0 ~buckets:8 reg "moq_lat" in
  List.iter (Histo.observe h) [ 0.5; 1.0; 3.0; 100.0 ];
  let expected =
    "# HELP moq_events_total processed events\n\
     # TYPE moq_events_total counter\n\
     moq_events_total 42\n\
     # HELP moq_lat latency\n\
     # TYPE moq_lat histogram\n\
     moq_lat_bucket{le=\"1\"} 2\n\
     moq_lat_bucket{le=\"4\"} 3\n\
     moq_lat_bucket{le=\"128\"} 4\n\
     moq_lat_bucket{le=\"+Inf\"} 4\n\
     moq_lat_sum 104.5\n\
     moq_lat_count 4\n\
     # HELP moq_order_len order list length\n\
     # TYPE moq_order_len gauge\n\
     moq_order_len 17.5\n"
  in
  Alcotest.(check string) "exposition" expected (Export.prometheus reg)

(* Hostile metric names and help strings must not corrupt the exposition
   stream: names are sanitized to [a-zA-Z_:][a-zA-Z0-9_:]*, HELP text gets
   backslash and newline escaped (format 0.0.4), nothing else changes. *)
let test_prometheus_pathological () =
  let reg = Registry.create () in
  let anon = Registry.counter ~help:"anonymous" reg "" in
  Registry.add anon 1;
  let c = Registry.counter ~help:"nine\nlives \\ counted" reg "9lives_total" in
  Registry.add c 9;
  Registry.set (Registry.gauge reg "moq bad gauge!") 2.5;
  let expected =
    "# HELP _ anonymous\n\
     # TYPE _ counter\n\
     _ 1\n\
     # HELP _lives_total nine\\nlives \\\\ counted\n\
     # TYPE _lives_total counter\n\
     _lives_total 9\n\
     # TYPE moq_bad_gauge_ gauge\n\
     moq_bad_gauge_ 2.5\n"
  in
  Alcotest.(check string) "sanitized exposition" expected (Export.prometheus reg)

let test_json_export () =
  let reg = Registry.create () in
  Registry.add (Registry.counter reg "n_total") 3;
  Registry.set (Registry.gauge reg "depth") 2.0;
  Histo.observe (Registry.histogram reg "lat") 0.25;
  let s = Export.json_string reg in
  List.iter
    (fun needle ->
      if not
           (let ln = String.length needle and ls = String.length s in
            let rec go i = i + ln <= ls && (String.sub s i ln = needle || go (i + 1)) in
            go 0)
      then Alcotest.failf "JSON export missing %S in %s" needle s)
    [ "\"n_total\":3"; "\"depth\":2.0"; "\"lat\""; "\"p99\"" ];
  (* NaN/infinity are emitted as null, keeping the document parseable *)
  Alcotest.(check string) "nan -> null" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string) "escaping" "\"a\\\"b\\n\""
    (Json.to_string (Json.Str "a\"b\n"))

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_ring () =
  let tr = Trace.create ~capacity:2 () in
  let finish name =
    let s = Trace.begin_span tr name in
    Trace.annotate s (name ^ "-note");
    Trace.end_span tr s
  in
  List.iter finish [ "a"; "b"; "c" ];
  Alcotest.(check int) "finished" 3 (Trace.finished_count tr);
  Alcotest.(check int) "dropped" 1 (Trace.dropped_count tr);
  Alcotest.(check (list string)) "most recent retained, oldest first"
    [ "b"; "c" ]
    (List.map Trace.span_name (Trace.spans tr));
  (match Trace.spans tr with
   | s :: _ ->
     Alcotest.(check (list string)) "annotation" [ "b-note" ]
       (List.map snd (Trace.events s))
   | [] -> Alcotest.fail "no spans")

let test_trace_nesting () =
  let tr = Trace.create () in
  Trace.with_span tr "outer" (fun () ->
      Trace.with_span tr "inner" (fun () -> ()));
  (match Trace.spans tr with
   | [ inner; outer ] ->
     (* inner finishes first, so it sits earlier in the ring *)
     Alcotest.(check string) "inner name" "inner" (Trace.span_name inner);
     Alcotest.(check int) "inner depth" 1 (Trace.span_depth inner);
     Alcotest.(check int) "outer depth" 0 (Trace.span_depth outer);
     Alcotest.(check bool) "durations non-negative" true
       (Trace.duration inner >= 0.0 && Trace.duration outer >= 0.0)
   | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans));
  Alcotest.(check int) "stack drained" 0 (Trace.open_count tr);
  (* an exception still closes the span *)
  (try Trace.with_span tr "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "exception-safe" 3 (Trace.finished_count tr)

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)
(* ------------------------------------------------------------------ *)

let test_sink () =
  Alcotest.(check bool) "noop inactive" false (Sink.active Sink.noop);
  (* the noop sink swallows everything without allocating registry state *)
  Sink.count Sink.noop "x" 1;
  Sink.observe Sink.noop "x" 1.0;
  let reg = Registry.create () in
  let sink = Sink.of_registry reg in
  Alcotest.(check bool) "live sink active" true (Sink.active sink);
  Sink.count sink "ops_total" 2;
  Sink.count sink "ops_total" 3;
  Sink.set sink "depth" 4.0;
  let r = Sink.time sink "dur_seconds" (fun () -> 7) in
  Alcotest.(check int) "time passes result through" 7 r;
  Alcotest.(check (option int)) "counter" (Some 5)
    (Registry.counter_value reg "ops_total");
  (match Registry.find reg "dur_seconds" with
   | Some (Registry.Histogram h) -> Alcotest.(check int) "timed once" 1 (Histo.count h)
   | _ -> Alcotest.fail "dur_seconds not a histogram")

(* ------------------------------------------------------------------ *)
(* Sweep instrumentation vs an independent baseline                    *)
(* ------------------------------------------------------------------ *)

(* The inversions workload makes ground truth computable two independent
   ways: the generator promises exactly [inversions] crossings, and the
   naive all-pairs enumeration finds each one without any sweep machinery.
   The sink counters must agree with both. *)
let test_sweep_matches_naive () =
  let n = 12 and inversions = 20 in
  let db = Gen.inversions_db ~seed:7 ~n ~inversions ~horizon:(q 100) in
  let gdist = Gdist.coordinate 0 in
  let reg = Registry.create () in
  let sink = Sink.of_registry reg in
  let r = KnnX.run_obs ~sink ~db ~gdist ~k:1 ~lo:(q 0) ~hi:(q 100) in
  (* independent ground truth: all-pairs crossing enumeration *)
  let curves =
    List.map (fun (_, tr) -> Gdist.curve gdist tr) (DB.objects db)
  in
  let after = BX.instant_of_scalar (q 0) in
  let horizon = q 100 in
  let rec all_pairs = function
    | c1 :: rest ->
      List.fold_left
        (fun acc c2 -> acc + List.length (CX.all_crossings ~after ~horizon c1 c2))
        (all_pairs rest) rest
    | [] -> 0
  in
  let naive_crossings = all_pairs curves in
  Alcotest.(check int) "naive agrees with the generator" inversions naive_crossings;
  (* the paper's m counts transpositions of the order list: a batch of
     simultaneous crossings pops as one event but performs several swaps,
     so swaps -- not event pops -- must match the all-pairs count *)
  Alcotest.(check (option int)) "sink swaps = naive"
    (Some naive_crossings)
    (Registry.counter_value reg "moq_sweep_swaps_total");
  Alcotest.(check (option int)) "sink support changes = naive"
    (Some naive_crossings)
    (Registry.counter_value reg "moq_sweep_support_changes_total");
  (* the sink's pop counts mirror the engine's own stats *)
  let s = r.KnnX.stats in
  Alcotest.(check (option int)) "sink crossings = engine crossings"
    (Some s.KnnX.E.crossings)
    (Registry.counter_value reg "moq_sweep_crossings_total");
  Alcotest.(check (option int)) "sink events = engine events"
    (Some (s.KnnX.E.crossings + s.KnnX.E.births + s.KnnX.E.deaths + s.KnnX.E.jumps))
    (Registry.counter_value reg "moq_sweep_events_total");
  (* Lemma 9 sanity: bounded comparisons per event on this workload *)
  (match Registry.find reg "moq_sweep_ops_per_event" with
   | Some (Registry.Histogram h) ->
     Alcotest.(check bool) "per-event ops observed" true (Histo.count h > 0)
   | _ -> Alcotest.fail "moq_sweep_ops_per_event missing")

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_recorder_ring () =
  let r = Recorder.create ~capacity:4 () in
  for i = 1 to 10 do
    Recorder.record r ~kind:"tick" ~fields:[ ("i", Json.Int i) ] ()
  done;
  Alcotest.(check int) "recorded total" 10 (Recorder.recorded r);
  Alcotest.(check int) "dropped by wrap" 6 (Recorder.dropped r);
  let evs = Recorder.events r in
  Alcotest.(check int) "ring holds capacity" 4 (List.length evs);
  (* oldest-first, seq monotonic, and only the newest four survive *)
  let seqs = List.map (fun (e : Recorder.event) -> e.Recorder.seq) evs in
  Alcotest.(check (list int)) "newest four, in order" [ 6; 7; 8; 9 ] seqs;
  (match Recorder.last ~kind:"tick" r with
   | Some e ->
     Alcotest.(check bool) "last field" true
       (List.assoc_opt "i" e.Recorder.fields = Some (Json.Int 10))
   | None -> Alcotest.fail "last event missing");
  Recorder.clear r;
  Alcotest.(check int) "clear empties the ring" 0 (List.length (Recorder.events r));
  Alcotest.(check int) "clear keeps the totals" 10 (Recorder.recorded r)

let test_recorder_disabled () =
  let r = Recorder.create ~capacity:0 () in
  Alcotest.(check bool) "disabled" false (Recorder.enabled r);
  Recorder.record r ~kind:"tick" ();
  Alcotest.(check int) "record is a no-op" 0 (Recorder.recorded r)

let test_recorder_dump_roundtrip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "moq_rec_%d" (Unix.getpid ()))
  in
  let r = Recorder.create ~capacity:8 () in
  Recorder.record r ~kind:"update_admitted"
    ~fields:[ ("oid", Json.Int 7); ("tau", Json.Str "3/2") ] ();
  Recorder.record r ~kind:"session_close" ~fields:[ ("session", Json.Int 1) ] ();
  (match Recorder.dump r ~dir ~reason:"test" with
   | Error e -> Alcotest.fail e
   | Ok path ->
     (match Recorder.load path with
      | Error e -> Alcotest.fail e
      | Ok d ->
        Alcotest.(check string) "reason" "test" d.Recorder.d_reason;
        Alcotest.(check int) "events" 2 (List.length d.Recorder.d_events);
        let kinds =
          List.map (fun (e : Recorder.event) -> e.Recorder.kind) d.Recorder.d_events
        in
        Alcotest.(check (list string)) "kinds oldest-first"
          [ "update_admitted"; "session_close" ] kinds;
        (match d.Recorder.d_events with
         | e :: _ ->
           Alcotest.(check bool) "fields survive the roundtrip" true
             (List.assoc_opt "tau" e.Recorder.fields = Some (Json.Str "3/2"))
         | [] -> Alcotest.fail "empty"));
     Sys.remove path);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* HELP-string parity: Help table <-> README metric glossary <-> export *)
(* ------------------------------------------------------------------ *)

(* Backticked moq_shard_* / moq_agg_* names in the README glossary table.
   The table rows are the lines starting with "| `moq_"; a row may name
   several metrics (slash-separated cells). *)
let glossary_names () =
  (* cwd is the repo root under `dune exec`, the test's own directory
     under `dune runtest` (where the dune dep materializes the file two
     levels up) *)
  let path =
    List.find Sys.file_exists [ "README.md"; "../../README.md" ]
  in
  let ic = open_in path in
  let names = ref [] in
  (try
     while true do
       let l = input_line ic in
       if String.length l > 3 && String.sub l 0 3 = "| `" then begin
         (* collect every `...` span on the row, keep full metric names *)
         let n = String.length l in
         let i = ref 0 in
         while !i < n do
           if l.[!i] = '`' then begin
             let j = try String.index_from l (!i + 1) '`' with Not_found -> n in
             if j < n then begin
               let tok = String.sub l (!i + 1) (j - !i - 1) in
               let has_prefix p =
                 String.length tok >= String.length p
                 && String.sub tok 0 (String.length p) = p
               in
               if has_prefix "moq_shard_" || has_prefix "moq_agg_" then
                 names := tok :: !names;
               i := j + 1
             end
             else i := n
           end
           else incr i
         done
       end
     done
   with End_of_file -> ());
  close_in ic;
  List.sort_uniq compare !names

let test_help_glossary_parity () =
  let glossary = glossary_names () in
  let table = List.sort_uniq compare (List.map fst Help.all) in
  Alcotest.(check (list string))
    "README glossary rows and Help table carry the same metric names"
    glossary table

let test_help_reaches_exporter () =
  let reg = Registry.create () in
  let sink = Sink.of_registry reg in
  List.iter
    (fun (name, _) ->
      let is_suffix suf =
        let ls = String.length suf and ln = String.length name in
        ln >= ls && String.sub name (ln - ls) ls = suf
      in
      if is_suffix "_seconds" then Sink.observe sink name 0.01
      else if name = "moq_shard_shards" then Sink.set sink name 4.
      else Sink.count sink name 1)
    Help.all;
  let out = Export.prometheus reg in
  List.iter
    (fun (name, help) ->
      let expect = Printf.sprintf "# HELP %s %s\n" name help in
      let found =
        let ln = String.length out and le = String.length expect in
        let rec scan i =
          i + le <= ln && (String.sub out i le = expect || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) (name ^ " exports its HELP line") true found)
    Help.all

let () =
  Alcotest.run "obs"
    [ ("histo",
       [ Alcotest.test_case "quantile accuracy" `Quick test_histo_quantiles;
         Alcotest.test_case "degenerate distribution" `Quick test_histo_degenerate;
         Alcotest.test_case "edges and NaN" `Quick test_histo_edges ]);
      ("registry",
       [ Alcotest.test_case "counter saturation" `Quick test_counter_overflow;
         Alcotest.test_case "exact under contention" `Quick test_registry_race;
         Alcotest.test_case "idempotent registration" `Quick test_registry_idempotent ]);
      ("export",
       [ Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
         Alcotest.test_case "pathological names escaped" `Quick
           test_prometheus_pathological;
         Alcotest.test_case "json snapshot" `Quick test_json_export ]);
      ("trace",
       [ Alcotest.test_case "ring buffer" `Quick test_trace_ring;
         Alcotest.test_case "nesting and safety" `Quick test_trace_nesting ]);
      ("sink", [ Alcotest.test_case "noop and live" `Quick test_sink ]);
      ("help",
       [ Alcotest.test_case "table matches README glossary" `Quick
           test_help_glossary_parity;
         Alcotest.test_case "HELP lines reach the exporter" `Quick
           test_help_reaches_exporter ]);
      ("sweep",
       [ Alcotest.test_case "instrumentation vs naive baseline" `Quick
           test_sweep_matches_naive ]);
      ("recorder",
       [ Alcotest.test_case "bounded ring" `Quick test_recorder_ring;
         Alcotest.test_case "capacity 0 disables" `Quick test_recorder_disabled;
         Alcotest.test_case "dump/load roundtrip" `Quick
           test_recorder_dump_roundtrip ]);
    ]
