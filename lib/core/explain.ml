(* Plan + cost report assembly and rendering.  Deliberately functor-free:
   every field is plain data (the engine's cost records are Sweep_cost's,
   outside any functor), so one module serves every backend and the CLI can
   print a report without knowing which functor instantiation produced it. *)

module Json = Moq_obs.Json

type sweep = {
  batches : int;
  crossings : int;
  births : int;
  deaths : int;
  jumps : int;
  swaps : int;
  comparisons : int;
  support_changes : int;
}

type lemma9 = {
  events : int;
  event_comparisons : int;
  ops_per_event : float;
  bound : float;
  within : bool;
}

type filter = {
  f_hits : int;
  f_misses : int;
  f_decisions : int;
  f_fallback_ns : float;
  f_straddles : float list;
}

type shards = {
  s_total : int;
  s_touched : int;
  s_admitted : int;
  s_pruned : int;
  s_merge_ops : int;
  s_events : int;
  s_band : float option;
}

type agg = {
  a_pois : int;
  a_windows : int;
  a_rows : int;
  a_admitted : int;
  a_pruned : int;
  a_updates : int;
  a_forwarded : int;
}

type phase = {
  name : string;
  ns : float;
}

type t = {
  kind : string;
  query : string;
  backend : string;
  classification : string;
  n_objects : int;
  lo : float;
  hi : float;
  timeline_pieces : int;
  sweep : sweep;
  lemma9 : lemma9;
  filter : filter option;
  shards : shards option;
  agg : agg option;
  hot : Sweep_cost.hot list;
  phases : phase list;
  counters : (string * float) list;
}

let sweep_of (s : Sweep_cost.stats) =
  { batches = s.batches; crossings = s.crossings; births = s.births;
    deaths = s.deaths; jumps = s.jumps; swaps = s.swaps;
    comparisons = s.comparisons;
    support_changes = Sweep_cost.support_changes s }

let zero_sweep = sweep_of (Sweep_cost.zero_stats ())

let lemma9_bound ~n_objects =
  8. +. (4. *. (log (float_of_int (n_objects + 1)) /. log 2.))

let counter counters name =
  match List.assoc_opt name counters with Some v -> v | None -> 0.

let make ~kind ~query ~backend ?(classification = "n/a") ~n_objects ~lo ~hi
    ~timeline_pieces ~sweep ?filter ?shards ?agg ?(hot = []) ?(phases = [])
    ~counters () =
  let events = int_of_float (counter counters "moq_sweep_events_total") in
  let event_comparisons =
    int_of_float (counter counters "moq_sweep_comparisons_total")
  in
  let ops_per_event =
    float_of_int event_comparisons /. float_of_int (max 1 events)
  in
  let bound = lemma9_bound ~n_objects in
  let lemma9 =
    { events; event_comparisons; ops_per_event; bound;
      within = ops_per_event <= bound }
  in
  { kind; query; backend; classification; n_objects; lo; hi; timeline_pieces;
    sweep; lemma9; filter; shards; agg; hot; phases; counters }

let top_hot ?(k = 5) t =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take (max 0 k) t.hot

let hot_coverage t =
  let sum =
    List.fold_left (fun a (h : Sweep_cost.hot) -> a + h.h_comparisons) 0
  in
  let total = sum t.hot in
  if total = 0 then 0.
  else float_of_int (sum (top_hot ~k:5 t)) /. float_of_int total

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let sweep_to_json s =
  Json.Obj
    [ ("batches", Json.Int s.batches);
      ("crossings", Json.Int s.crossings);
      ("births", Json.Int s.births);
      ("deaths", Json.Int s.deaths);
      ("jumps", Json.Int s.jumps);
      ("swaps", Json.Int s.swaps);
      ("comparisons", Json.Int s.comparisons);
      ("support_changes", Json.Int s.support_changes);
    ]

let lemma9_to_json l =
  Json.Obj
    [ ("events", Json.Int l.events);
      ("event_comparisons", Json.Int l.event_comparisons);
      ("ops_per_event", Json.Float l.ops_per_event);
      ("bound", Json.Float l.bound);
      ("within", Json.Bool l.within);
    ]

let filter_to_json f =
  Json.Obj
    [ ("hits", Json.Int f.f_hits);
      ("misses", Json.Int f.f_misses);
      ("decisions", Json.Int f.f_decisions);
      ("fallback_ns", Json.Float f.f_fallback_ns);
      ("straddles", Json.List (List.map (fun x -> Json.Float x) f.f_straddles));
    ]

let shards_to_json s =
  Json.Obj
    [ ("total", Json.Int s.s_total);
      ("touched", Json.Int s.s_touched);
      ("admitted", Json.Int s.s_admitted);
      ("pruned", Json.Int s.s_pruned);
      ("frontier_merge_ops", Json.Int s.s_merge_ops);
      ("shard_events", Json.Int s.s_events);
      ( "band",
        match s.s_band with None -> Json.Null | Some b -> Json.Float b );
    ]

let agg_to_json a =
  Json.Obj
    [ ("pois", Json.Int a.a_pois);
      ("windows", Json.Int a.a_windows);
      ("rows", Json.Int a.a_rows);
      ("watch_admitted", Json.Int a.a_admitted);
      ("watch_pruned", Json.Int a.a_pruned);
      ("updates", Json.Int a.a_updates);
      ("forwarded", Json.Int a.a_forwarded);
    ]

let hot_to_json (h : Sweep_cost.hot) =
  Json.Obj
    [ ("oid", Json.Int h.h_oid);
      ("comparisons", Json.Int h.h_comparisons);
      ("swaps", Json.Int h.h_swaps);
    ]

let phase_to_json p =
  Json.Obj [ ("name", Json.Str p.name); ("ns", Json.Float p.ns) ]

let to_json t =
  Json.Obj
    [ ("moq_explain", Json.Int 3);
      ("kind", Json.Str t.kind);
      ("query", Json.Str t.query);
      ("backend", Json.Str t.backend);
      ("classification", Json.Str t.classification);
      ("n_objects", Json.Int t.n_objects);
      ("lo", Json.Float t.lo);
      ("hi", Json.Float t.hi);
      ("timeline_pieces", Json.Int t.timeline_pieces);
      ("sweep", sweep_to_json t.sweep);
      ("lemma9", lemma9_to_json t.lemma9);
      ( "filter",
        match t.filter with None -> Json.Null | Some f -> filter_to_json f );
      ( "shards",
        match t.shards with None -> Json.Null | Some s -> shards_to_json s );
      ("agg", match t.agg with None -> Json.Null | Some a -> agg_to_json a);
      ("hot", Json.List (List.map hot_to_json t.hot));
      ("hot_coverage_top5", Json.Float (hot_coverage t));
      ("phases", Json.List (List.map phase_to_json t.phases));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) t.counters) );
    ]

(* ------------------------------------------------------------------ *)
(* Text                                                                *)
(* ------------------------------------------------------------------ *)

let to_text t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "moq explain: %s" t.query;
  line "  kind          %s" t.kind;
  line "  backend       %s" t.backend;
  if t.classification <> "n/a" then
    line "  classified    %s (Definition 5, vs the MOD clock)" t.classification;
  line "  objects       %d" t.n_objects;
  line "  window        [%g, %g]" t.lo t.hi;
  line "  answer        %d timeline piece(s)" t.timeline_pieces;
  let s = t.sweep in
  line "sweep";
  line "  batches       %d" s.batches;
  line "  events        %d crossings, %d births, %d deaths, %d jumps"
    s.crossings s.births s.deaths s.jumps;
  line "  swaps         %d" s.swaps;
  line "  comparisons   %d (incl. initial sort)" s.comparisons;
  line "  support chg   %d (the paper's m)" s.support_changes;
  let l = t.lemma9 in
  line "lemma 9 (per-event order-list work)";
  line "  events        %d" l.events;
  line "  comparisons   %d (in-batch)" l.event_comparisons;
  line "  ops/event     %.2f  (bound %.2f — %s)" l.ops_per_event l.bound
    (if l.within then "within" else "EXCEEDED");
  (match t.filter with
   | None -> ()
   | Some f ->
     line "interval filter";
     line "  decisions     %d (%d hit / %d miss)" f.f_decisions f.f_hits
       f.f_misses;
     let rate =
       if f.f_decisions = 0 then 0.
       else 100. *. float_of_int f.f_hits /. float_of_int f.f_decisions
     in
     line "  hit rate      %.1f%%" rate;
     line "  fallback      %.3f ms exact-arithmetic time"
       (f.f_fallback_ns /. 1e6);
     (match f.f_straddles with
      | [] -> ()
      | xs ->
        line "  straddled at  %s"
          (String.concat ", "
             (List.map (fun x -> Printf.sprintf "%.4g" x) xs))));
  (match t.shards with
   | None -> ()
   | Some s ->
     line "sharding";
     line "  shards        %d touched of %d" s.s_touched s.s_total;
     line "  admitted      %d object(s), %d pruned" s.s_admitted s.s_pruned;
     let pop = s.s_admitted + s.s_pruned in
     if pop > 0 then
       line "  prune rate    %.1f%%"
         (100. *. float_of_int s.s_pruned /. float_of_int pop);
     line "  frontier      %d merge op(s), %d shard event(s)" s.s_merge_ops
       s.s_events;
     (match s.s_band with
      | None -> line "  band          none (all shards swept)"
      | Some b -> line "  band          %.6g (squared distance)" b));
  (match t.agg with
   | None -> ()
   | Some a ->
     line "aggregation";
     line "  pois          %d, %d window(s) each" a.a_pois a.a_windows;
     line "  rows          %d finalized" a.a_rows;
     line "  watch         %d admitted, %d pruned" a.a_admitted a.a_pruned;
     let pop = a.a_admitted + a.a_pruned in
     if pop > 0 then
       line "  prune rate    %.1f%%"
         (100. *. float_of_int a.a_pruned /. float_of_int pop);
     line "  updates       %d offered, %d forwarded into POI monitors"
       a.a_updates a.a_forwarded);
  (match top_hot t with
   | [] -> ()
   | hs ->
     line "hot objects (top %d of %d, %.0f%% of attributed comparisons)"
       (List.length hs) (List.length t.hot) (100. *. hot_coverage t);
     List.iter
       (fun (h : Sweep_cost.hot) ->
         line "  oid %-6d    %d comparisons, %d swaps" h.h_oid h.h_comparisons
           h.h_swaps)
       hs);
  (match t.phases with
   | [] -> ()
   | ps ->
     line "phases";
     List.iter (fun p -> line "  %-12s  %.3f ms" p.name (p.ns /. 1e6)) ps);
  Buffer.contents b
