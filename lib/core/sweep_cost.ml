(** The sweep's cost in the paper's units: curve-order comparisons per
    event (Lemma 9) and support changes m (Theorem 5, Corollary 6), plus
    the per-object attribution of the comparisons.

    Plain data, outside any functor: {!Engine.Make} re-exports these types,
    so every backend's engine, the sharded driver, the explain report and
    the server read one [stats] and one [hot] type, and rank, merge and
    publish hot objects here only. *)

type stats = {
  mutable crossings : int;  (** crossing events processed *)
  mutable swaps : int;      (** adjacent transpositions performed *)
  mutable births : int;
  mutable deaths : int;
  mutable batches : int;    (** distinct event instants processed *)
  mutable jumps : int;
      (** discontinuity repositionings (Section 5's piecewise-continuous
          g-distance relaxation) *)
  mutable comparisons : int;
      (** curve-order comparisons — the cost unit of the paper's analysis,
          which counts intersection computation apart *)
  mutable searches : int;
      (** intersection computations run: crossing searches for a pair,
          not counting those a crossing certificate answered *)
  mutable audit_failures : int;
      (** audit passes that found a violated invariant *)
  mutable rebuilds : int;  (** self-healing O(N log N) rebuilds performed *)
  mutable audit_structure : int;
      (** order-list structural violations (AVL balance, sizes) found *)
  mutable audit_order : int;  (** sweep-order inversions found *)
  mutable audit_event : int;
      (** event-queue/adjacency violations (stale or mistargeted) found *)
  mutable audit_dead : int;   (** dead entries found still mounted *)
  mutable audit_clock : int;  (** events found preceding the clock *)
}

let zero_stats () =
  { crossings = 0; swaps = 0; births = 0; deaths = 0; batches = 0; jumps = 0;
    comparisons = 0; searches = 0; audit_failures = 0; rebuilds = 0;
    audit_structure = 0; audit_order = 0; audit_event = 0; audit_dead = 0;
    audit_clock = 0 }

(** Add a sweep's event, comparison and search counts into [acc] (the audit
    breakdown is not summed). *)
let accumulate acc s =
  acc.crossings <- acc.crossings + s.crossings;
  acc.swaps <- acc.swaps + s.swaps;
  acc.births <- acc.births + s.births;
  acc.deaths <- acc.deaths + s.deaths;
  acc.batches <- acc.batches + s.batches;
  acc.jumps <- acc.jumps + s.jumps;
  acc.comparisons <- acc.comparisons + s.comparisons;
  acc.searches <- acc.searches + s.searches;
  acc.audit_failures <- acc.audit_failures + s.audit_failures;
  acc.rebuilds <- acc.rebuilds + s.rebuilds

(** Corollary 6's m: crossings + births + deaths. *)
let support_changes s = s.crossings + s.births + s.deaths

(** Per-object attribution: the comparisons and adjacent transpositions an
    object took part in.  A comparison bumps both participants, so the sum
    over objects is 2× [stats.comparisons] less the participations of the
    constant curves from query terms; likewise for swaps. *)
type hot = {
  h_oid : Moq_mod.Oid.t;
  h_comparisons : int;
  h_swaps : int;
}

(** Hottest first: comparisons descending, then swaps descending, then oid
    ascending. *)
let rank_hot hots =
  List.sort
    (fun a b ->
      match Int.compare b.h_comparisons a.h_comparisons with
      | 0 ->
        (match Int.compare b.h_swaps a.h_swaps with
         | 0 -> Moq_mod.Oid.compare a.h_oid b.h_oid
         | c -> c)
      | c -> c)
    hots

(** One ranked list with each oid's comparisons and swaps summed across
    [lists]. *)
let merge_hot lists =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun h ->
         let c, s =
           Option.value ~default:(0, 0) (Hashtbl.find_opt tbl h.h_oid)
         in
         Hashtbl.replace tbl h.h_oid (c + h.h_comparisons, s + h.h_swaps)))
    lists;
  rank_hot
    (Hashtbl.fold
       (fun o (c, s) acc -> { h_oid = o; h_comparisons = c; h_swaps = s } :: acc)
       tbl [])

(** The top five of a ranked list as rank-indexed gauges
    [moq_hot_{oid,comparisons,swaps}_i], plus [moq_hot_coverage_pct], their
    share of all attributed comparisons (not set when nothing was
    attributed).  Rank gauges left over from a previous publish keep their
    old values: readers key on the current ranks only. *)
let publish_hot sink hots =
  let set name v = Moq_obs.Sink.set sink name (float_of_int v) in
  let total = List.fold_left (fun a h -> a + h.h_comparisons) 0 hots in
  let top = ref 0 in
  List.iteri
    (fun i h ->
      if i < 5 then begin
        top := !top + h.h_comparisons;
        set (Printf.sprintf "moq_hot_oid_%d" i) h.h_oid;
        set (Printf.sprintf "moq_hot_comparisons_%d" i) h.h_comparisons;
        set (Printf.sprintf "moq_hot_swaps_%d" i) h.h_swaps
      end)
    hots;
  if total > 0 then
    Moq_obs.Sink.set sink "moq_hot_coverage_pct"
      (100. *. float_of_int !top /. float_of_int total)
