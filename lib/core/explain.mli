(** Query plan + cost reports ([moq explain]).

    A report is plain data (ints, floats, strings — no functor types) built
    after a query run from three sources: the engine's {!Sweep_cost.stats},
    the backend's filter statistics (when the interval-filtered backend ran),
    and the observability registry the run counted into.  It answers, for one
    concrete query: which backend evaluated it, how much sweep work it did
    (batches, events, comparisons — the cost unit of the paper's analysis),
    whether the per-event work stayed within the Lemma 9 O(log N) regime,
    which instants defeated the interval filter, and which objects were
    hottest.

    Rendered as aligned text for humans and as a stable JSON document for
    tooling; the JSON schema is golden-tested and versioned by
    [moq_explain]. *)

(** Engine counters for the run (from {!Sweep_cost.stats}). *)
type sweep = {
  batches : int;       (** distinct event instants processed *)
  crossings : int;
  births : int;
  deaths : int;
  jumps : int;
  swaps : int;         (** the paper's m is counted in these *)
  comparisons : int;   (** total, including the initial O(N log N) sort *)
  support_changes : int;  (** crossings + births + deaths (Corollary 6's m) *)
}

(** Lemma 9 check: per-event order-list work, measured over the event
    batches only (the initial sort is excluded — the paper's analysis
    charges it separately as O(N log N)). *)
type lemma9 = {
  events : int;           (** events processed across all batches *)
  event_comparisons : int;  (** comparisons spent inside batches *)
  ops_per_event : float;  (** event_comparisons / max 1 events *)
  bound : float;          (** the report's c·log2(N+1) + c' reference line *)
  within : bool;          (** ops_per_event <= bound *)
}

(** Interval-filter outcome (filtered backend only). *)
type filter = {
  f_hits : int;
  f_misses : int;       (** inconclusive intervals — exact fallbacks *)
  f_decisions : int;
  f_fallback_ns : float;
  f_straddles : float list;
      (** midpoints of the first inconclusive intervals (capped), i.e. the
          concrete instants that straddled the filter *)
}

(** Sharded-sweep pruning outcome (sharded backends only). *)
type shards = {
  s_total : int;       (** home shards in the spatial index *)
  s_touched : int;     (** shards actually swept *)
  s_admitted : int;    (** objects admitted into the merge sweep *)
  s_pruned : int;      (** objects never admitted *)
  s_merge_ops : int;   (** frontier labels offered to the admitted union *)
  s_events : int;      (** events across all shard sweeps *)
  s_band : float option;  (** the band bound B (squared distance) *)
}

(** Continuous POI aggregation outcome ([moq agg] / agg subscriptions). *)
type agg = {
  a_pois : int;      (** places of interest *)
  a_windows : int;   (** tumbling windows per POI *)
  a_rows : int;      (** rows finalized *)
  a_admitted : int;  (** watch admissions across POIs (initial + lazy) *)
  a_pruned : int;    (** admission tests that kept an object out *)
  a_updates : int;   (** updates offered to the aggregation *)
  a_forwarded : int; (** update deliveries into per-POI monitors *)
}

(** A named wall-clock phase of the run. *)
type phase = {
  name : string;
  ns : float;
}

type t = {
  kind : string;
      (** ["past"] | ["knn"] | ["cql"] | ["agg"] from [moq explain];
          ["knn"] | ["range"] from the server's slow-query capture *)
  query : string;    (** human-readable description of what ran *)
  backend : string;
      (** ["exact"] | ["filtered"] | ["sharded-filtered"] *)
  classification : string;
      (** Definition 5 classification of the query against the MOD clock:
          ["past"] | ["continuing"] | ["future"]; ["n/a"] when the run is
          not classification-driven (plain k-NN) *)
  n_objects : int;
  lo : float;
  hi : float;        (** query window, as floats for display *)
  timeline_pieces : int;  (** spans+instants in the simplified answer *)
  sweep : sweep;
  lemma9 : lemma9;
  filter : filter option;
  shards : shards option;
  agg : agg option;
  hot : Sweep_cost.hot list;  (** hottest first ({!Sweep_cost.rank_hot}) *)
  phases : phase list;
  counters : (string * float) list;
      (** the run's registry, flattened — lets a reader reconcile the
          report against the exported metrics *)
}

val sweep_of : Sweep_cost.stats -> sweep
(** A run's sweep block; [support_changes] is {!Sweep_cost.support_changes}. *)

val zero_sweep : sweep
(** The sweep block of a run that swept nothing. *)

val lemma9_bound : n_objects:int -> float
(** The reference line [8 + 4·log2 (N+1)] comparisons per event.  The
    constants are generous by design: the report flags regime changes
    (quadratic blowups, audit storms), not constant-factor noise. *)

val make :
  kind:string -> query:string -> backend:string -> ?classification:string ->
  n_objects:int -> lo:float -> hi:float -> timeline_pieces:int ->
  sweep:sweep -> ?filter:filter -> ?shards:shards -> ?agg:agg ->
  ?hot:Sweep_cost.hot list ->
  ?phases:phase list ->
  counters:(string * float) list -> unit -> t
(** Assemble a report.  The {!lemma9} block is derived here: events and
    event-comparisons are read from the [moq_sweep_events_total] /
    [moq_sweep_comparisons_total] counters (falling back to zero when the
    run was unobserved), the bound from {!lemma9_bound}. *)

val top_hot : ?k:int -> t -> Sweep_cost.hot list
(** First [k] (default 5) hot objects. *)

val hot_coverage : t -> float
(** Fraction (0..1) of total attributed comparisons covered by the top-5
    hot objects; 0 when attribution is off or nothing was attributed. *)

val to_json : t -> Moq_obs.Json.t
(** Stable, golden-tested schema; top-level key [moq_explain = 3].
    Version history: 1 = original; 2 = added the [shards] block (null for
    unsharded runs); 3 = added the [agg] block (null for non-aggregation
    runs). *)

val to_text : t -> string
(** Aligned human-readable report (what [moq explain] prints without
    [--json]). *)
