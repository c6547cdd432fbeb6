(** The sharded, index-pruned k-NN sweep driver.

    The plain sweep ({!Knn}) maintains one global order over all N distance
    curves, so every event pays O(log N) even when all the action is in one
    corner of the plane.  This driver makes per-event cost a function of
    {e local} activity instead:

    + {b Index}: bucket every trajectory piece by its (x, y) bounding box
      over its time span in a {!Moq_index.Grid}; each object gets a {e home
      shard} (the cell under its window-entry position) carrying a float
      enclosure of the union box of its members' window motion, and that
      exact box on demand.
    + {b Band}: find k pilot objects near the query trajectory by ring
      search, compute each pilot's exact maximum squared distance over the
      window, and let B be the k-th smallest — at every instant of the
      window at least k objects sit within B, so nothing farther than B
      throughout the window can ever enter (or tie) the top-k band.
    + {b Prune}: skip every shard whose box separation from the query
      trajectory's window box exceeds B (decided on the enclosures, and on
      the exact boxes only when the enclosures cannot decide).  No engine
      is built for a pruned shard; its members' curves are never
      constructed.
    + {b Shard sweeps}: each surviving shard runs its own independent
      order-list/event-queue ({!Engine.Make}) over only its members, and
      emits its {e candidate frontier}: the shard-local k-NN answer of
      every span and event instant, ties with the shard-local k-th
      included ({!Reader}).
    + {b Merge}: an object enters the final order list only if some shard's
      frontier admitted it.  One small merge sweep over the admitted union
      produces the global timeline.

    Soundness of the frontier (why the result is bit-identical to
    {!Knn.run_obs} over the full database): an object in the global answer
    at instant t (an event instant, or a span's read instant) has global
    rank <= k, hence shard-local rank <= k; an
    object tied with the global k-th at t either has shard-local rank <= k
    or — because at most k-1 objects anywhere are strictly closer than the
    global k-th — ties its shard's local k-th, and is admitted by the tie
    extension.  Pruned-shard members stay strictly outside the band by the
    exact bound B.  The admitted union therefore contains every object that
    ever appears in the exact timeline, and since {!Timeline.simplify}
    collapses answer-preserving event instants in both runs, the merge
    sweep's simplified timeline equals the exact backend's, piece for
    piece.

    All pruning decisions are made in exact rational arithmetic — the
    driver never trades answers for speed.  Composes with any backend; use
    {!Backend.Filtered} for the production [sharded-filtered] mode. *)

module Q = Moq_numeric.Rat

module Make (B : Backend.S) : sig
  module E : module type of Engine.Make (B)
  module TL : module type of Timeline.Make (B)

  (** Pruning-effectiveness accounting for one run (the [moq_shard_*]
      counters and the [moq explain] shards block read these). *)
  type shard_stats = {
    shards_total : int;  (** home shards in the index *)
    shards_touched : int;  (** shards actually swept *)
    admitted : int;  (** objects admitted into the merge sweep *)
    pruned : int;  (** objects never admitted (band- or frontier-pruned) *)
    frontier_merge_ops : int;
        (** frontier labels offered to the admitted union *)
    shard_events : int;  (** events across all shard sweeps *)
    band : float option;
        (** the band bound B (squared distance), as a float for display;
            [None] when no sound band was found (everything swept) *)
  }

  type result = {
    timeline : TL.t;  (** bit-identical to {!Knn.run_obs} on the full DB *)
    stats : E.stats;  (** aggregate over shard sweeps + merge sweep *)
    shard : shard_stats;
    hot : E.hot list;
        (** per-object attribution summed over every sweep
            ({!Sweep_cost.merge_hot}) *)
  }

  val run_obs :
    sink:Moq_obs.Sink.t ->
    db:Moq_mod.Mobdb.t ->
    gamma:Moq_mod.Trajectory.t ->
    k:int ->
    lo:Q.t ->
    hi:Q.t ->
    ?cell:float ->
    unit ->
    result
  (** Sharded k-NN under the squared-Euclidean g-distance to [gamma]
      (the geometric distance the spatial index prunes against).  [cell]
      (default 64.) is the grid cell side.  Counts [moq_shard_*] metrics
      into [sink] alongside the usual sweep counters.  Band pruning
      degrades gracefully: when [gamma] does not cover the window or fewer
      than k objects live throughout it, every shard is swept (frontier
      pruning still applies) and answers are unaffected.
      @raise Invalid_argument if [k <= 0]. *)

  val shards_block : shard_stats -> Explain.shards
  (** The [moq explain] shards block of a run. *)

  val run :
    db:Moq_mod.Mobdb.t -> gamma:Moq_mod.Trajectory.t -> k:int -> lo:Q.t ->
    hi:Q.t -> ?cell:float -> unit -> result
end
