(** The plane-sweep core (paper, Section 5).

    Maintains the precedence relation [≤_τ] of a set of g-distance curves as
    a balanced ordered sequence (the paper's object list [L]), and an event
    queue holding — per Lemma 9's optimization — at most one pending
    intersection event for each pair of {e currently adjacent} curves, in a
    deletable leftist heap.  Crossings, births (curve domain starts) and
    deaths (domain ends) are processed in chronological batches; after each
    batch the engine re-establishes the invariant by re-examining the
    neighbourhoods that changed.

    Simultaneous events (several curves meeting at one instant) are resolved
    by a local bubble pass with the "just after τ′" comparator — the paper's
    "the precedence relation is modified before the propagation is done".

    Both the past-query evaluator ({!Sweep}) and the future-query monitor
    ({!Monitor}) drive this engine. *)

module Make (B : Backend.S) : sig
  module C : module type of Curves.Make (B)

  type label =
    | Obj of Moq_mod.Oid.t * int
        (** object OID and time-term index (0 = the plain variable [t]) *)
    | Cst of Moq_numeric.Rat.t
        (** a constant curve for a real constant appearing in the query *)

  val compare_label : label -> label -> int
  val pp_label : Format.formatter -> label -> unit

  type entry

  val label : entry -> label
  val curve : entry -> B.PW.t

  val participations : entry -> int * int
  (** The comparisons and the adjacent transpositions the entry took part
      in, including those of the entry its label displaced when it was
      inserted again.  Counted whatever [attr] is. *)

  val pending_crossing : entry -> B.instant option
  (** The instant of the entry's queued crossing event with its right
      neighbour. *)

  val value_sign_at : B.instant -> entry -> entry -> int
  (** Exact sign of the first entry's curve value minus the second's at
      the instant, which both curves must cover.  Reads the enclosures
      and pieces each entry memoises per instant (the sweep's comparisons
      fill the same memo) and computes exactly only when the enclosures
      overlap.  Counts no comparison. *)

  type t

  include module type of struct include Sweep_cost end
  (** The cost records ({!Sweep_cost.stats}, {!Sweep_cost.hot}) and their
      ranking, merge and publishing, shared by every backend. *)

  (** Audit violations, typed by the invariant they break — the per-kind
      counters in {!stats} and the [moq_engine_audit_violation_*_total]
      metrics aggregate these. *)
  type violation_kind = V_structure | V_order | V_event | V_dead | V_clock

  val violation_kind_name : violation_kind -> string

  val create :
    ?sink:Moq_obs.Sink.t -> ?attr:bool -> start:B.P.F.t -> ?horizon:B.P.F.t ->
    (label * B.PW.t) list -> t
  (** Initialize the sweep at time [start]: curves alive at [start] are
      sorted into the object list (O(N log N), Theorem 5(1)); curves whose
      domain begins later are scheduled as birth events.  Curves ending
      before [start] are ignored.  Events after [horizon] are never
      scheduled.  [attr] (default [true]) reports per-object
      comparison/swap attribution through {!hot_objects}.  The counts
      live in the entries (two integer increments per comparison) and
      are kept either way; with [false], {!hot_objects} answers [[]]. *)

  val hot_objects : t -> hot list
  (** Every attributed object, ranked by {!Sweep_cost.rank_hot}; [[]] when
      attribution is off. *)

  val now : t -> B.instant
  val stats : t -> stats
  val order : t -> entry list
  (** Current order of the sweep line, ascending by curve value. *)

  val first_n : t -> int -> entry list
  (** The [n] lowest entries (fewer if the list is shorter). *)

  val nth_entry : t -> int -> entry option
  (** Entry at 0-based rank, O(log N). *)

  val rank_of : t -> entry -> int
  (** Current 0-based rank of a mounted entry, O(log N). *)

  val size : t -> int

  val find : t -> label -> entry option
  (** An entry currently in the sweep (born and not dead). *)

  type step =
    | Span of B.instant * B.instant
        (** the open interval between consecutive event instants, over which
            the order (hence the support, by Lemma 8) was constant; emitted
            while the engine holds this span's order and before the batch
            that closes it leaves the queue, so its {!audit} is clean *)
    | Point of B.instant
        (** an event instant; emitted after crossings and births applied
            and the order settled, before deaths removed *)

  val advance : t -> upto:B.P.F.t -> emit:(step -> unit) -> unit
  (** Process all events with instant strictly before [upto].  [emit] is
      called per the [step] protocol; the final span up to [upto] is {e not}
      emitted (callers close it — they know whether [upto] is an update time
      or the query horizon).  Lifetimes are closed: an entry whose curve
      stops at the clock (at {!create}'s start, or at a {!replace_curve}
      that ends it there) stays on the line for the caller's read of that
      instant, and the first advance removes it without emitting a second
      [Point]. *)

  (* Update-time mutations (the paper's three cases).  Each runs in
     O(log N) plus rescheduling, per Lemma 9. *)

  (* Each mutation carries its update time [at ≥ now]; the engine clock
     moves to [at] (the paper "increments the time in the MOD").  Advancing
     past the events that precede [at] is the caller's job. *)

  val sync_clock : t -> at:B.P.F.t -> unit
  (** Move the clock to [at ≥ now] without touching the curves (an update
      that does not affect mounted entries). *)

  val insert : t -> at:B.P.F.t -> label -> B.PW.t -> unit
  (** [new]: insert a curve (its domain must contain [at]). *)

  val remove : t -> at:B.P.F.t -> label -> unit
  (** [terminate]: remove the entry and its events; the newly adjacent pair
      is re-examined. *)

  val replace_curve : t -> at:B.P.F.t -> label -> B.PW.t -> unit
  (** [chdir]: substitute the entry's curve (which must agree with the old
      one at [at], by trajectory continuity); the order does not change, but
      the entry's pending intersections are recomputed — exactly the paper's
      chdir case.  A [terminate] substitutes the curve cut at [at]. *)

  val replace_all_curves : t -> at:B.P.F.t -> (entry -> B.PW.t) -> unit
  (** Theorem 10: a direction update on the {e query} trajectory changes
      every curve at once while preserving the current precedence relation.
      Rebuilds all pending events in O(N) heap construction without
      re-sorting the object list. *)

  (** {2 Audit and heal}

      One checker and one heal step.  {!audit_kinds} checks the sweep
      invariant (Lemma 9) without raising: the order list's structure, the
      order sorted just after the clock (an inversion only where a crossing
      batched exactly at the clock backs it), one live event per adjacent
      pair, correctly targeted, no dead entry mounted, and no pending event
      before the clock.  {!audit}, {!check_invariants} and
      {!audit_and_heal} are its three readings.  {!heal} counts one audit
      pass's findings and, on any, falls back to {!rebuild}; a caller with
      invariants of its own (the monitor's clock) passes them along with
      the engine's.  The invariant holds whenever the caller has control:
      between operations and inside both [step] callbacks of {!advance}. *)

  val audit_kinds : t -> (violation_kind * string) list
  (** The violations found, each tagged by the invariant it breaks;
      [[]] when clean.  O(N) comparisons plus the order list's check. *)

  val audit : t -> string list
  (** {!audit_kinds}, human-readable. *)

  val check_invariants : t -> unit
  (** {!audit} for tests.
      @raise Failure listing the violations, if any. *)

  val rebuild : t -> unit
  (** The Theorem 10 fallback: discard the sweep structures and rebuild the
      object list and event queue from the entries' curves at the current
      clock, in O(N log N).  Also heals entries whose birth or death event
      was lost.  Semantics-preserving on a healthy engine. *)

  val heal : t -> (violation_kind * string) list -> string list
  (** Count one audit pass and, when it found violations, count them (per
      kind in {!stats} and the sink) and {!rebuild}.  Returns the
      violations' texts. *)

  val audit_and_heal : t -> string list
  (** [heal t (audit_kinds t)]. *)
end
