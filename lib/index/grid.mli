(** A spatio-temporal uniform grid over trajectory pieces.

    The production pruning layer behind the sharded sweep driver
    ({!Moq_core.Shard}): every trajectory piece of every object, clipped to a
    query window [[lo, hi]], is bucketed by the integer cell(s) its (x, y)
    bounding box overlaps over the piece's time span.

    Two derived structures drive pruning:

    - {e home shards}: each object is assigned to exactly one shard — the
      cell under its position when it enters the window — and each shard
      carries a float enclosure of the union box of its members' motion
      over the window.  A shard whose box provably stays farther from the
      query trajectory than the current k-NN band can be skipped without
      touching any of its members' curves.
    - {e ring search}: cells are enumerated outward from a center cell in
      Chebyshev rings, the grid flavour of the classic R-tree / R*-tree
      expanding-search protocol over (x, y, t) boxes.

    The index is one float pass over the MOD that writes flat arrays: per
    object its OID, its place in its home shard's member chain and its
    first piece; per clipped piece the integer cell rectangle its box
    overlaps; and per distinct home key one accumulator, the float
    enclosure of the shard's union box, whose NaN ends mark a shard with
    no window presence.  The pass encloses coefficients and piece ends in
    floats without allocating (a rational whose numerator and denominator
    fit a double's significand converts by one division), and clips pieces
    to the window by comparing those enclosures before any rational
    comparison.  Every key is the one [cell_of] gives on [Q.to_float] of
    the exact coordinate: it is read off an outward-rounded enclosure of
    that coordinate when both ends of the enclosure fall in one cell, and
    from the exact coordinate otherwise; every clip is the exact one.

    Nothing else is built until a reader asks.  A shard's member list and
    its exact box are [Lazy]: the sharded driver forces them for the
    shards it sweeps, and the box also when {!separation_exceeds} finds
    the enclosures inconclusive.  Pruning reads only the enclosure and the
    presence flag, which the pass computes for every shard, so the shards,
    their keys and every pruning decision are the ones exact arithmetic
    gives.  The ring readers bucket pieces by Chebyshev ring around a
    center when first asked about a ring there (a piece's rectangle meets
    a contiguous range of rings), out to a radius that doubles as rings
    farther out are asked for; they reach the pieces through the shards
    whose enclosures come within the radius, so a ring walk costs the
    shards plus the pieces near the center, and {!next_ring} skips the
    empty rings.  {!entries} scans the pieces and derives exact boxes when
    it is called.  A grid is built and read by one thread (its members,
    exact boxes and ring buckets are built on demand). *)

module Q = Moq_numeric.Rat
module Oid = Moq_mod.Oid

type box = {
  x0 : Q.t;
  x1 : Q.t;
  y0 : Q.t;
  y1 : Q.t;
}
(** Closed exact rational rectangle; [x0 <= x1], [y0 <= y1].  For
    one-dimensional databases the y extent is [[0, 0]]. *)

type entry = {
  e_oid : Oid.t;
  e_t0 : Q.t;  (** piece start, clipped to the window *)
  e_t1 : Q.t;  (** piece end, clipped to the window *)
  e_box : box;  (** exact spatial bounds of the piece over [[e_t0, e_t1]] *)
}

type t

val build : cell:float -> lo:Q.t -> hi:Q.t -> Moq_mod.Mobdb.t -> t
(** Index every object's trajectory pieces over the window [[lo, hi]].
    Objects with no presence in the window (dead before [lo], born after
    [hi]) still get a home shard (from their birth position) but contribute
    no piece entries and no box.
    @raise Invalid_argument if [cell <= 0] or [lo > hi]. *)

val cell_of : cell:float -> float * float -> int * int
(** The integer cell under a point, floor semantics on both axes (a point
    exactly on a cell boundary belongs to the higher cell — consistent with
    {!Moq_baseline.Grid_index}). *)

val cell_size : t -> float
val population : t -> int
(** Number of objects assigned to a home shard (= all objects in the DB). *)

val entries : t -> int * int -> entry list
(** The cell's piece list with exact boxes, ascending by [(e_t0, e_oid)];
    [[]] for an empty cell.  Scans every piece, builds the boxes and sorts
    on every call. *)

type enclosure = private {
  mutable x0l : float; mutable x0h : float;  (** [x0l <= x0 <= x0h] *)
  mutable x1l : float; mutable x1h : float;
  mutable y0l : float; mutable y0h : float;
  mutable y1l : float; mutable y1h : float;
}
(** Outward-rounded float enclosures of a box's four coordinates (fields
    are set only while {!build} runs). *)

val enclose : box -> enclosure

type shard = {
  key : int * int;
  members : Oid.t list Lazy.t;  (** ascending OID, built when forced *)
  present : bool;  (** some member has presence in the window *)
  enc : enclosure;
      (** encloses the exact union box of the members' window motion; when
          no member is [present], bounds that decide nothing *)
  box : box Lazy.t;
      (** that exact box, computed when forced; forcing it raises
          [Invalid_argument] when no member is [present] *)
}

val shards : t -> shard array
(** Every home shard, ascending by key; built once by {!build}, so a
    reader pays nothing per call.  Do not mutate. *)

val shard_box : shard -> box option
(** The shard's exact union box, forcing it; [None] when no member has
    any presence in the window. *)

val shard_of : t -> Oid.t -> (int * int) option
(** The home shard an object was assigned to; walks the member chains. *)

val max_ring : t -> center:int * int -> int
(** The largest ring around [center] that can contain a non-empty cell
    (0 for an empty index): expanding past it is guaranteed to find
    nothing. *)

val ring_candidates : t -> center:int * int -> ring:int -> Oid.t list
(** Distinct OIDs with at least one piece bucketed in a cell of the given
    ring (the cells at Chebyshev distance exactly [ring] from [center]),
    ascending. *)

val next_ring : t -> center:int * int -> ring:int -> int option
(** The least ring [>= ring] around [center] that holds a piece, if any:
    {!ring_candidates} is [[]] on every ring it skips. *)

val trajectory_box : Moq_mod.Trajectory.t -> lo:Q.t -> hi:Q.t -> box option
(** Exact union box of a trajectory's motion over the window; [None] when
    it has no presence in the window. *)

val box_separation_sq : box -> box -> Q.t
(** Exact squared distance between two boxes: 0 when they overlap, else the
    sum of squared per-axis gaps.  [d²(p, q) >= box_separation_sq a b] for
    any [p] in [a] and [q] in [b] — the lower bound pruning decides on. *)

val separation_exceeds :
  box Lazy.t -> enclosure -> box -> enclosure -> band:Q.t ->
  band_enc:Moq_numeric.Fintval.t -> bool
(** [Q.compare (box_separation_sq a b) band > 0], decided from the float
    enclosures ([band_enc] must enclose [band]) when they are conclusive
    and in exact arithmetic otherwise, so the answer is always the exact
    one.  [a] is forced only in the exact case. *)
