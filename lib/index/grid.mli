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

    Floats decide; exact rationals are computed only when a float cannot.
    Every key is the one [cell_of] gives on [Q.to_float] of the exact
    coordinate: it is read off an outward-rounded enclosure of that
    coordinate when both ends of the enclosure fall in one cell, and from
    the exact coordinate otherwise.  A shard's exact box is computed the
    first time {!separation_exceeds} finds its enclosure inconclusive, or
    {!shard_box} asks for it; {!entries} derives exact piece boxes when it
    is called.  So every key, member list and pruning decision is the one
    exact arithmetic gives.  A grid is built and read by one thread (its
    exact boxes are [Lazy]). *)

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
    [[]] for an empty cell.  Builds the boxes and sorts on every call. *)

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
  members : Oid.t list;  (** ascending OID *)
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
(** The home shard an object was assigned to. *)

val ring_cells : t -> center:int * int -> ring:int -> (int * int) list
(** The cells at Chebyshev distance exactly [ring] from [center] that are
    non-empty in the piece index. *)

val max_ring : t -> center:int * int -> int
(** The largest ring around [center] that can contain a non-empty cell
    (0 for an empty index): expanding past it is guaranteed to find
    nothing. *)

val ring_candidates : t -> center:int * int -> ring:int -> Oid.t list
(** Distinct OIDs with at least one piece bucketed in a cell of the given
    ring, ascending. *)

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
