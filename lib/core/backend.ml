(** Sweep backends.

    The plane-sweep engine is parametric in how it represents points on the
    time axis and how it finds curve intersections.  Both backends are
    exact: every comparison the sweep makes is decided exactly, standing in
    for the real-closed-field oracle the paper assumes, and both read the
    same rational curves.  The {!Exact} backend computes with rational
    coefficients and real algebraic event times.  The {!Filtered} backend,
    which the server, the sharded scan and the scaling benchmarks sweep
    on, is the exact-geometric-computation fast path: it carries an
    outward-rounded float interval alongside every exact value, decides
    signs and comparisons from the intervals when they are conclusive, and
    falls back to the exact machinery only when an interval straddles zero —
    bit-identical answers to {!Exact} at a fraction of the cost (experiment
    A3 measures the hit rate and speedup).

    The sweep reads curves through piece operations on their views
    ({!S.locate}, {!S.diff_root_after}, ...), not through prebuilt
    difference polynomials: Exact forms the difference and answers on
    it; Filtered answers from the views' float enclosures and forms it
    only when they cannot decide. *)

module Q = Moq_numeric.Rat

(* The piece operations of {!S} by way of the exact difference: Exact's,
   and Filtered's fallback when the views' enclosures cannot decide. *)
module Via_difference (X : sig
  module P : Moq_poly.Poly_intf.S
  module PW : Moq_poly.Piecewise_intf.S with type P.t = P.t and type P.F.t = P.F.t

  type instant

  val compare_instant_scalar : instant -> P.F.t -> int
  val sign_at_instant : P.t -> instant -> int
  val sign_after_instant : P.t -> instant -> int

  val root_after : P.t -> P.t -> instant -> instant option
  (** [root_after q1 q2 i] is [first_root_after (P.sub q1 q2) i]; a
      backend may tag the root with its two pieces. *)

  val root_at_or_after : P.t -> P.t -> P.F.t -> instant option
  (** [first_root_at_or_after (P.sub q1 q2) s], likewise. *)
end) =
struct
  open X

  let diff (v1 : PW.view) k1 (v2 : PW.view) k2 = P.sub v1.polys.(k1) v2.polys.(k2)
  let compare_instant_knot i (v : PW.view) j = compare_instant_scalar i v.starts.(j)

  let rec find_piece cmp (v : PW.view) i k =
    if k + 1 < v.count && cmp i v (k + 1) >= 0 then find_piece cmp v i (k + 1) else k

  (* The same comparisons, in the same order, as a walk down the piece
     list: the start, the stop, then each next start until one lies
     beyond the instant. *)
  let locate_with cmp (v : PW.view) i =
    if cmp i v 0 < 0 then invalid_arg "Curves.piece_at: before curve start";
    if Array.length v.starts > v.count && cmp i v v.count > 0 then
      invalid_arg "Curves.piece_at: after curve stop";
    find_piece cmp v i 0

  let locate v i = locate_with compare_instant_knot v i
  let diff_sign_at v1 k1 v2 k2 i = sign_at_instant (diff v1 k1 v2 k2) i
  let diff_sign_after v1 k1 v2 k2 i = sign_after_instant (diff v1 k1 v2 k2) i
  let diff_root_after (v1 : PW.view) k1 (v2 : PW.view) k2 i = root_after v1.polys.(k1) v2.polys.(k2) i

  let diff_root_from (v1 : PW.view) k1 (v2 : PW.view) k2 (v : PW.view) j =
    root_at_or_after v1.polys.(k1) v2.polys.(k2) v.starts.(j)
end

module type S = sig
  val name : string
  (** The backend's name as [moq explain] reports it. *)

  module P : Moq_poly.Poly_intf.S with type F.t = Q.t

  module PW :
    Moq_poly.Piecewise_intf.S
      with type P.t = P.t
       and type P.F.t = Q.t
       and type t = Moq_poly.Piecewise.Qpiece.t
  (** Curves are the rational curves {!Gdist} builds; every scalar is a
      rational. *)

  (** A point on the sweep line (an event time). *)
  type instant

  val instant_of_scalar : P.F.t -> instant
  val compare_instant : instant -> instant -> int
  val compare_instant_scalar : instant -> P.F.t -> int

  val sign_at_instant : P.t -> instant -> int
  (** Exact sign of a polynomial at the instant. *)

  val sign_after_instant : P.t -> instant -> int
  (** Sign immediately to the right of the instant (first non-vanishing
      derivative).  Zero only for the zero polynomial. *)

  val first_root_after : P.t -> instant -> instant option
  val first_root_at_or_after : P.t -> P.F.t -> instant option

  val all_roots : P.t -> instant list
  (** All distinct real roots, ascending (used by the naive baseline, which
      precomputes every pairwise crossing instead of sweeping). *)

  val between : instant -> instant -> P.F.t
  (** A scalar strictly between two distinct instants (the paper's
      "[τ' + ε]" sample points). *)

  val scalar_after : instant -> upto:P.F.t option -> P.F.t
  (** A scalar strictly greater than the instant (and at most [upto] when
      bounded; assumes the instant precedes [upto]). *)

  (** {2 Pieces of curves}

      The sweep reads a curve through its {!PW.view} and a piece by its
      index there.  Each operation below decides what the one named in
      its doc decides, on the exact difference of the two pieces; a
      backend with float shadows answers from the view's enclosures when
      they settle it, and builds the difference only when they do not. *)

  val compare_instant_knot : instant -> PW.view -> int -> int
  (** [compare_instant_knot i v j] is [compare_instant_scalar i v.starts.(j)]. *)

  val locate : PW.view -> instant -> int
  (** The index of the piece in force at the instant (the last piece
      starting at or before it; the last piece at the stop).
      @raise Invalid_argument outside the curve's domain. *)

  type enclosure
  (** A float enclosure of a piece's value at an instant. *)

  val enclose : PW.view -> int -> instant -> enclosure
  (** [enclose v k i] encloses the value of piece [k] at the instant. *)

  val order_enclosures : enclosure -> enclosure -> int option
  (** [Some s] ([s] = ±1) only when the two enclosures are disjoint: [s]
      is then the exact sign of the first enclosed value minus the second.
      [None] when they overlap, and always on a backend without
      enclosures: the caller decides exactly. *)

  val diff_sign_at : PW.view -> int -> PW.view -> int -> instant -> int
  (** [diff_sign_at v1 k1 v2 k2 i] is [sign_at_instant (P.sub p1 p2) i],
      with [p1] piece [k1] of [v1] and [p2] piece [k2] of [v2]. *)

  val diff_sign_after : PW.view -> int -> PW.view -> int -> instant -> int
  (** [sign_after_instant (P.sub p1 p2) i], likewise. *)

  val diff_root_after : PW.view -> int -> PW.view -> int -> instant -> instant option
  (** [first_root_after (P.sub p1 p2) i], likewise; the pieces differ. *)

  val diff_root_from :
    PW.view -> int -> PW.view -> int -> PW.view -> int -> instant option
  (** [diff_root_from v1 k1 v2 k2 v j] is
      [first_root_at_or_after (P.sub p1 p2) v.starts.(j)]; the pieces
      differ. *)

  val instant_to_float : instant -> float

  val instant_to_string : instant -> string
  (** The instant's text: for the exact backends, {!Moq_poly.Algnum.to_string}'s
      canonical bytes, which depend only on the instant's value.  A
      filtered instant whose exact number is still deferred prints them
      without building it. *)

  val pp_instant : Format.formatter -> instant -> unit
  (** Prints {!instant_to_string}'s bytes. *)
end

module Exact : S with type P.t = Moq_poly.Qpoly.t and type instant = Moq_poly.Algnum.t =
struct
  let name = "exact"

  module P = Moq_poly.Qpoly
  module PW = Moq_poly.Piecewise.Qpiece
  module A = Moq_poly.Algnum

  type instant = A.t

  let instant_of_scalar = A.of_rat
  let compare_instant = A.compare
  let compare_instant_scalar i s = A.compare i (A.of_rat s)
  let sign_at_instant p i = A.sign_of_poly_at p i

  let sign_after_instant p i =
    let rec go p =
      if P.is_zero p then 0
      else begin
        let s = A.sign_of_poly_at p i in
        if s <> 0 then s else go (P.derivative p)
      end
    in
    go p

  let first_root_after = A.first_root_after

  let first_root_at_or_after p s = A.first_root_at_or_after p (A.of_rat s)

  let all_roots = A.roots

  let between a b = A.rational_between a b

  include Via_difference (struct
    module P = P
    module PW = PW

    type nonrec instant = instant

    let compare_instant_scalar = compare_instant_scalar
    let sign_at_instant = sign_at_instant
    let sign_after_instant = sign_after_instant
    let root_after q1 q2 i = first_root_after (P.sub q1 q2) i
    let root_at_or_after q1 q2 s = first_root_at_or_after (P.sub q1 q2) s
  end)

  type enclosure = unit

  let enclose _ _ _ = ()
  let order_enclosures () () = None

  let scalar_after i ~upto =
    match upto with
    | None -> A.rational_above i
    | Some u -> A.rational_between i (A.of_rat u)

  let instant_to_float = A.to_float
  let instant_to_string = A.to_string
  let pp_instant = A.pp
end

(** Filtered exact backend.

    Every [instant] is an exact algebraic number shadowed by an
    outward-rounded float interval ({!Moq_numeric.Fintval}); a crossing
    the intervals alone proved builds its exact number only when first
    read.  Curves are read through their views, which hold an enclosure
    of every knot and coefficient: locating a piece, enclosing its value,
    finding the next root of two pieces' difference (from the
    difference's enclosures, formed coefficient by coefficient) and the
    sign at and just after a crossing of the same two pieces all run on
    floats, and the exact difference of two pieces is built only when
    they cannot decide.  A prebuilt polynomial's coefficients are
    enclosed afresh on each call, in the same flat layout, and one root
    filter serves both: every root it finds is tagged with its two
    pieces (or its polynomial), its degree, its index and the sign just
    after it.  Each
    predicate first tries to decide from the intervals — a {e hit} — and
    only when the interval answer is inconclusive runs the exact
    Sturm/Algnum machinery — a {e miss}, whose wall time is accumulated so
    the benchmarks can attribute cost.  Because every decision the sweep
    engine consumes (signs, comparisons, root existence and order) is
    either proved by an enclosing interval or delegated to [Exact], the
    produced event sequence, orders and support sets are bit-identical to
    the exact backend's. *)
module Filtered : sig
  include
    S
      with type P.t = Moq_poly.Qpoly.t
       and type PW.view = Moq_poly.Piecewise.Qpiece.view
       and type enclosure = Moq_numeric.Fintval.t

  type filter_stats = {
    hits : int;  (** decisions settled by intervals alone *)
    misses : int;  (** decisions that fell back to exact arithmetic *)
    decisions : int;  (** total filtered decisions (= hits + misses) *)
    fallback_ns : float;  (** wall time spent inside exact fallbacks *)
    straddles : float list;
        (** approximate locations (float midpoints of the inconclusive
            enclosure) of the first few instants whose interval straddled
            and forced an exact fallback — the concrete places the filter
            lost, surfaced by [moq explain]; capped at 16, capture order *)
  }

  val filter_stats : unit -> filter_stats
  val reset_filter_stats : unit -> unit

  val publish : Moq_obs.Sink.t -> unit
  (** Push the current absolute [moq_filter_hit] / [moq_filter_miss] /
      [moq_filter_fallback_ns] values as counter increments; callers reset
      first ({!reset_filter_stats}) to publish one run's worth. *)

  val to_algnum : instant -> Moq_poly.Algnum.t
  (** The exact value, for cross-backend comparison in tests/benchmarks. *)

  val print_builds : unit -> int
  (** Deferred quadratic instants whose exact number was built while a
      thread was inside {!instant_to_string}, since start.  Printing names
      them through {!Moq_poly.Algnum.root_to_string} and leaves them
      deferred, so with one thread this counts the exact builds printing
      caused, and stays 0. *)

  val of_algnum : Moq_poly.Algnum.t -> instant

  val diff_shadow : PW.view -> int -> PW.view -> int -> float array
  (** [diff_shadow v1 k1 v2 k2]: enclosures of the coefficients of piece
      [k1] of [v1] minus piece [k2] of [v2] as flat pairs (coefficient [j]
      is [Fintval.get d (2 * j)]), lowest degree first, up to the larger
      of the two degrees, as the root search forms them from the views
      (for the enclosure properties in the tests). *)
end = struct
  let name = "filtered"

  module P = Moq_poly.Qpoly
  module PW = Moq_poly.Piecewise.Qpiece
  module A = Moq_poly.Algnum
  module IV = Moq_numeric.Fintval
  module Sink = Moq_obs.Sink

  (* A root the filter found: root [index] (ascending) of [p1 - p2],
     whose degree is [deg] (1 or 2) and whose sign just after the root is
     [after].  [p1] and [p2] are the two pieces of a crossing, or a
     caller's polynomial and [P.zero].  [diff] is [p1 - p2] once built,
     [P.zero] before; like [exact] below, the write is idempotent, so
     racing threads agree. *)
  type pair = { p1 : P.t; p2 : P.t; deg : int; index : int; after : int; mutable diff : P.t }

  (* What an instant is known to be an exact root of: nothing, or the
     difference of two polynomials.  Lets [sign_at_instant] certify the
     zero sign structurally — intervals alone can never prove a sign of
     exactly zero at a non-dyadic point. *)
  type root = Unrooted | Root_of_pair of pair

  (* The exact value, built on first exact read.  A crossing the float
     filter proved is scheduled as [Deferred]: its enclosure and which
     root of its [root] polynomial it is.  Most are discarded when their
     pair stops being adjacent, so the exact certificate
     ({!A.root_of_enclosure}) runs only for the few that a decision or an
     output reads. *)
  type exact = Known of A.t | Deferred of { enc : IV.t; index : int }

  type instant = { mutable ex : exact; mutable iv : IV.t; root : root }

  let pair_diff r =
    if P.is_zero r.diff then r.diff <- P.sub r.p1 r.p2;
    r.diff

  let root_poly i =
    match i.root with
    | Root_of_pair r -> pair_diff r
    | Unrooted -> invalid_arg "Backend.Filtered: not a root"

  let linear_root p = Q.neg (Q.div (P.coeff p 0) (P.coeff p 1))

  (* Force the exact value.  The write is idempotent rather than [Lazy]:
     query threads and the commit thread print the same instants, and two
     threads that race here each build an equal number from the same
     enclosure; whichever write lands, later reads agree.  A linear root
     is its rational, as Exact builds it.  [print_builds] counts the
     quadratic ones built while some thread is inside [instant_to_string]
     ([printing] > 0). *)
  let printing = Atomic.make 0
  let print_builds = Atomic.make 0

  let exact i =
    match i.ex with
    | Known x -> x
    | Deferred { enc; index } ->
      let p = root_poly i in
      if P.degree p = 2 && Atomic.get printing > 0 then Atomic.incr print_builds;
      let x =
        if P.degree p = 1 then A.of_rat (linear_root p)
        else A.root_of_enclosure p ~lo:(Q.of_float enc.IV.lo) ~hi:(Q.of_float enc.IV.hi) ~index
      in
      i.ex <- Known x;
      x

  type filter_stats = {
    hits : int;
    misses : int;
    decisions : int;
    fallback_ns : float;
    straddles : float list;
  }

  let hits = ref 0
  let misses = ref 0
  let decisions = ref 0
  let fallback_ns = ref 0.0

  let straddle_cap = 16
  let straddles = ref []  (* first [straddle_cap] captures, newest first *)
  let straddle_count = ref 0

  let filter_stats () =
    { hits = !hits; misses = !misses; decisions = !decisions;
      fallback_ns = !fallback_ns; straddles = List.rev !straddles }

  let reset_filter_stats () =
    hits := 0;
    misses := 0;
    decisions := 0;
    fallback_ns := 0.0;
    straddles := [];
    straddle_count := 0

  let note_straddle (iv : IV.t) =
    incr straddle_count;
    if !straddle_count <= straddle_cap then
      straddles := (0.5 *. (iv.IV.lo +. iv.IV.hi)) :: !straddles

  let publish sink =
    Sink.count sink "moq_filter_hit" !hits;
    Sink.count sink "moq_filter_miss" !misses;
    Sink.count sink "moq_filter_fallback_ns" (int_of_float !fallback_ns)

  let hit v =
    incr hits;
    v

  let miss ?at f =
    incr misses;
    (match at with Some iv -> note_straddle iv | None -> ());
    let t0 = Sink.monotonic () in
    let r = f () in
    fallback_ns := !fallback_ns +. ((Sink.monotonic () -. t0) *. 1e9);
    r

  (* Re-pull the (possibly refined-in-place) exact enclosure into the float
     shadow after an exact fallback, so later decisions hit. *)
  let refresh i =
    let lo, hi = A.bounds (exact i) in
    i.iv <- IV.of_rat_bounds lo hi

  let of_algnum x =
    let lo, hi = A.bounds x in
    { ex = Known x; iv = IV.of_rat_bounds lo hi; root = Unrooted }

  let to_algnum = exact
  let instant_of_scalar s = { ex = Known (A.of_rat s); iv = IV.of_rat s; root = Unrooted }

  (* Is [p] the polynomial the instant is a root of, up to sign?  (The
     engine recomputes difference polynomials on the fly, so [p1 - p2]
     and [p2 - p1] both occur for the same crossing.) *)
  let is_zero_of i p =
    match i.root with
    | Unrooted -> false
    | _ ->
      let p0 = root_poly i in
      P.equal p p0 || P.equal p (P.neg p0)

  (* Are [q1] and [q2] physically the pieces the crossing [r] was found
     on, in either order? *)
  let same_pieces r q1 q2 = (r.p1 == q1 && r.p2 == q2) || (r.p1 == q2 && r.p2 == q1)

  (* Are both instants the unique root of one linear polynomial? *)
  let same_linear_root a b =
    match a.root, b.root with
    | Root_of_pair x, Root_of_pair y when x.deg = 1 && y.deg = 1 ->
      same_pieces x y.p1 y.p2
      ||
      let pa = pair_diff x and pb = pair_diff y in
      P.equal pa pb || P.equal pa (P.neg pb)
    | _ -> false

  let compare_instant a b =
    if a == b then 0
    else begin
      incr decisions;
      match IV.compare_certain a.iv b.iv with
      | Some c -> hit c
      | None when same_linear_root a b -> hit 0
      | None ->
        miss ~at:a.iv (fun () ->
          let c = A.compare (exact a) (exact b) in
          refresh a;
          refresh b;
          c)
    end

  let compare_instant_scalar i s =
    incr decisions;
    match IV.compare_certain i.iv (IV.of_rat s) with
    | Some c -> hit c
    | None ->
      miss ~at:i.iv (fun () ->
        let c = A.compare (exact i) (A.of_rat s) in
        refresh i;
        c)

  let sign_at_instant p i =
    if P.is_zero p then 0
    else begin
      incr decisions;
      match IV.sign (IV.horner (P.enclose_coefs p) 0 (P.degree p + 1) i.iv) with
      | Some s -> hit s
      | None when is_zero_of i p -> hit 0
      | None ->
        miss ~at:i.iv (fun () ->
          let s = A.sign_of_poly_at p (exact i) in
          refresh i;
          s)
    end

  let sign_after_instant p i =
    let rec go p =
      if P.is_zero p then 0
      else begin
        let s = sign_at_instant p i in
        if s <> 0 then s else go (P.derivative p)
      end
    in
    go p

  type enclosure = IV.t

  let below = Some (-1)
  let above = Some 1

  (* Disjoint enclosures prove the order; an overlap is left to the
     caller's exact sign test, which counts its own decision. *)
  let order_enclosures a b =
    if a.IV.hi < b.IV.lo then begin
      incr decisions;
      hit below
    end
    else if b.IV.hi < a.IV.lo then begin
      incr decisions;
      hit above
    end
    else None

  (* --- root filtering ------------------------------------------------- *)

  (* The tag of root [index] of [q1 - q2] of degree [d]: the sign just
     after it is the leading coefficient's sign [s], or [-s] after the
     smaller root of a quadratic.  The sign is [diff]'s when it is built;
     otherwise the leading enclosure in [c], which the filter has proved
     to exclude zero. *)
  let tag q1 q2 diff (c : float array) d index =
    let s = if not (P.is_zero diff) then Q.sign (P.coeff diff d) else if c.(2 * d) > 0.0 then 1 else -1 in
    let after = if d = 2 && index = 0 then - s else s in
    Root_of_pair { p1 = q1; p2 = q2; deg = d; index; after; diff }

  (* Root [index] proved by its enclosure [rc] alone, or [None] (the
     exact fallback) when [rc] is infinite or a single point. *)
  let deferred q1 q2 diff c d (rc : IV.t) index =
    if IV.is_finite rc && rc.IV.lo < rc.IV.hi then
      Some (Some { ex = Deferred { enc = rc; index }; iv = rc; root = tag q1 q2 diff c d index })
    else None

  (* The threshold [th]'s index among the roots of [q1 - q2] when it is
     one of them: read off the pieces it was found on when the difference
     [diff] is not built, by comparing polynomials when it is. *)
  let own_index q1 q2 diff th =
    match th.root with
    | Root_of_pair r when if P.is_zero diff then same_pieces r q1 q2 else is_zero_of th diff ->
      Some r.index
    | _ -> None

  (* The threshold of a search for roots at or after a scalar, which is
     no root. *)
  let scalar_threshold = instant_of_scalar Q.zero

  let iv_two = IV.of_int 2
  let iv_four = IV.of_int 4

  (* The kernel's one root filter: the first root of [q1 - q2], of degree
     [d], beyond the threshold enclosed by [tv] (strictly after it when
     [strict]), from enclosures of the difference's coefficients, flat
     pairs in [c], lowest degree first.  [diff] is the difference when it
     is built (a search on a polynomial), whose linear root is then its
     exact rational; [P.zero] when it is not (a search on two views'
     pieces).  [th] is the threshold instant of a strict search
     ([scalar_threshold] otherwise): when it is itself a root of the
     difference ([own_index]), just after root 0 of two the next is root
     1, and after the last there is none.  A root proved by enclosures
     alone is [Deferred]: nothing exact runs here, and {!exact} finishes
     the certificate when the instant is first read.  Outer [None]: the enclosures cannot settle it (a degree other than 1
     or 2, an inconclusive discriminant, a root enclosure meeting the
     threshold, an infinite or single-point root enclosure), and the
     caller decides exactly. *)
  let root_filter q1 q2 diff (c : float array) d (tv : IV.t) ~strict th : instant option option =
    if d = 1 then begin
      let r = if P.is_zero diff then None else Some (linear_root diff) in
      let rv = match r with Some r -> IV.of_rat r | None -> IV.div (IV.neg (IV.get c 0)) (IV.get c 2) in
      match IV.compare_certain rv tv with
      | Some o when o > 0 || (o = 0 && not strict) -> (
        match r with
        | Some r -> Some (Some { ex = Known (A.of_rat r); iv = rv; root = tag q1 q2 diff c 1 0 })
        | None -> deferred q1 q2 diff c d rv 0)
      | Some _ -> Some None
      | None -> if own_index q1 q2 diff th = None then None else Some None
    end
    else if d = 2 then begin
      let a2 = IV.get c 4 and a1 = IV.get c 2 in
      let disc = IV.sub (IV.mul a1 a1) (IV.mul iv_four (IV.mul a2 (IV.get c 0))) in
      match IV.sign disc with
      | Some s when s < 0 -> Some None
      | Some s when s > 0 ->
        (* [a2] excludes zero when the two root enclosures are disjoint:
           otherwise the divisions span the line *)
        let sq = IV.sqrt disc and two_a2 = IV.mul iv_two a2 in
        let r1 = IV.div (IV.sub (IV.neg a1) sq) two_a2 and r2 = IV.div (IV.add (IV.neg a1) sq) two_a2 in
        let rmin, rmax = if r1.IV.hi < r2.IV.lo then (r1, r2) else (r2, r1) in
        if not (rmin.IV.hi < rmax.IV.lo) then None (* a double root or a near-tangency *)
        else if rmax.IV.hi < tv.IV.lo then Some None (* both roots certainly before *)
        else if rmin.IV.lo > tv.IV.hi then deferred q1 q2 diff c d rmin 0
        else if rmin.IV.hi < tv.IV.lo && rmax.IV.lo > tv.IV.hi then deferred q1 q2 diff c d rmax 1
        else (
          match own_index q1 q2 diff th with
          | Some 0 -> deferred q1 q2 diff c d rmax 1
          | Some _ -> Some None
          | None -> None)
      | _ -> None
    end
    else None

  (* A root search on the built polynomial [p], which is [q1 - q2]: the
     filter on the enclosures of its exact coefficients, then the exact
     answer, one decision either way.  The threshold is an instant (roots
     strictly after it) or a scalar (roots at or after it). *)
  type threshold = After of instant | From of Q.t

  let poly_root q1 q2 p th =
    let d = P.degree p in
    if d <= 0 then None
    else begin
      incr decisions;
      let c = P.enclose_coefs p in
      let ans =
        match th with
        | After i -> root_filter q1 q2 p c d i.iv ~strict:true i
        | From s -> root_filter q1 q2 p c d (IV.of_rat s) ~strict:false scalar_threshold
      in
      match ans with
      | Some ans -> hit ans
      | None when d = 1 ->
        let r = linear_root p in
        miss ~at:(IV.of_rat r) (fun () ->
          let beyond =
            match th with
            | After i -> A.compare (A.of_rat r) (exact i) > 0
            | From s -> Q.compare r s >= 0
          in
          if beyond then Some { ex = Known (A.of_rat r); iv = IV.of_rat r; root = tag q1 q2 p c 1 0 }
          else None)
      | None -> (
        match th with
        | After i -> miss ~at:i.iv (fun () -> Option.map of_algnum (A.first_root_after p (exact i)))
        | From s ->
          miss ~at:(IV.of_rat s) (fun () ->
            Option.map of_algnum (A.first_root_at_or_after p (A.of_rat s))))
    end

  let first_root_after p i = poly_root p P.zero p (After i)
  let first_root_at_or_after p s = poly_root p P.zero p (From s)
  let all_roots p = List.map of_algnum (A.roots p)

  (* --- pieces, from the curves' shadows ------------------------------ *)

  module D = Via_difference (struct
    module P = P
    module PW = PW

    type nonrec instant = instant

    let compare_instant_scalar = compare_instant_scalar
    let sign_at_instant = sign_at_instant
    let sign_after_instant = sign_after_instant
    let root_after q1 q2 i = poly_root q1 q2 (P.sub q1 q2) (After i)
    let root_at_or_after q1 q2 s = poly_root q1 q2 (P.sub q1 q2) (From s)
  end)

  (* [compare_instant_scalar] against a knot's stored enclosure. *)
  let compare_instant_knot i (v : PW.view) j =
    incr decisions;
    let lo = v.bounds.(2 * j) and hi = v.bounds.((2 * j) + 1) in
    if i.iv.IV.hi < lo then hit (-1)
    else if hi < i.iv.IV.lo then hit 1
    else if i.iv.IV.lo = i.iv.IV.hi && lo = hi && i.iv.IV.lo = lo then hit 0
    else
      miss ~at:i.iv (fun () ->
        let c = A.compare (exact i) (A.of_rat v.starts.(j)) in
        refresh i;
        c)

  let locate v i = D.locate_with compare_instant_knot v i

  (* [sign_at_instant]'s enclosure of the piece's value, from the view's
     coefficients *)
  let enclose (v : PW.view) k i =
    let at = v.coef_at.(k) in
    IV.horner v.coefs at ((v.coef_at.(k + 1) - at) / 2) i.iv

  (* The two pieces are the ones [i] is a crossing of: the difference is
     zero there. *)
  let diff_sign_at (v1 : PW.view) k1 (v2 : PW.view) k2 i =
    let q1 = v1.polys.(k1) and q2 = v2.polys.(k2) in
    if q1 == q2 then 0
    else
      match i.root with
      | Root_of_pair r when same_pieces r q1 q2 ->
        incr decisions;
        hit 0
      | _ -> D.diff_sign_at v1 k1 v2 k2 i

  (* Just after root [index] of a polynomial with two simple roots or
     one, the sign is [pair.after]; the two decisions are the jet's two
     sign tests, of the value and of the derivative. *)
  let diff_sign_after (v1 : PW.view) k1 (v2 : PW.view) k2 i =
    let q1 = v1.polys.(k1) and q2 = v2.polys.(k2) in
    if q1 == q2 then 0
    else
      match i.root with
      | Root_of_pair r when same_pieces r q1 q2 ->
        decisions := !decisions + 2;
        hits := !hits + 2;
        if r.p1 == q1 then r.after else - r.after
      | _ -> D.diff_sign_after v1 k1 v2 k2 i

  (* The exact degree of [q1 - q2], read off the coefficients. *)
  let diff_degree q1 q2 =
    let rec go d = if d >= 0 && Q.equal (P.coeff q1 d) (P.coeff q2 d) then go (d - 1) else d in
    go (Int.max (P.degree q1) (P.degree q2))

  let zero_pair = [| 0.0; 0.0 |]

  let diff_shadow (v1 : PW.view) k1 (v2 : PW.view) k2 =
    let n = Int.max (P.degree v1.polys.(k1)) (P.degree v2.polys.(k2)) + 1 in
    let c = Array.create_float (2 * n) in
    for j = 0 to n - 1 do
      let c1 = v1.coef_at.(k1) + (2 * j) and c2 = v2.coef_at.(k2) + (2 * j) in
      let in1 = c1 < v1.coef_at.(k1 + 1) and in2 = c2 < v2.coef_at.(k2 + 1) in
      let e =
        IV.sub_pairs
          (if in1 then v1.coefs else zero_pair)
          (if in1 then c1 else 0)
          (if in2 then v2.coefs else zero_pair)
          (if in2 then c2 else 0)
      in
      c.(2 * j) <- e.IV.lo;
      c.((2 * j) + 1) <- e.IV.hi
    done;
    c

  (* The filter on the views' enclosures of the difference, which is
     formed only when they cannot decide: then [D] forms it and runs the
     filter again on its exact coefficients. *)
  let diff_root_after (v1 : PW.view) k1 (v2 : PW.view) k2 i =
    let q1 = v1.polys.(k1) and q2 = v2.polys.(k2) in
    let d = diff_degree q1 q2 in
    if d <= 0 then None
    else
      match root_filter q1 q2 P.zero (diff_shadow v1 k1 v2 k2) d i.iv ~strict:true i with
      | Some ans ->
        incr decisions;
        hit ans
      | None -> D.diff_root_after v1 k1 v2 k2 i

  let diff_root_from (v1 : PW.view) k1 (v2 : PW.view) k2 (v : PW.view) j =
    let q1 = v1.polys.(k1) and q2 = v2.polys.(k2) in
    let d = diff_degree q1 q2 in
    if d <= 0 then None
    else
      let tv = IV.get v.bounds (2 * j) in
      match root_filter q1 q2 P.zero (diff_shadow v1 k1 v2 k2) d tv ~strict:false scalar_threshold with
      | Some ans ->
        incr decisions;
        hit ans
      | None -> D.diff_root_from v1 k1 v2 k2 v j

  (* A float strictly inside the open gap (l, h), if one exists. *)
  let gap_mid l h =
    let m = 0.5 *. (l +. h) in
    if l < m && m < h && Float.is_finite m then Some m else None

  let between a b =
    incr decisions;
    let fast =
      if a.iv.IV.hi < b.iv.IV.lo then gap_mid a.iv.IV.hi b.iv.IV.lo
      else if b.iv.IV.hi < a.iv.IV.lo then gap_mid b.iv.IV.hi a.iv.IV.lo
      else None
    in
    match fast with
    | Some m -> hit (Q.of_float m) (* exact dyadic, strictly between *)
    | None -> miss ~at:a.iv (fun () -> A.rational_between (exact a) (exact b))

  let scalar_after i ~upto =
    match upto with
    | None -> A.rational_above (exact i)
    | Some u ->
      incr decisions;
      let uv = IV.of_rat u in
      let fast = if i.iv.IV.hi < uv.IV.lo then gap_mid i.iv.IV.hi uv.IV.lo else None in
      (match fast with
       | Some m -> hit (Q.of_float m)
       | None -> miss ~at:i.iv (fun () -> A.rational_between (exact i) (A.of_rat u)))

  let instant_to_float i = A.to_float (exact i)

  (* [A.to_string]'s bytes depend only on the value, so a linear crossing
     held as its [Rational] prints as Exact's root of the same line does.
     A deferred quadratic crossing is root [index] of its difference's
     monic form, which is the polynomial its exact number would hold, so
     it prints from the text memo without building that number. *)
  let instant_to_string i =
    Atomic.incr printing;
    Fun.protect ~finally:(fun () -> Atomic.decr printing) (fun () ->
        match i.ex with
        | Deferred { index; _ } when P.degree (root_poly i) = 2 ->
          A.root_to_string (P.monic (root_poly i)) index
        | _ -> A.to_string (exact i))

  let print_builds () = Atomic.get print_builds
  let pp_instant fmt i = Format.pp_print_string fmt (instant_to_string i)
end
