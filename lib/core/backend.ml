(** Sweep backends.

    The plane-sweep engine is parametric in how it represents points on the
    time axis and how it finds curve intersections.  The {!Exact} backend
    computes with rational coefficients and real algebraic event times —
    every comparison the sweep makes is decided exactly, standing in for the
    real-closed-field oracle the paper assumes.  The {!Approx} backend uses
    floats and numeric root finding; it is the fast configuration used by
    the benchmarks (experiment A2 compares the two).  The {!Filtered}
    backend is the exact-geometric-computation middle ground: it carries an
    outward-rounded float interval alongside every exact value, decides
    signs and comparisons from the intervals when they are conclusive, and
    falls back to the exact machinery only when an interval straddles zero —
    bit-identical answers to {!Exact} at a fraction of the cost (experiment
    A3 measures the hit rate and speedup). *)

module Q = Moq_numeric.Rat

module type S = sig
  val name : string
  (** The backend's name as [moq explain] reports it. *)

  module P : Moq_poly.Poly_intf.S
  module PW : Moq_poly.Piecewise_intf.S with type P.t = P.t and type P.F.t = P.F.t

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

  val scalar_of_rat : Q.t -> P.F.t
  val curve_of_qpiece : Moq_poly.Piecewise.Qpiece.t -> PW.t
  val instant_to_float : instant -> float
  val pp_instant : Format.formatter -> instant -> unit
end

module Exact :
  S
    with type P.t = Moq_poly.Qpoly.t
     and type P.F.t = Q.t
     and type PW.t = Moq_poly.Piecewise.Qpiece.t
     and type instant = Moq_poly.Algnum.t =
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

  let scalar_after i ~upto =
    match upto with
    | None -> A.rational_above i
    | Some u -> A.rational_between i (A.of_rat u)

  let scalar_of_rat q = q
  let curve_of_qpiece c = c
  let instant_to_float = A.to_float
  let pp_instant = A.pp
end

module Approx :
  S
    with type P.t = Moq_poly.Fpoly.t
     and type P.F.t = float
     and type PW.t = Moq_poly.Piecewise.Fpiece.t
     and type instant = float =
struct
  let name = "approx"

  module P = Moq_poly.Fpoly
  module PW = Moq_poly.Piecewise.Fpiece

  type instant = float

  let instant_of_scalar t = t
  let compare_instant = Float.compare
  let compare_instant_scalar = Float.compare

  (* Event instants are roots computed in floating point, so evaluating a
     polynomial "at a crossing" yields a tiny nonzero residue.  Signs are
     therefore taken relative to the polynomial's magnitude at the point —
     the float analogue of the exact backend's algebraic zero test. *)
  let sign_at_instant p t =
    let v = P.eval p t in
    let at = Float.abs t in
    let scale =
      List.fold_left
        (fun (acc, pow) c -> (acc +. (Float.abs c *. pow), pow *. at))
        (0.0, 1.0) (P.to_list p)
      |> fst
    in
    (* Horner's rounding error is a small multiple of eps times the
       magnitude sum; anything beyond that is a real sign. *)
    if Float.abs v <= 32.0 *. epsilon_float *. (1.0 +. scale) then 0 else compare v 0.0

  let sign_after_instant p t =
    let rec go p =
      if P.is_zero p then 0
      else begin
        let s = sign_at_instant p t in
        if s <> 0 then s else go (P.derivative p)
      end
    in
    go p
  let first_root_after = Moq_poly.Froots.first_root_after
  let first_root_at_or_after = Moq_poly.Froots.first_root_at_or_after
  let all_roots = Moq_poly.Froots.real_roots
  let between a b = 0.5 *. (a +. b)

  let scalar_after i ~upto =
    match upto with
    | None -> i +. 1.0
    | Some u -> 0.5 *. (i +. u)

  let scalar_of_rat = Q.to_float
  let curve_of_qpiece = Moq_poly.Piecewise.fpiece_of_qpiece
  let instant_to_float t = t
  let pp_instant fmt t = Format.fprintf fmt "%g" t
end

(** Filtered exact backend.

    Every [instant] is an exact algebraic number shadowed by an
    outward-rounded float interval ({!Moq_numeric.Fintval}); polynomial
    coefficients get memoized interval shadows ({!Moq_poly.Shadow}).  Each
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
       and type P.F.t = Q.t
       and type PW.t = Moq_poly.Piecewise.Qpiece.t

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

  val of_algnum : Moq_poly.Algnum.t -> instant
end = struct
  let name = "filtered"

  module P = Moq_poly.Qpoly
  module PW = Moq_poly.Piecewise.Qpiece
  module A = Moq_poly.Algnum
  module IV = Moq_numeric.Fintval
  module Shadow = Moq_poly.Shadow
  module Sink = Moq_obs.Sink

  (* [zero_of]: a polynomial this instant is known to be an exact root of
     (set when the instant was produced as a root).  Lets [sign_at_instant]
     certify the zero sign structurally — intervals alone can never prove a
     sign of exactly zero at a non-dyadic point. *)
  type instant = { ex : A.t; mutable iv : IV.t; zero_of : P.t option }

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
      straddles := (0.5 *. (IV.lo iv +. IV.hi iv)) :: !straddles

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
    let t0 = Sink.wall () in
    let r = f () in
    fallback_ns := !fallback_ns +. ((Sink.wall () -. t0) *. 1e9);
    r

  (* Re-pull the (possibly refined-in-place) exact enclosure into the float
     shadow after an exact fallback, so later decisions hit. *)
  let refresh i =
    let lo, hi = A.bounds i.ex in
    i.iv <- IV.of_rat_bounds lo hi

  let of_algnum x =
    let lo, hi = A.bounds x in
    { ex = x; iv = IV.of_rat_bounds lo hi; zero_of = None }

  let to_algnum i = i.ex
  let instant_of_scalar s = { ex = A.of_rat s; iv = IV.of_rat s; zero_of = None }

  (* Is [p] the stored root polynomial, up to sign?  (The engine recomputes
     difference polynomials on the fly, so [p1 - p2] and [p2 - p1] both
     occur for the same crossing.) *)
  let is_zero_of i p =
    match i.zero_of with
    | Some p0 -> P.equal p p0 || P.equal p (P.neg p0)
    | None -> false

  let compare_instant a b =
    if a == b then 0
    else begin
      incr decisions;
      match IV.compare_certain a.iv b.iv with
      | Some c -> hit c
      | None when
          (match a.zero_of, b.zero_of with
           | Some pa, Some pb ->
             P.degree pa = 1 && (P.equal pa pb || P.equal pa (P.neg pb))
           | _ -> false) ->
        hit 0 (* both are the unique root of the same linear polynomial *)
      | None ->
        miss ~at:a.iv (fun () ->
          let c = A.compare a.ex b.ex in
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
        let c = A.compare i.ex (A.of_rat s) in
        refresh i;
        c)

  let sign_at_instant p i =
    if P.is_zero p then 0
    else begin
      incr decisions;
      match IV.sign (Shadow.eval_at p i.iv) with
      | Some s -> hit s
      | None when is_zero_of i p -> hit 0
      | None ->
        miss ~at:i.iv (fun () ->
          let s = A.sign_of_poly_at p i.ex in
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

  (* --- root filtering ------------------------------------------------- *)

  let linear_root p = Q.neg (Q.div (P.coeff p 0) (P.coeff p 1))

  (* Promote a finite interval [rc], already proved to contain exactly one
     root of [p] strictly beyond the threshold, into an exact instant.  The
     endpoint signs are checked exactly (cheap dyadic rationals); a zero or
     same-sign endpoint means the float certificate was too optimistic and
     the caller must fall back. *)
  let certify_root p (rc : IV.t) : instant option =
    if not (IV.is_finite rc) then None
    else begin
      let ql = Q.of_float (IV.lo rc) and qh = Q.of_float (IV.hi rc) in
      if Q.compare ql qh >= 0 then None
      else if P.sign_at p ql * P.sign_at p qh < 0 then
        Some { ex = A.root_of_isolating_exn p ~lo:ql ~hi:qh; iv = rc; zero_of = Some p }
      else None
    end

  (* The real roots of a quadratic, as far as float intervals can tell. *)
  type quad_roots =
    | No_real  (** discriminant certainly negative *)
    | Two of IV.t * IV.t  (** disjoint enclosures of the two roots, ascending *)
    | Unsure  (** a double root, near-tangency, or an inconclusive discriminant *)

  let quad_roots p =
    let a2 = Shadow.coeff p 2 and a1 = Shadow.coeff p 1 and a0 = Shadow.coeff p 0 in
    let disc = IV.sub (IV.mul a1 a1) (IV.mul (IV.of_int 4) (IV.mul a2 a0)) in
    match IV.sign disc with
    | Some s when s < 0 -> No_real
    | Some s when s > 0 ->
      let sq = IV.sqrt disc in
      let two_a2 = IV.mul (IV.of_int 2) a2 in
      let r1 = IV.div (IV.sub (IV.neg a1) sq) two_a2 in
      let r2 = IV.div (IV.add (IV.neg a1) sq) two_a2 in
      if IV.hi r1 < IV.lo r2 then Two (r1, r2)
      else if IV.hi r2 < IV.lo r1 then Two (r2, r1)
      else Unsure
    | _ -> Unsure

  (* Interval prefilter for the first root of a quadratic at-or-beyond a
     threshold enclosed by [tv].  Outer [None] = inconclusive (exact
     fallback); [Some ans] = certain answer.  A root exactly at the
     threshold is never certified, so the same filter serves both the
     strict ("after") and weak ("at or after") variants — they only differ
     on that always-fallback case. *)
  let quad_first_root p roots (tv : IV.t) : instant option option =
    match roots with
    | No_real -> Some None
    | Unsure -> None
    | Two (rmin, rmax) ->
      if IV.hi rmax < IV.lo tv then Some None (* both roots certainly before *)
      else if IV.lo rmin > IV.hi tv then Option.map Option.some (certify_root p rmin)
      else if IV.hi rmin < IV.lo tv && IV.lo rmax > IV.hi tv then
        Option.map Option.some (certify_root p rmax)
      else None

  (* The next crossing of two curves that have just crossed: [i] is itself
     a root of the quadratic [p], so its enclosure meets one of the two
     root enclosures and the threshold filter above cannot decide.  Being
     a root, [i] is the smaller one when it lies wholly below the larger
     one's enclosure (the answer is the larger root), and the larger one
     when it lies wholly above the smaller one's (no root follows). *)
  let own_root_successor p roots i : instant option option =
    match roots with
    | Two (rmin, rmax) when is_zero_of i p ->
      if IV.hi i.iv < IV.lo rmax then Option.map Option.some (certify_root p rmax)
      else if IV.lo i.iv > IV.hi rmin then Some None
      else None
    | _ -> None

  let first_root_after p i =
    let d = P.degree p in
    if d <= 0 then None
    else begin
      incr decisions;
      if d = 1 then begin
        let r = linear_root p in
        let rv = IV.of_rat r in
        let root () = Some { ex = A.of_rat r; iv = rv; zero_of = Some p } in
        match IV.compare_certain rv i.iv with
        | Some c -> hit (if c > 0 then root () else None)
        | None ->
          (* [i] the unique root of [p] itself: no root strictly after *)
          if is_zero_of i p then hit None
          else
            miss ~at:rv (fun () ->
              if A.compare (A.of_rat r) i.ex > 0 then root () else None)
      end
      else if d = 2 then begin
        let roots = quad_roots p in
        match quad_first_root p roots i.iv with
        | Some ans -> hit ans
        | None ->
          (match own_root_successor p roots i with
           | Some ans -> hit ans
           | None ->
             miss ~at:i.iv (fun () -> Option.map of_algnum (A.first_root_after p i.ex)))
      end
      else miss ~at:i.iv (fun () -> Option.map of_algnum (A.first_root_after p i.ex))
    end

  let first_root_at_or_after p s =
    let d = P.degree p in
    if d <= 0 then None
    else begin
      incr decisions;
      if d = 1 then begin
        let r = linear_root p in
        let rv = IV.of_rat r in
        let root () = Some { ex = A.of_rat r; iv = rv; zero_of = Some p } in
        match IV.compare_certain rv (IV.of_rat s) with
        | Some c -> hit (if c >= 0 then root () else None)
        | None ->
          miss ~at:rv (fun () ->
            if Q.compare r s >= 0 then root () else None)
      end
      else if d = 2 then begin
        match quad_first_root p (quad_roots p) (IV.of_rat s) with
        | Some ans -> hit ans
        | None ->
          miss ~at:(IV.of_rat s)
            (fun () -> Option.map of_algnum (A.first_root_at_or_after p (A.of_rat s)))
      end
      else
        miss ~at:(IV.of_rat s)
          (fun () -> Option.map of_algnum (A.first_root_at_or_after p (A.of_rat s)))
    end

  let all_roots p = List.map of_algnum (A.roots p)

  (* A float strictly inside the open gap (l, h), if one exists. *)
  let gap_mid l h =
    let m = 0.5 *. (l +. h) in
    if l < m && m < h && Float.is_finite m then Some m else None

  let between a b =
    incr decisions;
    let fast =
      if IV.hi a.iv < IV.lo b.iv then gap_mid (IV.hi a.iv) (IV.lo b.iv)
      else if IV.hi b.iv < IV.lo a.iv then gap_mid (IV.hi b.iv) (IV.lo a.iv)
      else None
    in
    match fast with
    | Some m -> hit (Q.of_float m) (* exact dyadic, strictly between *)
    | None -> miss ~at:a.iv (fun () -> A.rational_between a.ex b.ex)

  let scalar_after i ~upto =
    match upto with
    | None -> A.rational_above i.ex
    | Some u ->
      incr decisions;
      let uv = IV.of_rat u in
      let fast = if IV.hi i.iv < IV.lo uv then gap_mid (IV.hi i.iv) (IV.lo uv) else None in
      (match fast with
       | Some m -> hit (Q.of_float m)
       | None -> miss ~at:i.iv (fun () -> A.rational_between i.ex (A.of_rat u)))

  let scalar_of_rat q = q
  let curve_of_qpiece c = c
  let instant_to_float i = A.to_float i.ex

  (* Print the bytes [Exact] prints for the same number.  [A.pp]'s bytes
     depend only on the representation: a rational prints as itself, and
     a root as the 2^-40-wide canonical cell of its polynomial's fresh
     isolation, whatever refinement its own interval has seen.  Every
     instant here holds the representation Exact holds — a certified
     root keeps the squarefree polynomial Exact's [A.roots] would — except
     a linear crossing: it is held as its [Rational] value, while Exact
     holds the element of [A.roots p], which prints as [root(...)] unless
     a bisection midpoint is the value itself.  So that one prints as
     Exact's element. *)
  let pp_instant fmt i =
    match i.zero_of with
    | Some p when P.degree p = 1 -> A.pp fmt (List.hd (A.roots p))
    | _ -> A.pp fmt i.ex
end
