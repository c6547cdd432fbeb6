(** The alibi query: "could objects o1 and o2 have met within distance d
    during [t1, t2]?" — the canonical hard quantifier-elimination instance
    for the piecewise-linear MOD model (Othman–Kuijpers–Grimson, PAPERS.md).

    In this data model no elimination is needed: the squared inter-object
    distance is a continuous piecewise quadratic, so the query reduces to
    "does [q(t) = |p1(t) − p2(t)|² − d²] attain a non-positive value on the
    window ∩ common lifetime", decided exactly on the algebraic kernel —
    either the window opens with [q ≤ 0], or [q]'s first real root at or
    after the window start falls inside the piece.  The witness returned is
    the {e earliest} meeting instant, an exact algebraic number. *)

module Q = Moq_numeric.Rat
module T = Moq_mod.Trajectory
module Gdist = Moq_core.Gdist
module Qpoly = Moq_poly.Qpoly
module Qpiece = Moq_poly.Piecewise.Qpiece

module Make (B : Moq_core.Backend.S) = struct
  type verdict =
    | No_meet
    | Meet of B.instant  (** earliest instant with [|p1 − p2| <= d] *)

  let meets = function No_meet -> false | Meet _ -> true

  (* The piece list of [c] with explicit closed ends: [(s_i, e_i, p_i)]
     where the last end is the curve's stop. *)
  let closed_pieces c =
    match B.PW.stop c with
    | None -> invalid_arg "Alibi: unbounded curve after clipping"
    | Some stop ->
      let rec go = function
        | [] -> []
        | [ (s, p) ] -> [ (s, stop, p) ]
        | (s, p) :: ((s', _) :: _ as rest) -> (s, s', p) :: go rest
      in
      go (B.PW.pieces c)

  let decide ~(o1 : T.t) ~(o2 : T.t) ~(d : Q.t) ~(lo : Q.t) ~(hi : Q.t) :
      verdict =
    if Q.compare lo hi > 0 then invalid_arg "Alibi.decide: lo > hi";
    let d2 = Q.mul d d in
    let birth = Q.max (T.birth o1) (T.birth o2) in
    let death =
      match T.death o1, T.death o2 with
      | None, None -> None
      | Some e, None | None, Some e -> Some e
      | Some e1, Some e2 -> Some (Q.min e1 e2)
    in
    let disjoint_lifetimes =
      match death with Some e -> Q.compare birth e >= 0 | None -> false
    in
    if disjoint_lifetimes then No_meet
    else
    (* |p1(t) − p2(t)|² − d² over the common lifetime, exact rational
       coefficients; the backend only enters for root isolation *)
    let sq = Gdist.curve (Gdist.euclidean_sq ~gamma:o2) o1 in
    let q = Qpiece.map (fun p -> Qpoly.sub p (Qpoly.constant d2)) sq in
    let qlo = Qpiece.start q and qhi = Qpiece.stop q in
    let lo = Q.max lo qlo in
    let hi = match qhi with None -> hi | Some e -> Q.min hi e in
    if Q.compare lo hi > 0 then No_meet (* window misses the common lifetime *)
    else begin
      let c =
        (* half-open domains: keep one past [hi] when clipping, the closed
           endpoint is checked on the covering polynomial below *)
        if Q.compare lo hi = 0 then q else Qpiece.clip q ~from_:(Some lo) ~until:(Some hi)
      in
      let check_piece (s, e, p) =
        if B.sign_at_instant p (B.instant_of_scalar s) <= 0 then
          Some (B.instant_of_scalar s)
        else
          match B.first_root_at_or_after p s with
          | Some r when B.compare_instant r (B.instant_of_scalar e) <= 0 ->
            Some r
          | _ -> None
      in
      if Q.compare lo hi = 0 then begin
        (* degenerate window: a single instant — the domain is half-open so
           evaluate the last piece whose start is at or before it *)
        let p =
          List.fold_left
            (fun acc (s, p) ->
              if B.P.F.compare s hi <= 0 then Some p else acc)
            None (B.PW.pieces c)
        in
        match p with
        | Some p when B.sign_at_instant p (B.instant_of_scalar hi) <= 0 ->
          Meet (B.instant_of_scalar hi)
        | _ -> No_meet
      end
      else begin
        let rec scan = function
          | [] -> No_meet
          | piece :: rest -> (
            match check_piece piece with Some w -> Meet w | None -> scan rest)
        in
        scan (closed_pieces c)
      end
    end

  (* Dense-sampling refutation check, for the property suite: every sampled
     instant where the objects are within [d] must be at or after the
     verdict's witness; a [No_meet] verdict must have no such sample. *)
  let sample_within ~(o1 : T.t) ~(o2 : T.t) ~(d : Q.t) (t : Q.t) : bool =
    match T.position o1 t, T.position o2 t with
    | Some p1, Some p2 ->
      Q.compare (Moq_geom.Vec.Qvec.dist2 p1 p2) (Q.mul d d) <= 0
    | _ -> false
end
