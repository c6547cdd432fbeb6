(** Backend-generic operations on g-distance curves: comparing two curves at
    or just after an instant, and finding their next crossing — the
    intersection computation the sweep schedules events with.

    Curves are read through their views ({!Moq_poly.Piecewise_intf.S.view}):
    knots and pieces by index, each knot and coefficient with a float
    enclosure built once per curve.  The backend's piece operations
    ({!Backend.S.locate}, {!Backend.S.diff_root_after}, ...) take the
    pieces themselves, so a backend with shadows decides from them and
    builds a difference polynomial only when they cannot settle a
    question. *)

module Make (B : Backend.S) = struct
  module P = B.P
  module PW = B.PW
  module F = B.P.F

  let has_stop (v : PW.view) = Array.length v.starts > v.count

  (* Does the curve's domain contain the instant? *)
  let covers (c : PW.t) (i : B.instant) : bool =
    let v = PW.view c in
    B.compare_instant_knot i v 0 >= 0
    && ((not (has_stop v)) || B.compare_instant_knot i v v.count <= 0)

  (* The polynomial piece of [c] in force at [i], with the end of its
     validity.  @raise Invalid_argument if [i] is outside the domain. *)
  let piece_at (c : PW.t) (i : B.instant) : P.t * F.t option =
    let v = PW.view c in
    let k = B.locate v i in
    (v.polys.(k), if k + 1 < Array.length v.starts then Some v.starts.(k + 1) else None)

  (* Sign of (c1 - c2) at instant [i]; both curves must cover [i]. *)
  let diff_sign_at c1 c2 i =
    let v1 = PW.view c1 and v2 = PW.view c2 in
    let k1 = B.locate v1 i in
    B.diff_sign_at v1 k1 v2 (B.locate v2 i) i

  (* Do the curves have a polynomial in common anywhere?  Compares
     pieces only: no instant is looked at. *)
  let share_piece c1 c2 =
    List.exists
      (fun (_, p1) -> List.exists (fun (_, p2) -> P.equal p1 p2) (PW.pieces c2))
      (PW.pieces c1)

  (* Do the curves run on one polynomial at [i]?  Compares the pieces in
     force there; no evaluation. *)
  let same_piece_at c1 c2 i =
    let p1, _ = piece_at c1 i and p2, _ = piece_at c2 i in
    P.equal p1 p2

  (* The common domain of two curves: its start and its stop. *)
  let common_domain (c1 : PW.t) (c2 : PW.t) : F.t * F.t option =
    let s = if F.compare (PW.start c1) (PW.start c2) >= 0 then PW.start c1 else PW.start c2 in
    let stop =
      match PW.stop c1, PW.stop c2 with
      | None, x | x, None -> x
      | Some a, Some b -> Some (if F.compare a b <= 0 then a else b)
    in
    (match stop with
     | Some e when F.compare s e > 0 -> invalid_arg "Curves: disjoint domains"
     | _ -> ());
    (s, stop)

  (* Merged piece boundaries of two curves restricted to their common
     domain: returns [(start, poly_diff, stop_opt)] segments in order. *)
  let diff_segments (c1 : PW.t) (c2 : PW.t) : (F.t * P.t * F.t option) list =
    let s, stop = common_domain c1 c2 in
    let inside b =
      F.compare s b < 0 && (match stop with None -> true | Some e -> F.compare b e < 0)
    in
    let bps =
      List.sort_uniq F.compare
        (List.filter inside (PW.breakpoints c1 @ PW.breakpoints c2))
    in
    let starts = s :: bps in
    let rec build = function
      | a :: (b :: _ as rest) ->
        let p1, _ = PW.piece_covering c1 a and p2, _ = PW.piece_covering c2 a in
        (a, P.sub p1 p2, Some b) :: build rest
      | [ a ] ->
        let p1, _ = PW.piece_covering c1 a and p2, _ = PW.piece_covering c2 a in
        [ (a, P.sub p1 p2, stop) ]
      | [] -> assert false
    in
    build starts

  (* Every instant in (after, horizon] at which the two curves are equal,
     ascending.  O(total roots) — the naive baseline's primitive. *)
  let all_crossings ~(after : B.instant) ?horizon (c1 : PW.t) (c2 : PW.t) : B.instant list =
    let within_horizon i =
      match horizon with None -> true | Some h -> B.compare_instant_scalar i h <= 0
    in
    (* closed on both ends: a root at an internal breakpoint appears in two
       segments and is deduplicated below *)
    let in_segment s e i =
      B.compare_instant_scalar i s >= 0
      && (match e with Some e' -> B.compare_instant_scalar i e' <= 0 | None -> true)
    in
    List.concat_map
      (fun (s, d, e) ->
        if P.is_zero d then []
        else
          List.filter
            (fun r ->
              B.compare_instant r after > 0 && within_horizon r && in_segment s e r)
            (B.all_roots d))
      (diff_segments c1 c2)
    |> List.sort_uniq B.compare_instant

  (* The piece of [v] in force from [a] on, searching from piece [k]. *)
  let rec piece_from (v : PW.view) k a =
    if k + 1 < v.count && F.compare v.starts.(k + 1) a <= 0 then piece_from v (k + 1) a else k

  (* [first_crossing]'s walk over the segment that starts at knot [ja] of
     [va], on pieces [k1] of [v1] and [k2] of [v2]; knot [ej] of [ev] is
     the common stop ([ej] = -1 when there is none). *)
  let rec scan ~after horizon (v1 : PW.view) (v2 : PW.view) (ev : PW.view) ej (va : PW.view) ja
      k1 k2 =
    (* the next knot inside the common domain, if any: knot [ji] of [vi],
       [ji] = -1 when there is none (a knot both curves have is [v1]'s) *)
    let by2 =
      k2 + 1 < v2.count
      && ((not (k1 + 1 < v1.count)) || F.compare v2.starts.(k2 + 1) v1.starts.(k1 + 1) < 0)
    in
    let vi = if by2 then v2 else v1 in
    let ji = if by2 then k2 + 1 else if k1 + 1 < v1.count then k1 + 1 else -1 in
    let ji = if ji >= 0 && ej >= 0 && F.compare vi.starts.(ji) ev.starts.(ej) >= 0 then -1 else ji in
    (* the segment's end: that knot, else the stop *)
    let ve = if ji >= 0 then vi else ev and je = if ji >= 0 then ji else ej in
    if (match horizon with Some h -> F.compare va.starts.(ja) h > 0 | None -> false) then None
    else if je >= 0 && B.compare_instant_knot after ve je >= 0 then
      next ~after horizon v1 v2 ev ej vi ji k1 k2
    else begin
      let p1 = v1.polys.(k1) and p2 = v2.polys.(k2) in
      (* where the curves coincide identically the order does not change;
         a separation shows up as a root at the next segment's start *)
      if p1 == p2 || P.equal p1 p2 then next ~after horizon v1 v2 ev ej vi ji k1 k2
      else begin
        let candidate =
          if B.compare_instant_knot after va ja < 0 then B.diff_root_from v1 k1 v2 k2 va ja
          else B.diff_root_after v1 k1 v2 k2 after
        in
        match candidate with
        | Some r when je < 0 || B.compare_instant_knot r ve je <= 0 ->
          (match horizon with
           | Some h when B.compare_instant_scalar r h > 0 -> None
           | _ -> candidate)
        | _ -> next ~after horizon v1 v2 ev ej vi ji k1 k2
      end
    end

  and next ~after horizon v1 v2 ev ej (vi : PW.view) ji k1 k2 =
    if ji < 0 then None
    else begin
      let b = vi.starts.(ji) in
      scan ~after horizon v1 v2 ev ej vi ji (piece_from v1 k1 b) (piece_from v2 k2 b)
    end

  (* Earliest instant strictly after [after] (and at most [horizon], when
     given) at which the two curves are equal.  Handles multi-piece curves
     and segments where the curves coincide identically (the crossing is
     then reported where they separate, via the root of the next segment's
     difference at its boundary).  The merged knots are walked one segment
     at a time: a segment that ends before [after] is skipped without
     looking at its pieces, and the walk stops at the first segment that
     holds a root. *)
  let first_crossing ~(after : B.instant) ?horizon (c1 : PW.t) (c2 : PW.t) : B.instant option =
    let v1 = PW.view c1 and v2 = PW.view c2 in
    (* the common domain starts at the later start and stops at the
       earlier stop *)
    let sv = if F.compare v1.starts.(0) v2.starts.(0) >= 0 then v1 else v2 in
    let by2 =
      has_stop v2
      && ((not (has_stop v1)) || F.compare v2.starts.(v2.count) v1.starts.(v1.count) < 0)
    in
    let ev = if by2 then v2 else v1 in
    let ej = if by2 || has_stop v1 then ev.count else -1 in
    if ej >= 0 && F.compare sv.starts.(0) ev.starts.(ej) > 0 then
      invalid_arg "Curves: disjoint domains";
    let s = sv.starts.(0) in
    scan ~after horizon v1 v2 ev ej sv 0 (piece_from v1 0 s) (piece_from v2 0 s)
end
