(** Backend-generic operations on g-distance curves: comparing two curves at
    or just after an instant, and finding their next crossing — the
    intersection computation the sweep schedules events with. *)

module Make (B : Backend.S) = struct
  module P = B.P
  module PW = B.PW
  module F = B.P.F

  (* Does the curve's domain contain the instant? *)
  let covers (c : PW.t) (i : B.instant) : bool =
    B.compare_instant_scalar i (PW.start c) >= 0
    && (match PW.stop c with
        | Some s -> B.compare_instant_scalar i s <= 0
        | None -> true)

  (* The polynomial piece of [c] in force at [i], with the end of its
     validity.  @raise Invalid_argument if [i] is outside the domain. *)
  let piece_at (c : PW.t) (i : B.instant) : P.t * F.t option =
    if B.compare_instant_scalar i (PW.start c) < 0 then
      invalid_arg "Curves.piece_at: before curve start"
    else begin
      (match PW.stop c with
       | Some s when B.compare_instant_scalar i s > 0 ->
         invalid_arg "Curves.piece_at: after curve stop"
       | _ -> ());
      let rec find = function
        | (_, p) :: ((b, _) :: _ as rest) ->
          if B.compare_instant_scalar i b < 0 then (p, Some b) else find rest
        | [ (_, p) ] -> (p, PW.stop c)
        | [] -> assert false
      in
      find (PW.pieces c)
    end

  let value_sign_at (c : PW.t) (i : B.instant) : int =
    B.sign_at_instant (fst (piece_at c i)) i

  (* Sign of (c1 - c2) at instant [i]; both curves must cover [i]. *)
  let diff_sign_at c1 c2 i =
    let p1, _ = piece_at c1 i and p2, _ = piece_at c2 i in
    B.sign_at_instant (P.sub p1 p2) i

  (* Sign of (c1 - c2) immediately after [i] (the paper's τ' + ε ordering).
     Note: the jet only sees the current pieces; by continuity this is the
     correct one-sided sign whenever the difference is not identically zero
     on the current piece.  A zero result means the curves coincide on a
     neighbourhood to the right. *)
  let diff_sign_after c1 c2 i =
    let p1, _ = piece_at c1 i and p2, _ = piece_at c2 i in
    B.sign_after_instant (P.sub p1 p2) i

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
    P.is_zero (P.sub p1 p2)

  (* Merged piece boundaries of two curves restricted to their common
     domain: returns [(start, poly_diff, stop_opt)] segments in order. *)
  let diff_segments (c1 : PW.t) (c2 : PW.t) : (F.t * P.t * F.t option) list =
    let ge a b = F.compare a b >= 0 in
    let s = if ge (PW.start c1) (PW.start c2) then PW.start c1 else PW.start c2 in
    let stop =
      match PW.stop c1, PW.stop c2 with
      | None, x | x, None -> x
      | Some a, Some b -> Some (if F.compare a b <= 0 then a else b)
    in
    (match stop with
     | Some e when F.compare s e > 0 -> invalid_arg "Curves.diff_segments: disjoint domains"
     | _ -> ());
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

  (* Earliest instant strictly after [after] (and at most [horizon], when
     given) at which the two curves are equal.  Handles multi-piece curves
     and segments where the curves coincide identically (the crossing is
     then reported where they separate, via the root of the next segment's
     difference at its boundary). *)
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

  let first_crossing ~(after : B.instant) ?horizon (c1 : PW.t) (c2 : PW.t) : B.instant option =
    let le_scalar a b = F.compare a b <= 0 in
    let within_horizon (i : B.instant) =
      match horizon with None -> true | Some h -> B.compare_instant_scalar i h <= 0
    in
    let segments = diff_segments c1 c2 in
    let rec scan = function
      | [] -> None
      | (s, d, e) :: rest ->
        (* skip segments entirely before [after] *)
        let seg_relevant =
          match e with
          | Some e' -> B.compare_instant_scalar after e' < 0
          | None -> true
        in
        let seg_started_past_horizon =
          match horizon with Some h -> not (le_scalar s h) | None -> false
        in
        if seg_started_past_horizon then None
        else if not seg_relevant then scan rest
        else if P.is_zero d then begin
          (* curves identical on this segment: they remain equal, no order
             change here; a separation shows up as a root at the next
             segment's start *)
          scan rest
        end
        else begin
          let candidate =
            if B.compare_instant_scalar after s < 0 then B.first_root_at_or_after d s
            else B.first_root_after d after
          in
          match candidate with
          | Some r
            when (match e with
                  | Some e' -> B.compare_instant_scalar r e' <= 0
                  | None -> true) ->
            if within_horizon r then Some r else None
          | _ -> scan rest
        end
    in
    scan segments
end
