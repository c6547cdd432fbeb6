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

  (* Sign of (c1 - c2) at instant [i]; both curves must cover [i]. *)
  let diff_sign_at c1 c2 i =
    let p1, _ = piece_at c1 i and p2, _ = piece_at c2 i in
    B.sign_at_instant (P.sub p1 p2) i

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

  (* The pieces of a curve from the one in force at [a] on. *)
  let rec pieces_from a = function
    | _ :: ((b, _) :: _ as rest) when F.compare b a <= 0 -> pieces_from a rest
    | l -> l

  (* Earliest instant strictly after [after] (and at most [horizon], when
     given) at which the two curves are equal.  Handles multi-piece curves
     and segments where the curves coincide identically (the crossing is
     then reported where they separate, via the root of the next segment's
     difference at its boundary).  The merged breakpoints are walked one
     segment at a time: a segment that ends before [after] is skipped
     without building its difference, and the walk stops at the first
     segment that holds a root. *)
  let first_crossing ~(after : B.instant) ?horizon (c1 : PW.t) (c2 : PW.t) : B.instant option =
    let s, stop = common_domain c1 c2 in
    let next_start = function _ :: (b, _) :: _ -> Some b | _ -> None in
    (* [l1] and [l2] start with the pieces in force on the segment that
       starts at [a] *)
    let rec scan a l1 l2 =
      (* the next breakpoint inside the common domain, if any *)
      let inner =
        match next_start l1, next_start l2 with
        | None, x | x, None -> x
        | Some x, Some y -> Some (if F.compare x y <= 0 then x else y)
      in
      let inner =
        match inner, stop with
        | Some b, Some e when F.compare b e >= 0 -> None
        | b, _ -> b
      in
      let e = match inner with Some _ -> inner | None -> stop in
      let continue () =
        match inner with
        | Some b -> scan b (pieces_from b l1) (pieces_from b l2)
        | None -> None
      in
      if (match horizon with Some h -> F.compare a h > 0 | None -> false) then None
      else if (match e with Some e' -> B.compare_instant_scalar after e' >= 0 | None -> false)
      then continue () (* the segment ends at or before [after] *)
      else begin
        let d = P.sub (snd (List.hd l1)) (snd (List.hd l2)) in
        (* where the curves coincide identically the order does not
           change; a separation shows up as a root at the next segment's
           start *)
        if P.is_zero d then continue ()
        else begin
          let candidate =
            if B.compare_instant_scalar after a < 0 then B.first_root_at_or_after d a
            else B.first_root_after d after
          in
          match candidate with
          | Some r when (match e with Some e' -> B.compare_instant_scalar r e' <= 0 | None -> true) ->
            (match horizon with
             | Some h when B.compare_instant_scalar r h > 0 -> None
             | _ -> Some r)
          | _ -> continue ()
        end
      end
    in
    scan s (pieces_from s (PW.pieces c1)) (pieces_from s (PW.pieces c2))
end
