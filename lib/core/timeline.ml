(** Answer timelines.

    Between support changes the answer to an FO(f) query is constant
    (paper, Lemma 8), so the sweep produces a finite alternation of open
    spans and event instants, each carrying an answer set.  The paper's
    three answer modes read off the timeline: the snapshot answer [Q^s] is
    the timeline itself (a finite representation of a possibly-infinite
    set), [Q^∃] is the union of the sets, [Q^∀] the intersection. *)

module Oid = Moq_mod.Oid

module Make (B : Backend.S) = struct
  type piece =
    | Span of B.instant * B.instant * Oid.Set.t
        (** answer over the open interval (lo, hi) *)
    | At of B.instant * Oid.Set.t  (** answer at one instant *)

  type t = piece list
  (** Chronological; adjacent pieces share endpoints. *)

  let set_of = function Span (_, _, s) | At (_, s) -> s

  let existential (tl : t) =
    List.fold_left (fun acc p -> Oid.Set.union acc (set_of p)) Oid.Set.empty tl

  let universal (tl : t) =
    match tl with
    | [] -> Oid.Set.empty
    | p :: rest -> List.fold_left (fun acc p -> Oid.Set.inter acc (set_of p)) (set_of p) rest

  (* Collapse maximal runs with equal sets into single spans: the minimal
     finite representation of Q^s.  A reader hands one set to the pieces
     its answer holds over ({!Reader}), so most runs are equal
     physically. *)
  let simplify (tl : t) : t =
    let equal s1 s2 = s1 == s2 || Oid.Set.equal s1 s2 in
    let rec go = function
      | At (a, s1) :: At (b, s2) :: rest
        when B.compare_instant a b = 0 && equal s1 s2 ->
        go (At (a, s1) :: rest)
      | Span (a, _, s1) :: At (_, s2) :: Span (_, b, s3) :: rest
        when equal s1 s2 && equal s2 s3 ->
        go (Span (a, b, s1) :: rest)
      | p :: rest -> p :: go rest
      | [] -> []
    in
    let rec fix l =
      let l' = go l in
      if List.length l' = List.length l then l else fix l'
    in
    fix tl

  (* When is an object in the answer?  The object's snapshot-answer time
     set, as a list of timeline pieces it belongs to. *)
  let when_member (tl : t) o = List.filter (fun p -> Oid.Set.mem o (set_of p)) tl

  (* Answer at a given instant, if the timeline covers it. *)
  let find_at (tl : t) (i : B.instant) : Oid.Set.t option =
    let covers = function
      | At (a, _) -> B.compare_instant a i = 0
      | Span (a, b, _) -> B.compare_instant a i < 0 && B.compare_instant i b < 0
    in
    Option.map set_of (List.find_opt covers tl)

  let pp fmt (tl : t) =
    let pp_set fmt s =
      Format.fprintf fmt "{%a}"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ",") Oid.pp)
        (Oid.Set.elements s)
    in
    Format.fprintf fmt "@[<v>";
    List.iter
      (fun p ->
        match p with
        | Span (a, b, s) ->
          Format.fprintf fmt "(%a, %a): %a@," B.pp_instant a B.pp_instant b pp_set s
        | At (a, s) -> Format.fprintf fmt "[%a]: %a@," B.pp_instant a pp_set s)
      tl;
    Format.fprintf fmt "@]"
end
