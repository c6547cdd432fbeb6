(** Answers read off the sweep's precedence order (paper, Lemmas 7–8).

    Between events the order of the g-distance curves is fixed, and the
    answer to a k-NN or within query is a prefix of it: the k lowest
    curves, or the curves ranked below the query constant.  Reading that
    prefix, plus the run of curves tied with its last element, costs
    O(log N + |answer| + ties) on a piece where the prefix moved and
    O(ties) on any other, against O(N^q) for the reference FO(f)
    evaluator {!Snapshot} — which stays the answer path for every
    other formula, and the oracle the readers are tested against.

    The one past-sweep runner lives here too: an engine over [[lo, hi]],
    its timeline, its stats and its hot objects ({!Make.run}), behind
    {!Sweep}, {!Knn}, {!Range_query} and {!Shard}'s merge. *)

module Oid = Moq_mod.Oid
module Q = Moq_numeric.Rat

type kind =
  | Knn of int  (** the k lowest curves *)
  | Within of Q.t  (** the curves at or below the bound *)

(* Recognise exactly the formulas [Fof.nearest_q], [Fof.knn_q] and
   [Fof.within_q] build, by rebuilding the candidate for the query's own
   interval.  [Rat] and [Bigint] values are canonical, so structural
   equality of two formulas is equality of their values. *)
let of_query (q : Fof.query) : kind option =
  let interval = q.Fof.interval in
  let built (c : Fof.query) = c.Fof.y = q.Fof.y && c.Fof.phi = q.Fof.phi in
  match q.Fof.phi with
  | Fof.Forall _ when built (Fof.nearest_q ~interval) -> Some (Knn 1)
  | Fof.Not g ->
    let rec depth = function Fof.Exists (_, g) -> 1 + depth g | _ -> 0 in
    let k = depth g in
    if k >= 1 && built (Fof.knn_q ~k ~interval) then Some (Knn k) else None
  | Fof.Cmp (Fof.Le, _, Fof.Const bound) when built (Fof.within_q ~bound ~interval) ->
    Some (Within bound)
  | _ -> None

(* The query's interval [lo, hi]; every swept query is bounded. *)
let interval_bounds (q : Fof.query) =
  match Fof.Interval.lo q.Fof.interval, Fof.Interval.hi q.Fof.interval with
  | Some lo, Some hi -> (lo, hi)
  | _ -> invalid_arg "Reader: queries need a bounded interval"

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module C = E.C
  module TL = Timeline.Make (B)

  (* The instant a piece is read at: a point itself, a span's sample
     strictly inside it (where {!Snapshot} evaluates too). *)
  let sample = function
    | E.Span (a, b) -> B.instant_of_scalar (B.between a b)
    | E.Point i -> i

  (* The answer on one piece of the sweep: the prefix [kind] selects,
     then the run after it of entries tied with the pivot — the k-th
     entry, or the bound.  The order sorts the curves by value at the
     read instant (ties broken by the jet just after, then by label), so no
     entry past that run can tie.  On a span, adjacent curves meet only at
     events, so a tie at the sample means the two curves run on one
     polynomial there: curves that share no piece never tie, and for the
     rest comparing the pieces in force decides it, evaluating nothing.

     [answer eng kind] keeps the prefix's set under its key: the pivot,
     the engine's {!E.version} and the pivot's swap count.  A rank moves
     only through an adjacent swap, which both entries count, or through
     an insertion or a deletion, which the version counts; so while the
     key holds, the pivot keeps its rank and the entries before it stay
     one set (Lemma 8: the answer changes only at an event across its
     cut).  A piece then costs its tie run, and with no tie it is the kept
     set itself, physically. *)
  type memo = { pivot : E.entry option; version : int; swaps : int; set : Oid.Set.t }

  let add e set = match E.label e with E.Obj (o, _) -> Oid.Set.add o set | E.Cst _ -> set

  let swaps = function Some e -> snd (E.participations e) | None -> 0

  let prefix eng kind =
    let pivot, firsts =
      match kind with
      | Knn k ->
        let firsts = E.first_n eng k in
        (List.nth_opt firsts (k - 1), firsts)
      | Within b ->
        (match E.find eng (E.Cst b) with
         | None -> invalid_arg "Reader: bound curve missing"
         | Some be -> (Some be, E.first_n eng (E.rank_of eng be)))
    in
    { pivot; version = E.version eng; swaps = swaps pivot;
      set = List.fold_left (fun set e -> add e set) Oid.Set.empty firsts }

  let answer eng kind =
    let memo = ref None in
    fun step ->
      let m =
        match !memo with
        | Some m when m.version = E.version eng && m.swaps = swaps m.pivot -> m
        | _ ->
          let m = prefix eng kind in
          memo := Some m;
          m
      in
      match m.pivot with
      | None -> m.set
      | Some pivot ->
        let tied e =
          match step with
          | E.Point i -> E.value_sign_at i e pivot = 0
          | E.Span _ ->
            let ce = E.curve e and cp = E.curve pivot in
            C.share_piece ce cp && C.same_piece_at ce cp (sample step)
        in
        let rec run e set =
          match E.next_entry eng e with
          | Some e when tied e -> run e (add e set)
          | _ -> set
        in
        run pivot m.set

  let piece step set =
    match step with E.Span (a, b) -> TL.Span (a, b, set) | E.Point i -> TL.At (i, set)

  (* An engine over [lo, hi]: started at [lo], nothing scheduled past
     [hi]. *)
  let engine ?sink ?attr ~lo ~hi entries =
    E.create ?sink ?attr ~start:lo ~horizon:hi entries

  (* An object's entry, for {!Curve_store.build} and {!Curve_store.curves}. *)
  let entry o _ c = (E.Obj (o, 0), c)

  (* Close a timeline at [upto]: the span from the engine's clock to it,
     then the point itself, unless the clock is already there. *)
  let close eng upto f =
    let last = E.now eng in
    if B.compare_instant last upto < 0 then begin
      f (E.Span (last, upto));
      f (E.Point upto)
    end

  (* The past sweep over [lo, hi] (paper, Theorem 4): the point [lo], the
     engine's spans and event points, then the last span and the point
     [hi]. *)
  let iter_steps eng ~lo ~hi f =
    f (E.Point (B.instant_of_scalar lo));
    if Q.compare lo hi < 0 then begin
      E.advance eng ~upto:hi ~emit:f;
      close eng (B.instant_of_scalar hi) f
    end

  (* The simplified timeline of {!iter_steps}, each piece answered by
     [read]. *)
  let timeline eng ~lo ~hi read : TL.t =
    let pieces = ref [] in
    iter_steps eng ~lo ~hi (fun step -> pieces := piece step (read step) :: !pieces);
    TL.simplify (List.rev !pieces)

  type result = {
    timeline : TL.t;
    stats : E.stats;
    hot : E.hot list;  (** per-object cost attribution, hottest first *)
  }

  (* A past query: sweep [entries] over [lo, hi], each piece answered by
     [read] on the sweep's engine. *)
  let run ?sink ~lo ~hi entries read : result =
    let eng = engine ?sink ~lo ~hi entries in
    let timeline = timeline eng ~lo ~hi (read eng) in
    { timeline; stats = E.stats eng; hot = E.hot_objects eng }
end
