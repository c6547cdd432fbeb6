(** Past-query evaluation (paper, Theorem 4).

    Sweep the time line across the query interval: sort the curves once,
    then process the O(m) support-change events, evaluating the answer only
    on the spans and instants between them (Lemma 8).  Total
    O((m + N) log N) object-list work plus one answer evaluation per
    support change. *)

module Oid = Moq_mod.Oid
module Q = Moq_numeric.Rat
module DB = Moq_mod.Mobdb
module Sink = Moq_obs.Sink

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module P = Problem.Make (B)
  module S = P.S
  module TL = Timeline.Make (B)

  type result = {
    timeline : TL.t;
    stats : E.stats;
    support_changes : int;  (** the paper's m *)
    hot : E.hot list;  (** per-object cost attribution, hottest first *)
  }

  let interval_bounds (q : Fof.query) =
    match Fof.Interval.lo q.Fof.interval, Fof.Interval.hi q.Fof.interval with
    | Some lo, Some hi -> (lo, hi)
    | _ -> invalid_arg "Sweep: past queries need a bounded interval"

  let run_obs ~(sink : Sink.t) ~(db : DB.t) ~(gdist : Gdist.t)
      ~(query : Fof.query) : result =
    Sink.count sink "moq_query_past_total" 1;
    Sink.time sink "moq_query_past_seconds" @@ fun () ->
    let lo, hi = interval_bounds query in
    let p = P.create ~db ~gdist ~query ~istart:lo in
    let eng =
      E.create ~sink ~start:(B.scalar_of_rat lo)
        ~horizon:(B.scalar_of_rat hi) (P.entry_list p)
    in
    let ctx = P.snapshot_ctx p in
    let answer i = S.answer_at ctx query i in
    let pieces = ref [] in
    let emit = function
      | E.Span (a, b) ->
        let sample = B.instant_of_scalar (B.between a b) in
        pieces := TL.Span (a, b, answer sample) :: !pieces
      | E.Point i -> pieces := TL.At (i, answer i) :: !pieces
    in
    let lo_i = B.instant_of_scalar (B.scalar_of_rat lo) in
    let hi_s = B.scalar_of_rat hi in
    let hi_i = B.instant_of_scalar hi_s in
    pieces := [ TL.At (lo_i, answer lo_i) ];
    if Q.compare lo hi < 0 then begin
      E.advance eng ~upto:hi_s ~emit;
      (* close the final span *)
      let last = E.now eng in
      if B.compare_instant last hi_i < 0 then begin
        let sample = B.instant_of_scalar (B.between last hi_i) in
        pieces := TL.At (hi_i, answer hi_i) :: TL.Span (last, hi_i, answer sample) :: !pieces
      end
    end;
    let timeline = TL.simplify (List.rev !pieces) in
    let stats = E.stats eng in
    { timeline; stats; support_changes = E.support_changes stats;
      hot = E.hot_objects eng }

  let run ~db ~gdist ~query = run_obs ~sink:Sink.noop ~db ~gdist ~query
end
