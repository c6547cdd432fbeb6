(** Past-query evaluation (paper, Theorem 4).

    Sweep the time line across the query interval: sort the curves once,
    then process the O(m) support-change events, evaluating the answer only
    on the spans and instants between them (Lemma 8).  Total
    O((m + N) log N) object-list work plus one answer evaluation per
    support change: read off the order for k-NN and within queries
    ({!Reader}), by {!Snapshot} for any other formula. *)

module DB = Moq_mod.Mobdb
module Sink = Moq_obs.Sink

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module P = Problem.Make (B)
  module S = P.S
  module R = Reader.Make (B)
  module TL = R.TL

  type result = {
    timeline : TL.t;
    stats : E.stats;
    support_changes : int;  (** the paper's m *)
    hot : E.hot list;  (** per-object cost attribution, hottest first *)
  }

  (* The answer on one piece of [eng]'s sweep: read off the order for
     k-NN and within queries ({!Reader}), evaluated by {!Snapshot} over
     [p]'s current objects for any other formula. *)
  let reader p query eng : E.step -> Moq_mod.Oid.Set.t =
    match Reader.of_query query with
    | Some kind -> R.answer eng kind
    | None -> fun step -> S.answer_at (P.snapshot_ctx p) query (R.sample step)

  let run_obs ~(sink : Sink.t) ~(db : DB.t) ~(gdist : Gdist.t)
      ~(query : Fof.query) : result =
    Sink.count sink "moq_query_past_total" 1;
    Sink.time sink "moq_query_past_seconds" @@ fun () ->
    let lo, hi = Reader.interval_bounds query in
    let p = P.create ~db ~gdist ~query ~istart:lo in
    let r = R.run ~sink ~lo ~hi (P.entry_list p) (reader p query) in
    { timeline = r.R.timeline; stats = r.R.stats;
      support_changes = E.support_changes r.R.stats; hot = r.R.hot }

  let run ~db ~gdist ~query = run_obs ~sink:Sink.noop ~db ~gdist ~query
end
