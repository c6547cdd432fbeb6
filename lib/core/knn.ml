(** The k-NN operator (paper, Examples 6, 10, 12): the answer at each
    instant is the set of the k lowest g-distance curves — read directly off
    the sweep's order structure ({!Reader}) instead of re-evaluating a
    formula, so each support change costs O(log N + k).

    Objects tied with the k-th curve are all reported: at event instants
    the crossing pair is momentarily equal (the paper's step 1 where
    [o ≡_τ' o']), and on spans identical curves stay tied throughout. *)

module Q = Moq_numeric.Rat
module DB = Moq_mod.Mobdb
module Sink = Moq_obs.Sink

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module R = Reader.Make (B)
  module TL = R.TL

  type result = {
    timeline : TL.t;
    stats : E.stats;
    hot : E.hot list;  (** per-object cost attribution, hottest first *)
  }

  let entries ~(db : DB.t) ~(gdist : Gdist.t) =
    List.map
      (fun (o, tr) -> (E.Obj (o, 0), B.curve_of_qpiece (Gdist.curve gdist tr)))
      (DB.objects db)

  let engine ?(sink = Sink.noop) ~db ~gdist ~lo ~hi () =
    E.create ~sink ~start:(B.scalar_of_rat lo) ~horizon:(B.scalar_of_rat hi)
      (entries ~db ~gdist)

  let run_obs ~(sink : Sink.t) ~(db : DB.t) ~(gdist : Gdist.t) ~(k : int)
      ~(lo : Q.t) ~(hi : Q.t) : result =
    if k <= 0 then invalid_arg "Knn.run: k must be positive";
    Sink.count sink "moq_query_knn_total" 1;
    Sink.time sink "moq_query_knn_seconds" @@ fun () ->
    let eng = engine ~sink ~db ~gdist ~lo ~hi () in
    let timeline = R.timeline eng ~lo ~hi (R.answer eng (Reader.Knn k)) in
    { timeline; stats = E.stats eng; hot = E.hot_objects eng }

  let run ~db ~gdist ~k ~lo ~hi = run_obs ~sink:Sink.noop ~db ~gdist ~k ~lo ~hi
end
