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

  type result = R.result = {
    timeline : TL.t;
    stats : E.stats;
    hot : E.hot list;  (** per-object cost attribution, hottest first *)
  }

  let engine ?sink ~db ~gdist ~lo ~hi () =
    R.engine ?sink ~lo ~hi (Curve_store.build gdist db R.entry)

  (* [entries] is a thunk so that building the curves is timed *)
  let run_entries ~sink ~k ~lo ~hi entries =
    if k <= 0 then invalid_arg "Knn.run: k must be positive";
    Sink.count sink "moq_query_knn_total" 1;
    Sink.time sink "moq_query_knn_seconds" @@ fun () ->
    R.run ~sink ~lo ~hi (entries ()) (fun eng -> R.answer eng (Reader.Knn k))

  let run_obs ~(sink : Sink.t) ~(db : DB.t) ~(gdist : Gdist.t) ~(k : int)
      ~(lo : Q.t) ~(hi : Q.t) : result =
    run_entries ~sink ~k ~lo ~hi (fun () -> Curve_store.build gdist db R.entry)

  (* [run_obs] with the curves read through a store of [gdist] *)
  let run_store ~(sink : Sink.t) ~(store : Curve_store.t) ~(db : DB.t) ~(k : int)
      ~(lo : Q.t) ~(hi : Q.t) : result =
    run_entries ~sink ~k ~lo ~hi (fun () -> Curve_store.curves store db R.entry)

  let run ~db ~gdist ~k ~lo ~hi = run_obs ~sink:Sink.noop ~db ~gdist ~k ~lo ~hi
end
