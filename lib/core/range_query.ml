(** The within-distance operator ("all flights within 50 km", Example 11):
    the query constant is swept as a constant curve; the answer at any
    instant is the set of object curves ranked below it, plus those tied
    with it, read off the order structure ({!Reader}) in O(log N) per
    support change. *)

module Q = Moq_numeric.Rat
module DB = Moq_mod.Mobdb

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module R = Reader.Make (B)
  module TL = R.TL

  type result = R.result = {
    timeline : TL.t;
    stats : E.stats;
    hot : E.hot list;
  }

  let run_entries ~bound ~lo ~hi objs =
    let entries =
      (E.Cst bound, B.PW.constant ~start:(B.scalar_of_rat lo) (B.scalar_of_rat bound)) :: objs
    in
    R.run ~lo ~hi entries (fun eng -> R.answer eng (Reader.Within bound))

  let run ~(db : DB.t) ~(gdist : Gdist.t) ~(bound : Q.t) ~(lo : Q.t) ~(hi : Q.t) : result =
    run_entries ~bound ~lo ~hi (Curve_store.build gdist db R.entry)

  (* [run] with the curves read through a store of [gdist] *)
  let run_store ~(store : Curve_store.t) ~(db : DB.t) ~(bound : Q.t) ~(lo : Q.t) ~(hi : Q.t)
      : result =
    run_entries ~bound ~lo ~hi (Curve_store.curves store db R.entry)
end
