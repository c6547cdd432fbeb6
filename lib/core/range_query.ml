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

  type result = {
    timeline : TL.t;
    stats : E.stats;
  }

  let run ~(db : DB.t) ~(gdist : Gdist.t) ~(bound : Q.t) ~(lo : Q.t) ~(hi : Q.t) : result =
    let entries =
      (E.Cst bound, B.PW.constant ~start:(B.scalar_of_rat lo) (B.scalar_of_rat bound))
      :: List.map
           (fun (o, tr) -> (E.Obj (o, 0), B.curve_of_qpiece (Gdist.curve gdist tr)))
           (DB.objects db)
    in
    let eng = E.create ~start:(B.scalar_of_rat lo) ~horizon:(B.scalar_of_rat hi) entries in
    let timeline = R.timeline eng ~lo ~hi (R.answer eng (Reader.Within bound)) in
    { timeline; stats = E.stats eng }
end
