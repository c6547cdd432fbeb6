(** Naive re-evaluation baseline (experiment B1).

    What evaluation looks like {e without} the paper's Section 5 machinery:
    precompute every pairwise crossing of every pair of curves (O(N²)
    intersection computations — no adjacency pruning), then re-sort all N
    curves from scratch at each distinct crossing instant (O(N log N) per
    event instead of the sweep's O(log N)).  The answers agree with the
    sweep; only the cost differs. *)

module Oid = Moq_mod.Oid
module Q = Moq_numeric.Rat
module DB = Moq_mod.Mobdb

module Make (B : Moq_core.Backend.S) = struct
  module C = Moq_core.Curves.Make (B)
  module TL = Moq_core.Timeline.Make (B)
  module Gdist = Moq_core.Gdist

  type stats = { pair_computations : int; events : int }

  (* Sort the objects alive at instant [i] by curve value (full re-sort). *)
  let order_at curves i =
    let alive = List.filter (fun (_, c) -> C.covers c i) curves in
    List.sort (fun (_, c1) (_, c2) -> C.diff_sign_at c1 c2 i) alive

  let knn_answer curves k i =
    let sorted = order_at curves i in
    let chosen =
      if List.length sorted <= k then sorted
      else begin
        let kth = snd (List.nth sorted (k - 1)) in
        List.filter (fun (_, c) -> C.diff_sign_at c kth i <= 0) sorted
      end
    in
    Oid.Set.of_list (List.map fst chosen)

  let knn_run ~(db : DB.t) ~(gdist : Gdist.t) ~(k : int) ~(lo : Q.t) ~(hi : Q.t) :
      TL.t * stats =
    let lo_i = B.instant_of_scalar lo and hi_i = B.instant_of_scalar hi in
    let curves = List.map (fun (o, tr) -> (o, Gdist.curve gdist tr)) (DB.objects db) in
    (* every pairwise crossing, plus every birth/death, in the window *)
    let pairs = ref 0 in
    let crossing_times =
      let rec all = function
        | (_, c1) :: rest ->
          List.concat_map
            (fun (_, c2) ->
              incr pairs;
              try C.all_crossings ~after:lo_i ~horizon:hi c1 c2
              with Invalid_argument _ -> [] (* disjoint lifetimes *))
            rest
          @ all rest
        | [] -> []
      in
      all curves
    in
    let lifetime_events =
      List.concat_map
        (fun (_, c) ->
          let s = B.PW.start c in
          let birth =
            if B.P.F.compare s lo > 0 && B.P.F.compare s hi < 0 then
              [ B.instant_of_scalar s ]
            else []
          in
          match B.PW.stop c with
          | Some e when B.P.F.compare e lo > 0 && B.P.F.compare e hi < 0 ->
            B.instant_of_scalar e :: birth
          | _ -> birth)
        curves
    in
    let events =
      List.sort_uniq B.compare_instant (crossing_times @ lifetime_events)
      |> List.filter (fun i ->
             B.compare_instant i lo_i > 0 && B.compare_instant i hi_i < 0)
    in
    let answer = knn_answer curves k in
    let rec build prev = function
      | [] ->
        if B.compare_instant prev hi_i < 0 then begin
          let sample = B.instant_of_scalar (B.between prev hi_i) in
          [ TL.Span (prev, hi_i, answer sample); TL.At (hi_i, answer hi_i) ]
        end
        else []
      | e :: rest ->
        let sample = B.instant_of_scalar (B.between prev e) in
        TL.Span (prev, e, answer sample) :: TL.At (e, answer e) :: build e rest
    in
    let timeline = TL.At (lo_i, answer lo_i) :: build lo_i events in
    (TL.simplify timeline, { pair_computations = !pairs; events = List.length events })
end
