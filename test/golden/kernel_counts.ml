(* The Filtered kernel's work and filter counts, pinned.  Two parts:

   - bench a3's k-NN sweeps (Knn on the Filtered backend over
     [Gen.inversions_db ~seed:n ~n ~inversions:(2 n) ~horizon:1000], the
     first coordinate as g-distance, k = 2, window [0, 1000]) at n = 128
     and 256: the engine's comparisons, swaps, events and crossing
     searches, and the filter's decisions, hits and misses;
   - bench w1's 200 alibi cases (two objects of [Gen.uniform_db ~seed:(9000
     + i) ~n:2 ~extent:60 ~speed:6], distance 1 + i mod 40, window
     [0, 30]) on the Filtered backend: the verdict, the witness's text and
     the filter's counts of each.

   The dune rule diffs them against kernel_counts.expected, so a change to
   the kernel that moves a decision, a hit or a miss fails here. *)

module Q = Moq_numeric.Rat
module DB = Moq_mod.Mobdb
module Gen = Moq_workload.Gen
module Gdist = Moq_core.Gdist
module BFl = Moq_core.Backend.Filtered
module KnnFl = Moq_core.Knn.Make (BFl)
module AlibiFl = Moq_agg.Alibi.Make (BFl)

let q = Q.of_int

let filter_counts () =
  let s = BFl.filter_stats () in
  Printf.sprintf "%d %d %d" s.BFl.decisions s.BFl.hits s.BFl.misses

let () =
  Printf.printf "knn n comparisons swaps events searches decisions hits misses\n";
  List.iter
    (fun n ->
      let db = Gen.inversions_db ~seed:n ~n ~inversions:(2 * n) ~horizon:(q 1000) in
      BFl.reset_filter_stats ();
      let r = KnnFl.run ~db ~gdist:(Gdist.coordinate 0) ~k:2 ~lo:(q 0) ~hi:(q 1000) in
      let s = r.KnnFl.stats in
      Printf.printf "knn %d %d %d %d %d %s\n" n s.KnnFl.E.comparisons s.KnnFl.E.swaps
        (s.KnnFl.E.crossings + s.KnnFl.E.births + s.KnnFl.E.deaths + s.KnnFl.E.jumps)
        s.KnnFl.E.searches (filter_counts ()))
    [ 128; 256 ];
  Printf.printf "alibi i verdict decisions hits misses\n";
  for i = 1 to 200 do
    let db = Gen.uniform_db ~seed:(9000 + i) ~n:2 ~extent:60 ~speed:6 () in
    let find oid = Option.get (DB.find db oid) in
    BFl.reset_filter_stats ();
    let v =
      AlibiFl.decide ~o1:(find 1) ~o2:(find 2) ~d:(q (1 + (i mod 40))) ~lo:(q 0) ~hi:(q 30)
    in
    let verdict =
      match v with AlibiFl.No_meet -> "no_meet" | AlibiFl.Meet w -> "meet " ^ BFl.instant_to_string w
    in
    Printf.printf "alibi %d %s %s\n" i verdict (filter_counts ())
  done
