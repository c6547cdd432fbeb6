(* The sharded k-NN driver's work counts on twelve queries of perfbench
   scan's shape, one line per query: a clustered MOD (clusters of 100
   objects on a 10^4 grid), cell 256, k = 8, a stationary query at a
   cluster centre, and before each query a batch of 50 chdirs at instants
   in (2 i, 2 (i + 1)] on random objects, then the window
   [2 (i + 1), 2 (i + 1) + 10].  The counts are the ones perfbench's
   exact-repeat guard records for scan, plus the shard totals; the dune
   rule diffs them against scan_counts.expected, so a change to the index
   or the driver that moves any of them fails here. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Gen = Moq_workload.Gen
module Prng = Moq_workload.Prng
module BFl = Moq_core.Backend.Filtered
module ShF = Moq_core.Shard.Make (BFl)

let q = Q.of_int
let n = 5_000
let queries = 12
let batch = 50
let spacing = 10_000

let rand_vec st bound =
  Qvec.of_list (List.init 2 (fun _ -> q (Prng.int st ((2 * bound) + 1) - bound)))

(* Query i sits at the centre of cluster 37 i mod (n / 100), as in scan. *)
let center i =
  let clusters = n / 100 in
  let w = int_of_float (Float.ceil (sqrt (float_of_int clusters))) in
  let c = 37 * i mod clusters in
  if c = 0 then (0, 0) else (c mod w * spacing, c / w * spacing)

let () =
  let st = Prng.create 17 in
  let db = ref (Gen.clustered_db ~seed:3 ~n ~spacing ()) in
  Printf.printf "query shards touched admitted pruned shard_events events comparisons pieces\n";
  for i = 0 to queries - 1 do
    for j = 1 to batch do
      let tau = Q.add (q (2 * i)) (Q.of_ints (2 * j) batch) in
      db := DB.apply_exn !db (U.Chdir { oid = 1 + Prng.int st n; tau; a = rand_vec st 5 })
    done;
    let lo = q (2 * (i + 1)) and hi = q ((2 * (i + 1)) + 10) in
    let cx, cy = center i in
    let gamma = T.stationary ~start:(q 0) (Qvec.of_list [ q cx; q cy ]) in
    let r = ShF.run ~db:!db ~gamma ~k:8 ~lo ~hi ~cell:256.0 () in
    let s = r.ShF.stats and sh = r.ShF.shard in
    Printf.printf "%d %d %d %d %d %d %d %d %d\n" i sh.ShF.shards_total sh.ShF.shards_touched
      sh.ShF.admitted sh.ShF.pruned sh.ShF.shard_events
      (s.ShF.E.crossings + s.ShF.E.births + s.ShF.E.deaths + s.ShF.E.jumps)
      s.ShF.E.comparisons (List.length r.ShF.timeline)
  done
