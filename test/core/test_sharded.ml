(* Sharded-filtered driver ≡ Exact backend, on hundreds of seeded
   workloads.

   The sharded driver sweeps each spatial shard independently, prunes
   shards outside an exact band bound, and merges only the admitted
   frontier union — so its simplified timeline must be bit-identical to a
   plain exact sweep over the full database.  The families below stress
   every way pruning could go wrong: objects migrating across shard
   boundaries mid-interval (fast movers under a small cell), simultaneous
   crossings straddling two shards (the pencil), positions snapped exactly
   onto cell boundaries, tangencies under the filtered arithmetic, and a
   moving query trajectory.  Sweep statistics are deliberately NOT
   compared — the sharded driver does different (less) work; only answers
   must agree. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid
module A = Moq_poly.Algnum
module Core = Moq_core
module BX = Core.Backend.Exact
module BFl = Core.Backend.Filtered
module KnnX = Core.Knn.Make (BX)
module ShF = Core.Shard.Make (BFl)
module Gdist = Core.Gdist
module Gen = Moq_workload.Gen
module Sink = Moq_obs.Sink

let q = Q.of_int
let origin dim = T.linear ~start:(q (-100)) ~a:(Qvec.zero dim) ~b:(Qvec.zero dim)

type npiece =
  | NSpan of A.t * A.t * int list
  | NAt of A.t * int list

let norm_exact (tl : KnnX.TL.t) =
  List.map
    (function
      | KnnX.TL.Span (a, b, s) -> NSpan (a, b, Oid.Set.elements s)
      | KnnX.TL.At (a, s) -> NAt (a, Oid.Set.elements s))
    tl

let norm_sharded (tl : ShF.TL.t) =
  List.map
    (function
      | ShF.TL.Span (a, b, s) ->
        NSpan (BFl.to_algnum a, BFl.to_algnum b, Oid.Set.elements s)
      | ShF.TL.At (a, s) -> NAt (BFl.to_algnum a, Oid.Set.elements s))
    tl

let npiece_equal p p' =
  match p, p' with
  | NSpan (a, b, s), NSpan (a', b', s') ->
    A.compare a a' = 0 && A.compare b b' = 0 && s = s'
  | NAt (a, s), NAt (a', s') -> A.compare a a' = 0 && s = s'
  | _ -> false

let pp_npiece fmt = function
  | NSpan (a, b, s) ->
    Format.fprintf fmt "span(%a,%a):{%a}" A.pp a A.pp b
      Format.(pp_print_list ~pp_sep:(fun f () -> pp_print_string f ",") pp_print_int)
      s
  | NAt (a, s) ->
    Format.fprintf fmt "at(%a):{%a}" A.pp a
      Format.(pp_print_list ~pp_sep:(fun f () -> pp_print_string f ",") pp_print_int)
      s

(* One workload: sharded-filtered timeline vs exact timeline, piece by
   piece, plus the driver's own pruning accounting. *)
let check_workload name ~db ~gamma ~k ~lo ~hi ~cell =
  let gdist = Gdist.euclidean_sq ~gamma in
  let rx = KnnX.run_obs ~sink:Sink.noop ~db ~gdist ~k ~lo ~hi in
  let rs = ShF.run_obs ~sink:Sink.noop ~db ~gamma ~k ~lo ~hi ~cell () in
  let nx = norm_exact rx.KnnX.timeline and ns = norm_sharded rs.ShF.timeline in
  if List.length nx <> List.length ns then
    Alcotest.failf "%s: piece counts differ (exact %d, sharded %d)" name
      (List.length nx) (List.length ns);
  List.iteri
    (fun i (px, ps) ->
      if not (npiece_equal px ps) then
        Alcotest.failf "%s: piece %d differs: exact %a, sharded %a" name i
          pp_npiece px pp_npiece ps)
    (List.combine nx ns);
  let sh = rs.ShF.shard in
  if sh.ShF.admitted + sh.ShF.pruned <> DB.cardinal db then
    Alcotest.failf "%s: admitted %d + pruned %d <> population %d" name
      sh.ShF.admitted sh.ShF.pruned (DB.cardinal db);
  if sh.ShF.shards_touched > sh.ShF.shards_total then
    Alcotest.failf "%s: touched %d > total %d" name sh.ShF.shards_touched
      sh.ShF.shards_total;
  sh

(* A query trajectory drifting diagonally: exercises band search and shard
   pruning around a moving anchor. *)
let drifting_gamma () =
  T.linear ~start:(q (-100))
    ~a:(Qvec.of_list [ q 1; q (-1) ])
    ~b:(Qvec.of_list [ q (-5); q 5 ])

(* >= 200 seeded workloads across six families. *)
let test_sharded_equals_exact () =
  let pruned_somewhere = ref false in
  (* 1. uniform, small cell: fast movers migrate across many shard
     boundaries inside the window; half the seeds use a moving gamma *)
  for seed = 1 to 60 do
    let db = Gen.uniform_db ~seed ~n:6 ~dim:2 ~extent:40 ~speed:10 () in
    let gamma = if seed mod 2 = 0 then origin 2 else drifting_gamma () in
    let (_ : ShF.shard_stats) =
      check_workload
        (Printf.sprintf "uniform seed %d" seed)
        ~db ~gamma ~k:(1 + (seed mod 3)) ~lo:(q 0) ~hi:(q 25) ~cell:8.0
    in
    ()
  done;
  (* 2. clustered: distant clusters must be pruned, near ones swept *)
  for seed = 1 to 40 do
    let db =
      Gen.clustered_db ~seed ~n:24 ~clusters:4 ~spacing:2_000 ~spread:50
        ~speed:3 ()
    in
    let sh =
      check_workload
        (Printf.sprintf "clustered seed %d" seed)
        ~db ~gamma:(origin 2) ~k:2 ~lo:(q 0) ~hi:(q 20) ~cell:64.0
    in
    if sh.ShF.pruned > 0 then pruned_somewhere := true
  done;
  (* 3. boundary-snapped: integer positions under cell 1.0 put every
     object exactly on a cell corner *)
  for seed = 1 to 20 do
    let db = Gen.uniform_db ~seed ~n:6 ~dim:2 ~extent:10 ~speed:2 () in
    let (_ : ShF.shard_stats) =
      check_workload
        (Printf.sprintf "boundary seed %d" seed)
        ~db ~gamma:(origin 2) ~k:2 ~lo:(q 0) ~hi:(q 15) ~cell:1.0
    in
    ()
  done;
  (* 4. tangencies under the filtered arithmetic *)
  for seed = 1 to 20 do
    let db = Gen.tangency_db ~seed ~n:8 () in
    let (_ : ShF.shard_stats) =
      check_workload
        (Printf.sprintf "tangency seed %d" seed)
        ~db ~gamma:(origin 2) ~k:3 ~lo:(q 0) ~hi:(q 20) ~cell:4.0
    in
    ()
  done;
  (* 5. the 1-d pencil: every pair crosses simultaneously at t=5, and a
     small cell makes the crossing straddle shard boundaries *)
  for seed = 1 to 30 do
    let db = Gen.pencil_db ~seed ~n:7 ~at:(q 5) () in
    let (_ : ShF.shard_stats) =
      check_workload
        (Printf.sprintf "pencil seed %d" seed)
        ~db ~gamma:(origin 1) ~k:2 ~lo:(q 0) ~hi:(q 10) ~cell:2.0
    in
    ()
  done;
  (* 6. k at and past the population; degenerate point window *)
  for seed = 1 to 30 do
    let db = Gen.uniform_db ~seed ~n:5 ~dim:2 ~extent:30 ~speed:4 () in
    let k = if seed mod 2 = 0 then 5 else 9 in
    let (_ : ShF.shard_stats) =
      check_workload
        (Printf.sprintf "clamp seed %d" seed)
        ~db ~gamma:(origin 2) ~k ~lo:(q 0) ~hi:(q 20) ~cell:16.0
    in
    let (_ : ShF.shard_stats) =
      check_workload
        (Printf.sprintf "point-window seed %d" seed)
        ~db ~gamma:(origin 2) ~k:2 ~lo:(q 7) ~hi:(q 7) ~cell:16.0
    in
    ()
  done;
  Alcotest.(check bool) "clustered family pruned objects" true !pruned_somewhere

(* Identical curves can hold the top k without a tie at any event
   instant: object 4 dies at 5 and leaves the co-located pair 1, 2 in
   front, until object 6 is born ahead of them at 6.  Only the span
   between sees the pair. *)
let test_frontier_admits_span_ties () =
  let still ?(start = 0) x = T.stationary ~start:(q start) (Qvec.of_list [ q x; q 0 ]) in
  let db =
    List.fold_left
      (fun db (o, tr) -> DB.add_initial db o tr)
      (DB.empty ~dim:2 ~tau:(q 0))
      [ (1, still 3); (2, still 3); (4, T.terminate (still 1) (q 5)); (6, still ~start:6 2) ]
  in
  ignore
    (check_workload "death uncovers a co-located pair" ~db ~gamma:(origin 2) ~k:1
       ~lo:(q 0) ~hi:(q 10) ~cell:64.0);
  let r = ShF.run ~db ~gamma:(origin 2) ~k:1 ~lo:(q 0) ~hi:(q 10) () in
  let at t =
    Oid.Set.elements (Option.get (ShF.TL.find_at r.ShF.timeline (BFl.instant_of_scalar t)))
  in
  Alcotest.(check (list int)) "pair between the death and the birth" [ 1; 2 ]
    (at (Q.of_ints 11 2))

(* The shard counters reach the sink under their documented names. *)
let test_shard_counters () =
  let reg = Moq_obs.Registry.create () in
  let sink = Sink.of_registry reg in
  let db =
    Gen.clustered_db ~seed:9 ~n:30 ~clusters:5 ~spacing:3_000 ~spread:40
      ~speed:2 ()
  in
  let r =
    ShF.run_obs ~sink ~db ~gamma:(origin 2) ~k:2 ~lo:(q 0) ~hi:(q 15)
      ~cell:64.0 ()
  in
  let cval name = Moq_obs.Registry.counter_value reg name in
  Alcotest.(check (option int)) "admissions" (Some r.ShF.shard.ShF.admitted)
    (cval "moq_shard_admissions_total");
  Alcotest.(check (option int)) "prunes" (Some r.ShF.shard.ShF.pruned)
    (cval "moq_shard_prunes_total");
  Alcotest.(check (option int)) "touched" (Some r.ShF.shard.ShF.shards_touched)
    (cval "moq_shard_touched_total");
  Alcotest.(check (option int)) "merge ops"
    (Some r.ShF.shard.ShF.frontier_merge_ops)
    (cval "moq_shard_frontier_merge_ops_total")

(* Objects far apart under a small cell: the band's ring walk must reach
   a ring 10^5 cells out, when pilots run out (k above the population) or
   the k-th pilot is that far.  It goes straight to the non-empty rings,
   so the query costs a few rings, not the 10^5 between. *)
let test_far_apart () =
  let still x = T.stationary ~start:(q 0) (Qvec.of_list [ q x; q 0 ]) in
  let db_of xs =
    List.fold_left
      (fun db (o, x) -> DB.add_initial db o (still x))
      (DB.empty ~dim:2 ~tau:(q 0)) xs
  in
  let t0 = Sys.time () in
  let sh =
    check_workload "two objects 10^5 cells apart" ~db:(db_of [ (1, 0); (2, 100_000) ])
      ~gamma:(origin 2) ~k:3 ~lo:(q 0) ~hi:(q 10) ~cell:1.0
  in
  Alcotest.(check (option (float 0.0))) "pilots run out: no band" None sh.ShF.band;
  let sh =
    check_workload "third pilot 10^5 cells out"
      ~db:(db_of [ (1, 0); (2, 1); (3, 100_000); (4, -200_000) ])
      ~gamma:(origin 2) ~k:3 ~lo:(q 0) ~hi:(q 10) ~cell:1.0
  in
  Alcotest.(check bool) "band from the far pilot" true (sh.ShF.band <> None);
  let dt = Sys.time () -. t0 in
  if dt >= 1.0 then Alcotest.failf "far-apart queries took %.2f s of CPU" dt

let test_invalid_k () =
  let db = Gen.uniform_db ~seed:1 ~n:3 ~dim:2 ~extent:10 ~speed:1 () in
  Alcotest.check_raises "k = 0 rejected"
    (Invalid_argument "Shard.run: k must be positive") (fun () ->
      ignore (ShF.run ~db ~gamma:(origin 2) ~k:0 ~lo:(q 0) ~hi:(q 10) ()))

let () =
  Alcotest.run "sharded-driver"
    [
      ( "sharded-vs-exact",
        [
          Alcotest.test_case "≥200 seeded workloads identical" `Slow
            test_sharded_equals_exact;
          Alcotest.test_case "shard counters reach the sink" `Quick
            test_shard_counters;
          Alcotest.test_case "k <= 0 rejected" `Quick test_invalid_k;
          Alcotest.test_case "ring walk skips empty rings" `Quick test_far_apart;
          Alcotest.test_case "frontier admits span ties" `Quick
            test_frontier_admits_span_ties;
        ] );
    ]
