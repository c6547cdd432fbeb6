module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module U = Moq_mod.Update
module Oid = Moq_mod.Oid
module BX = Moq_core.Backend.Exact
module KnnX = Moq_core.Knn.Make (BX)
module MonX = Moq_core.Monitor.Make (BX)
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist
module NaiveX = Moq_baseline.Naive.Make (BX)
module Grid = Moq_baseline.Grid_index
module SR = Moq_baseline.Song_roussopoulos
module LazyX = Moq_baseline.Lazy_eval.Make (BX)
module Gen = Moq_workload.Gen

let q = Q.of_int

let prop ?(count = 40) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ------------------------------------------------------------------ *)
(* Naive vs sweep                                                       *)
(* ------------------------------------------------------------------ *)

let naive_agrees_with_sweep (seed, n, k) =
  let n = 2 + (n mod 6) and k = 1 + (k mod 3) in
  let db = Gen.uniform_db ~seed ~n ~extent:50 ~speed:5 () in
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let sweep = KnnX.run ~db ~gdist ~k ~lo:(q 0) ~hi:(q 20) in
  let naive_tl, _ = NaiveX.knn_run ~db ~gdist ~k ~lo:(q 0) ~hi:(q 20) in
  (* compare on a rational grid *)
  List.for_all
    (fun j ->
      let t = Q.div (q (2 * j + 1)) (q 5) in
      match
        ( KnnX.TL.find_at sweep.KnnX.timeline (BX.instant_of_scalar t),
          NaiveX.TL.find_at naive_tl (BX.instant_of_scalar t) )
      with
      | Some a, Some b -> Oid.Set.equal a b
      | _ -> false)
    (List.init 49 (fun j -> j))

let test_naive_more_work () =
  (* naive does O(N^2) pair computations; the sweep schedules only adjacent
     pairs *)
  let db = Gen.inversions_db ~seed:5 ~n:20 ~inversions:19 ~horizon:(q 50) in
  let gdist = Gdist.coordinate 0 in
  let _, stats = NaiveX.knn_run ~db ~gdist ~k:1 ~lo:(q 0) ~hi:(q 50) in
  Alcotest.(check int) "pairs = n(n-1)/2" 190 stats.NaiveX.pair_computations;
  (* distinct instants, <= inversions (several pairs may cross at once) *)
  Alcotest.(check bool) "events positive, at most inversions" true
    (stats.NaiveX.events > 0 && stats.NaiveX.events <= 19)

(* ------------------------------------------------------------------ *)
(* Grid index                                                           *)
(* ------------------------------------------------------------------ *)

let test_grid_range () =
  let points = [ (1, (0.0, 0.0)); (2, (3.0, 4.0)); (3, (10.0, 0.0)); (4, (-2.0, -2.0)) ] in
  let g = Grid.build ~cell:2.5 points in
  Alcotest.(check int) "size" 4 (Grid.size g);
  let within r = List.sort compare (List.map fst (Grid.range g ~center:(0.0, 0.0) ~radius:r)) in
  Alcotest.(check (list int)) "r=1" [ 1 ] (within 1.0);
  Alcotest.(check (list int)) "r=5" [ 1; 2; 4 ] (within 5.0);
  Alcotest.(check (list int)) "r=20" [ 1; 2; 3; 4 ] (within 20.0)

let test_grid_nearest_k () =
  let points = [ (1, (1.0, 0.0)); (2, (5.0, 0.0)); (3, (2.0, 0.0)); (4, (100.0, 0.0)) ] in
  let g = Grid.build ~cell:3.0 points in
  let nearest k = List.map fst (Grid.nearest_k g ~center:(0.0, 0.0) ~k) in
  Alcotest.(check (list int)) "k=1" [ 1 ] (nearest 1);
  Alcotest.(check (list int)) "k=3" [ 1; 3; 2 ] (nearest 3);
  Alcotest.(check (list int)) "k=10 clamps" [ 1; 3; 2; 4 ] (nearest 10)

(* nearest_k edge cases: the index must agree with a naive scan element
   for element (not just by distance multiset) — oids break ties, so
   duplicate positions, equidistant points and boundary-snapped points all
   have one canonical answer.  k may be 0, exceed the population, etc. *)

let naive_nearest points ~center:(cx, cy) ~k =
  if k <= 0 then []
  else
    List.sort
      (fun (o1, (x1, y1)) (o2, (x2, y2)) ->
        match
          Float.compare
            (Float.hypot (x1 -. cx) (y1 -. cy))
            (Float.hypot (x2 -. cx) (y2 -. cy))
        with
        | 0 -> compare o1 o2
        | c -> c)
      points
    |> List.filteri (fun i _ -> i < k)
    |> List.map (fun (o, (x, y)) -> (o, Float.hypot (x -. cx) (y -. cy)))

let grid_agrees ~cell points ~center ~k =
  let g = Grid.build ~cell points in
  Grid.nearest_k g ~center ~k = naive_nearest points ~center ~k

(* Generator biased toward the hard cases: coordinates snapped to cell
   boundaries (multiples of the cell size) and duplicated positions. *)
let hard_points_arb =
  let cell = 5.0 in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (pair
           (oneof
              [ float_range (-50.) 50.;
                map (fun i -> float_of_int i *. cell) (int_range (-10) 10) ])
           (oneof
              [ float_range (-50.) 50.;
                map (fun i -> float_of_int i *. cell) (int_range (-10) 10) ]))
      >>= fun pts ->
      (* duplicate a random prefix so several oids share one position *)
      int_range 0 (List.length pts) >|= fun d ->
      let dupes = List.filteri (fun i _ -> i < d) pts in
      pts @ dupes)
  in
  QCheck.make gen ~print:QCheck.Print.(list (pair float float))

let prop_grid_nearest_k_edges =
  prop ~count:200 "grid nearest_k = naive scan (ties, boundaries, any k)"
    (QCheck.pair hard_points_arb (QCheck.int_range 0 6))
    (fun (pts, kk) ->
      let points = List.mapi (fun i p -> (i + 1, p)) pts in
      let pop = List.length points in
      (* k = 0, small, exactly the population, and past it *)
      List.for_all
        (fun k -> grid_agrees ~cell:5.0 points ~center:(0.0, 0.0) ~k)
        [ 0; kk; pop; pop + 5 ]
      (* a boundary-snapped query center too *)
      && grid_agrees ~cell:5.0 points ~center:(5.0, -10.0) ~k:(max 1 kk))

let test_grid_nearest_k_duplicates () =
  (* five oids on two positions in one cell: ties broken by oid, k past
     the population clamps *)
  let points =
    [ (5, (1.0, 1.0)); (3, (1.0, 1.0)); (1, (2.0, 0.0)); (4, (2.0, 0.0));
      (2, (1.0, 1.0)) ]
  in
  let g = Grid.build ~cell:10.0 points in
  let nearest k = List.map fst (Grid.nearest_k g ~center:(0.0, 0.0) ~k) in
  Alcotest.(check (list int)) "ties by oid" [ 2; 3; 5 ] (nearest 3);
  Alcotest.(check (list int)) "k > pop" [ 2; 3; 5; 1; 4 ] (nearest 9);
  Alcotest.(check (list int)) "k = 0" [] (nearest 0)

let test_grid_nearest_k_boundary () =
  (* points exactly on cell boundaries: floor keying must not lose them *)
  let points = [ (1, (5.0, 0.0)); (2, (10.0, 0.0)); (3, (-5.0, 0.0)); (4, (0.0, 5.0)) ] in
  let g = Grid.build ~cell:5.0 points in
  Alcotest.(check (list int)) "all found, canonical order" [ 1; 3; 4; 2 ]
    (List.map fst (Grid.nearest_k g ~center:(0.0, 0.0) ~k:4))

let prop_grid_matches_linear_scan =
  prop "grid nearest_k = sort by distance"
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 30)
                    (QCheck.pair (QCheck.float_range (-100.) 100.) (QCheck.float_range (-100.) 100.)))
       (QCheck.int_range 1 5))
    (fun (pts, k) ->
      let points = List.mapi (fun i p -> (i + 1, p)) pts in
      let g = Grid.build ~cell:7.0 points in
      let got = List.map fst (Grid.nearest_k g ~center:(0.0, 0.0) ~k) in
      let expected =
        List.sort
          (fun (_, (x1, y1)) (_, (x2, y2)) ->
            Float.compare (Float.hypot x1 y1) (Float.hypot x2 y2))
          points
        |> List.filteri (fun i _ -> i < k)
        |> List.map fst
      in
      (* compare by distance multiset to tolerate exact ties *)
      let d o = let _, (x, y) = List.find (fun (o', _) -> o' = o) points in Float.hypot x y in
      List.map d got = List.map d expected)

(* ------------------------------------------------------------------ *)
(* Song-Roussopoulos: correctness gap (Figure 2's discussion)           *)
(* ------------------------------------------------------------------ *)

let figure2_like_db () =
  (* 1-NN to gamma moving right; o1 placed to overtake o2 briefly between
     re-search instants *)
  let db = DB.empty ~dim:2 ~tau:(q 0) in
  (* gamma at (t, 0); o2 rides near gamma; o1 dips close around t in (4,6) *)
  let db = DB.add_initial db 1
      (T.of_pieces
         [ { start = q 0; a = Qvec.of_list [ q 1; q (-2) ]; b = Qvec.of_list [ q 0; q 9 ] };
           { start = q 5; a = Qvec.of_list [ q 1; q 2 ]; b = Qvec.of_list [ q 0; q (-11) ] };
         ])
  in
  (* o1: x = t, y = 9-2t until 5 (y=-1 at 5), then y = 2t-11: |y| dips to 1 near t=5 *)
  let db = DB.add_initial db 2
      (T.linear ~start:(q 0) ~a:(Qvec.of_list [ q 1; q 0 ]) ~b:(Qvec.of_list [ q 0; q 3 ]))
  in
  (* o2: constant offset 3 above gamma *)
  db

let test_sr_misses_exchange () =
  let db = figure2_like_db () in
  let gamma = T.linear ~start:(q 0) ~a:(Qvec.of_list [ q 1; q 0 ]) ~b:(Qvec.of_list [ q 0; q 0 ]) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let sweep = KnnX.run ~db ~gdist ~k:1 ~lo:(q 0) ~hi:(q 10) in
  let truth t =
    KnnX.TL.find_at sweep.KnnX.timeline (BX.instant_of_scalar (Q.of_float t))
  in
  (* o1 is nearest exactly while |9-2t| < 3 resp |2t-11| < 3: t in (3, 7) *)
  (match truth 5.0 with
   | Some s -> Alcotest.(check (list int)) "o1 nearest at 5" [ 1 ] (Oid.Set.elements s)
   | None -> Alcotest.fail "no truth at 5");
  (* coarse re-search: period 8 samples at 0 and 8 only: never sees o1 *)
  let coarse = SR.run ~db ~gamma ~k:1 ~lo:(q 0) ~hi:(q 10) ~period:8.0 () in
  let miss_coarse = SR.mismatch_fraction ~truth ~samples:coarse ~lo:0.0 ~hi:10.0 ~probes:1000 in
  Alcotest.(check bool) "coarse misses the o1 window" true (miss_coarse > 0.3);
  (* fine re-search: period 0.25 tracks it closely *)
  let fine = SR.run ~db ~gamma ~k:1 ~lo:(q 0) ~hi:(q 10) ~period:0.25 () in
  let miss_fine = SR.mismatch_fraction ~truth ~samples:fine ~lo:0.0 ~hi:10.0 ~probes:1000 in
  Alcotest.(check bool) "fine much better" true (miss_fine < miss_coarse /. 2.0);
  (* the sweep itself never misses *)
  Alcotest.(check bool) "fine still not exact" true (miss_fine > 0.0)

(* ------------------------------------------------------------------ *)
(* Lazy vs eager                                                        *)
(* ------------------------------------------------------------------ *)

let test_lazy_matches_eager () =
  let db = Gen.uniform_db ~seed:11 ~n:8 ~extent:40 ~speed:4 () in
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 30)) in
  let updates = Gen.chdir_stream ~seed:12 ~db ~start:(q 0) ~gap:(q 6) ~count:4 () in
  let eager = MonX.create ~db ~gdist ~query () in
  let lazy_ = LazyX.create ~db ~gdist ~query in
  List.iter
    (fun u ->
      MonX.apply_update_exn eager u;
      LazyX.apply_update_exn lazy_ u)
    updates;
  let tl_eager = MonX.finalize eager in
  let r_lazy = LazyX.answer lazy_ in
  List.iter
    (fun j ->
      let t = Q.div (q (3 * j + 1)) (q 4) in
      match
        ( MonX.TL.find_at tl_eager (BX.instant_of_scalar t),
          MonX.TL.find_at r_lazy.LazyX.Sw.timeline (BX.instant_of_scalar t) )
      with
      | Some a, Some b ->
        Alcotest.(check (list int))
          (Printf.sprintf "t=%s" (Q.to_string t))
          (Oid.Set.elements b) (Oid.Set.elements a)
      | _ -> Alcotest.fail "timeline gap")
    (List.init 39 (fun j -> j))

let () =
  Alcotest.run "baseline"
    [ ("naive", [
        prop "naive knn = sweep knn" (QCheck.triple QCheck.small_int QCheck.small_int QCheck.small_int)
          naive_agrees_with_sweep;
        Alcotest.test_case "naive work accounting" `Quick test_naive_more_work;
      ]);
      ("grid", [
        Alcotest.test_case "range" `Quick test_grid_range;
        Alcotest.test_case "nearest_k" `Quick test_grid_nearest_k;
        Alcotest.test_case "nearest_k duplicates + clamp" `Quick test_grid_nearest_k_duplicates;
        Alcotest.test_case "nearest_k boundary points" `Quick test_grid_nearest_k_boundary;
        prop_grid_matches_linear_scan;
        prop_grid_nearest_k_edges;
      ]);
      ("song-roussopoulos", [
        Alcotest.test_case "misses exchanges between searches" `Quick test_sr_misses_exchange;
      ]);
      ("lazy", [ Alcotest.test_case "lazy answer = eager answer" `Quick test_lazy_matches_eager ]);
    ]
