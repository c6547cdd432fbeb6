(* Unit tests for the spatio-temporal grid: exact boxes, time-sorted cell
   lists, boundary cell assignment, ring enumeration, and the separation
   lower bound. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module Grid = Moq_index.Grid
module Gen = Moq_workload.Gen

let q = Q.of_int
let qs = Q.to_string

let vec2 x y = Qvec.of_list [ q x; q y ]

(* Every home shard as (key, members, exact box), forcing the boxes. *)
let shard_list g =
  Array.to_list
    (Array.map
       (fun s -> (s.Grid.key, Lazy.force s.Grid.members, Grid.shard_box s))
       (Grid.shards g))

let db_of specs =
  List.fold_left
    (fun db (o, ax, ay, bx, by) ->
      DB.add_initial db o (T.linear ~start:(q 0) ~a:(vec2 ax ay) ~b:(vec2 bx by)))
    (DB.empty ~dim:2 ~tau:(q 0))
    specs

let test_cell_of () =
  Alcotest.(check (pair int int)) "interior" (0, 0) (Grid.cell_of ~cell:10.0 (3.0, 7.0));
  Alcotest.(check (pair int int)) "negative floor" (-1, -1) (Grid.cell_of ~cell:10.0 (-0.5, -10.0));
  (* a point exactly on a boundary belongs to the higher cell *)
  Alcotest.(check (pair int int)) "boundary up" (1, 0) (Grid.cell_of ~cell:10.0 (10.0, 9.99))

let test_exact_boxes () =
  (* one object moving (5,5) -> (25,-15) over [0,10]: box from endpoints *)
  let db = db_of [ (1, 2, -2, 5, 5) ] in
  let g = Grid.build ~cell:10.0 ~lo:(q 0) ~hi:(q 10) db in
  (match shard_list g with
   | [ (_, [ 1 ], Some b) ] ->
     Alcotest.(check string) "x0" "5" (qs b.Grid.x0);
     Alcotest.(check string) "x1" "25" (qs b.Grid.x1);
     Alcotest.(check string) "y0" "-15" (qs b.Grid.y0);
     Alcotest.(check string) "y1" "5" (qs b.Grid.y1)
   | _ -> Alcotest.fail "expected one shard with a box");
  Alcotest.(check int) "population" 1 (Grid.population g)

let test_window_clipping () =
  (* the window cuts the motion: box must cover only [2, 4] *)
  let db = db_of [ (1, 10, 0, 0, 0) ] in
  let g = Grid.build ~cell:10.0 ~lo:(q 2) ~hi:(q 4) db in
  (match shard_list g with
   | [ (_, _, Some b) ] ->
     Alcotest.(check string) "x0 clipped" "20" (qs b.Grid.x0);
     Alcotest.(check string) "x1 clipped" "40" (qs b.Grid.x1)
   | _ -> Alcotest.fail "expected a box");
  (* no window presence at all: home shard exists, box is None *)
  let dead = DB.empty ~dim:2 ~tau:(q 0) in
  let dead =
    DB.add_initial dead 7
      (T.of_pieces
         [ { T.start = q 0; a = Qvec.zero 2; b = vec2 1 1 } ]
         ~death:(q 1))
  in
  let g' = Grid.build ~cell:10.0 ~lo:(q 5) ~hi:(q 9) dead in
  match shard_list g' with
  | [ (_, [ 7 ], None) ] -> ()
  | _ -> Alcotest.fail "dead-before-window object should have no box"

let test_entries_time_sorted () =
  let db = Gen.uniform_db ~seed:3 ~n:12 ~extent:30 ~speed:6 () in
  let g = Grid.build ~cell:16.0 ~lo:(q 0) ~hi:(q 25) db in
  List.iter
    (fun (key, _, _) ->
      let es = Grid.entries g key in
      let rec sorted = function
        | a :: (b :: _ as tl) ->
          Q.compare a.Grid.e_t0 b.Grid.e_t0 <= 0 && sorted tl
        | _ -> true
      in
      Alcotest.(check bool) "ascending e_t0" true (sorted es);
      List.iter
        (fun e ->
          Alcotest.(check bool) "t0 <= t1" true
            (Q.compare e.Grid.e_t0 e.Grid.e_t1 <= 0))
        es)
    (shard_list g)

let test_boundary_assignment () =
  (* position exactly on the (0,0)/(1,0) cell boundary: home shard is the
     higher cell, consistent with cell_of's floor semantics *)
  let db = db_of [ (1, 0, 0, 10, 0) ] in
  let g = Grid.build ~cell:10.0 ~lo:(q 0) ~hi:(q 5) db in
  Alcotest.(check (option (pair int int))) "boundary home" (Some (1, 0))
    (Grid.shard_of g 1)

let test_ring_search () =
  (* objects in three cells along the x-axis: (0,0), (2,0), (5,0) *)
  let db = db_of [ (1, 0, 0, 5, 5); (2, 0, 0, 25, 5); (3, 0, 0, 55, 5) ] in
  let g = Grid.build ~cell:10.0 ~lo:(q 0) ~hi:(q 1) db in
  let at ring = Grid.ring_candidates g ~center:(0, 0) ~ring in
  Alcotest.(check (list int)) "ring 0" [ 1 ] (at 0);
  Alcotest.(check (list int)) "ring 1 empty" [] (at 1);
  Alcotest.(check (list int)) "ring 2" [ 2 ] (at 2);
  Alcotest.(check (list int)) "ring 5" [ 3 ] (at 5);
  Alcotest.(check bool) "max_ring reaches the far cell" true
    (Grid.max_ring g ~center:(0, 0) >= 5);
  let next ring = Grid.next_ring g ~center:(0, 0) ~ring in
  Alcotest.(check (option int)) "next from 1 skips the empty ring" (Some 2) (next 1);
  Alcotest.(check (option int)) "next from 3" (Some 5) (next 3);
  Alcotest.(check (option int)) "none past the last" None (next 6)

let test_box_separation () =
  let box x0 x1 y0 y1 =
    { Grid.x0 = q x0; x1 = q x1; y0 = q y0; y1 = q y1 }
  in
  let sep a b = qs (Grid.box_separation_sq a b) in
  Alcotest.(check string) "overlap" "0" (sep (box 0 10 0 10) (box 5 15 5 15));
  Alcotest.(check string) "touching" "0" (sep (box 0 10 0 10) (box 10 20 0 10));
  Alcotest.(check string) "x gap" "25" (sep (box 0 10 0 10) (box 15 20 0 10));
  Alcotest.(check string) "diagonal" "25" (sep (box 0 10 0 10) (box 13 20 14 20))

(* The pruning test reads float enclosures first; its answer must be the
   exact one, including bands equal to the separation or a hair from it
   and coordinates no float holds (thirds, sevenths). *)
let test_separation_exceeds () =
  let st = Random.State.make [| 33 |] in
  let coord () = Q.of_ints (Random.State.int st 4001 - 2000) (1 + Random.State.int st 7) in
  let box () =
    let x = coord () and x' = coord () and y = coord () and y' = coord () in
    { Grid.x0 = Q.min x x'; x1 = Q.max x x'; y0 = Q.min y y'; y1 = Q.max y y' }
  in
  let hair = Q.of_ints 1 1_000_000_000_000 in
  for _ = 1 to 2000 do
    let a = box () and b = box () in
    let sep = Grid.box_separation_sq a b in
    List.iter
      (fun band ->
        let want = Q.compare sep band > 0 in
        let got =
          Grid.separation_exceeds (Lazy.from_val a) (Grid.enclose a) b (Grid.enclose b) ~band
            ~band_enc:(Moq_numeric.Fintval.of_rat band)
        in
        if got <> want then
          Alcotest.failf "separation %s against band %s: got %b" (qs sep) (qs band) got)
      [ sep; Q.add sep hair; Q.sub sep hair; Q.abs (Q.add sep (coord ())); Q.zero ]
  done

(* The shard array comes out of the build ascending by key, with every
   object in exactly one shard. *)
let test_shard_array () =
  let db = Gen.clustered_db ~seed:7 ~n:400 () in
  let g = Grid.build ~cell:64.0 ~lo:(q 0) ~hi:(q 20) db in
  let keys = List.map (fun (k, _, _) -> k) (shard_list g) in
  Alcotest.(check bool) "ascending keys" true (List.sort_uniq compare keys = keys);
  Alcotest.(check (list int)) "every object in one shard"
    (List.sort compare (List.map fst (DB.objects db)))
    (List.sort compare (List.concat_map (fun (_, m, _) -> m) (shard_list g)))

let test_trajectory_box () =
  let tr = T.linear ~start:(q 0) ~a:(vec2 (-3) 1) ~b:(vec2 10 0) in
  (match Grid.trajectory_box tr ~lo:(q 0) ~hi:(q 10) with
   | Some b ->
     Alcotest.(check string) "x0" "-20" (qs b.Grid.x0);
     Alcotest.(check string) "x1" "10" (qs b.Grid.x1);
     Alcotest.(check string) "y1" "10" (qs b.Grid.y1)
   | None -> Alcotest.fail "expected a box");
  Alcotest.(check bool) "no presence" true
    (Grid.trajectory_box (T.linear ~start:(q 50) ~a:(vec2 0 0) ~b:(vec2 0 0))
       ~lo:(q 0) ~hi:(q 10)
     = None)

(* Words [Grid.build] allocates per object on clustered MODs of scan's
   shape, after a warm-up build: all of them (minor words plus the flat
   columns, which are big enough to go straight to the major heap), and
   the minor words alone.  The build allocates its columns per object
   and per piece, and small blocks only per shard and where a coordinate
   needs its exact value.  The cluster spacing is a multiple of the cell,
   so every cluster sits on the grid the same way and the shards per
   object do not change with N: the check sees N alone. *)
let build_words_per_object n =
  let db = Gen.clustered_db ~seed:3 ~n ~spacing:10_240 () in
  let updates = Gen.chdir_stream ~seed:4 ~db ~start:(q 0) ~gap:(Q.of_ints 1 7) ~count:100 () in
  let db = DB.apply_all_exn db updates in
  let build () = Grid.build ~cell:256.0 ~lo:(q 6) ~hi:(q 16) db in
  ignore (Sys.opaque_identity (build ()));
  let allocated () =
    (* [Gc.minor_words] is exact at every call, [Gc.counters]' minor count
       may lag to the last minor collection; its major and promoted counts
       move together *)
    let minor = Gc.minor_words () and _, promoted, major = Gc.counters () in
    (minor +. major -. promoted, minor)
  in
  let all0, minor0 = allocated () in
  ignore (Sys.opaque_identity (build ()));
  let all1, minor1 = allocated () in
  let per x = x /. float_of_int n in
  (per (all1 -. all0), per (minor1 -. minor0))

(* The build reads about 11.4 words per object here, 2 of them minor;
   the hash-table build it replaced allocated about 258 minor words per
   object. *)
let build_words_budget = 20.0
let build_minor_words_budget = 6.0

let test_build_allocation () =
  let all1, minor1 = build_words_per_object 1_000 and all8, minor8 = build_words_per_object 8_000 in
  if all1 > build_words_budget || all8 > build_words_budget then
    Alcotest.failf "%.1f and %.1f words per object at N = 1000 and 8000, budget %.0f" all1 all8
      build_words_budget;
  if minor1 > build_minor_words_budget || minor8 > build_minor_words_budget then
    Alcotest.failf "%.1f and %.1f minor words per object at N = 1000 and 8000, budget %.0f"
      minor1 minor8 build_minor_words_budget;
  if Float.abs (all8 -. all1) > 0.1 *. all1 then
    Alcotest.failf "%.2f words per object at N = 8000, %.2f at N = 1000: not flat" all8 all1

let () =
  Alcotest.run "index"
    [ ("grid", [
        Alcotest.test_case "cell_of floor semantics" `Quick test_cell_of;
        Alcotest.test_case "exact piece boxes" `Quick test_exact_boxes;
        Alcotest.test_case "window clipping + dead object" `Quick test_window_clipping;
        Alcotest.test_case "cell lists time-sorted" `Quick test_entries_time_sorted;
        Alcotest.test_case "boundary cell assignment" `Quick test_boundary_assignment;
        Alcotest.test_case "ring search" `Quick test_ring_search;
        Alcotest.test_case "box separation lower bound" `Quick test_box_separation;
        Alcotest.test_case "separation test on enclosures = exact" `Quick test_separation_exceeds;
        Alcotest.test_case "shard array sorted by key" `Quick test_shard_array;
        Alcotest.test_case "trajectory window box" `Quick test_trajectory_box;
        Alcotest.test_case "build allocation per object, flat in N" `Quick test_build_allocation;
      ]);
    ]
