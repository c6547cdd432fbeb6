(* Differential test of the flat, float-first grid build against the
   exact one it replaced.

   [Oracle] is the exact build: every piece box, home position and key
   in rational arithmetic, keys from [Q.to_float] of the exact corners,
   every cell a piece's box overlaps materialised in a table keyed by
   (i, j), cell lists sorted by (start, OID).  On random databases
   [Grid.build] must give the same shard keys and presence, members and
   exact boxes that are built only when forced, the same home shards,
   the same ring candidates on every ring around several centers, and
   the same [entries], boxes and order included; every shard enclosure
   must enclose its exact box.  The databases put positions on and a
   hair off cell boundaries (where a float enclosure straddles the
   boundary and the exact key decides), in negative cells, at thirds and
   sevenths no float holds, in 1-d, near 2^40 under small cells (cell
   indices past 2^31, where keys packed into one int would alias), and
   include objects dead before the window or born after it and fast
   movers whose window box spans dozens of cells. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid
module Grid = Moq_index.Grid
module Gen = Moq_workload.Gen

let q = Q.of_int

(* ------------------------------------------------------------------ *)
(* The exact build                                                     *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  type shard = { key : int * int; members : Oid.t list; box : Grid.box option }

  type t = {
    cells : (int * int, Grid.entry list) Hashtbl.t;
    home : (Oid.t, int * int) Hashtbl.t;
    shards : shard array;
    key_lo : int * int;
    key_hi : int * int;
  }

  let box_union (a : Grid.box) (b : Grid.box) =
    { Grid.x0 = Q.min a.x0 b.x0; x1 = Q.max a.x1 b.x1;
      y0 = Q.min a.y0 b.y0; y1 = Q.max a.y1 b.y1 }

  let coord_at (p : T.piece) i t =
    if i >= Qvec.dim p.T.a then Q.zero
    else Q.add (Q.mul (Qvec.get p.T.a i) t) (Qvec.get p.T.b i)

  let piece_box (p : T.piece) ~t0 ~t1 =
    let ends i = (coord_at p i t0, coord_at p i t1) in
    let xa, xb = ends 0 in
    let ya, yb = ends 1 in
    { Grid.x0 = Q.min xa xb; x1 = Q.max xa xb; y0 = Q.min ya yb; y1 = Q.max ya yb }

  let window_pieces tr ~lo ~hi =
    let rec go acc = function
      | [] -> List.rev acc
      | (p : T.piece) :: rest ->
        let pend =
          match rest with
          | (p' : T.piece) :: _ -> Some p'.T.start
          | [] -> T.death tr
        in
        let t0 = Q.max p.T.start lo in
        let t1 = match pend with None -> hi | Some e -> Q.min e hi in
        if Q.compare t0 t1 > 0 then go acc rest
        else go ((t0, t1, piece_box p ~t0 ~t1) :: acc) rest
    in
    go [] (T.pieces tr)

  let build ~cell ~lo ~hi db =
    let cells = Hashtbl.create 256 and home = Hashtbl.create 256 in
    let shard_members = Hashtbl.create 64 and shard_box = Hashtbl.create 64 in
    let key_lo = ref (max_int, max_int) and key_hi = ref (min_int, min_int) in
    let note_key (i, j) =
      let li, lj = !key_lo and hi_, hj = !key_hi in
      key_lo := (min li i, min lj j);
      key_hi := (max hi_ i, max hj j)
    in
    List.iter
      (fun (o, tr) ->
        let t_enter =
          let b = T.birth tr in
          let t = Q.max b lo in
          if T.defined_at tr t then t else b
        in
        let pos = T.position_exn tr t_enter in
        let x = Q.to_float (Qvec.get pos 0) in
        let y = if Qvec.dim pos >= 2 then Q.to_float (Qvec.get pos 1) else 0.0 in
        let hkey = Grid.cell_of ~cell (x, y) in
        Hashtbl.replace home o hkey;
        Hashtbl.replace shard_members hkey
          (o :: Option.value ~default:[] (Hashtbl.find_opt shard_members hkey));
        List.iter
          (fun (t0, t1, (b : Grid.box)) ->
            (match Hashtbl.find_opt shard_box hkey with
             | None -> Hashtbl.replace shard_box hkey b
             | Some old -> Hashtbl.replace shard_box hkey (box_union old b));
            let i0, j0 = Grid.cell_of ~cell (Q.to_float b.x0, Q.to_float b.y0) in
            let i1, j1 = Grid.cell_of ~cell (Q.to_float b.x1, Q.to_float b.y1) in
            let e = { Grid.e_oid = o; e_t0 = t0; e_t1 = t1; e_box = b } in
            for i = i0 to i1 do
              for j = j0 to j1 do
                note_key (i, j);
                Hashtbl.replace cells (i, j)
                  (e :: Option.value ~default:[] (Hashtbl.find_opt cells (i, j)))
              done
            done)
          (window_pieces tr ~lo ~hi))
      (DB.objects db);
    Hashtbl.filter_map_inplace
      (fun _ es ->
        Some
          (List.sort
             (fun (a : Grid.entry) b ->
               match Q.compare a.e_t0 b.e_t0 with
               | 0 -> Oid.compare a.e_oid b.e_oid
               | c -> c)
             es))
      cells;
    let shards =
      Array.of_list
        (Hashtbl.fold
           (fun key members acc ->
             { key; members = List.sort Oid.compare members;
               box = Hashtbl.find_opt shard_box key }
             :: acc)
           shard_members [])
    in
    Array.sort (fun a b -> compare a.key b.key) shards;
    let empty = !key_lo = (max_int, max_int) in
    { cells; home; shards;
      key_lo = (if empty then (0, 0) else !key_lo);
      key_hi = (if empty then (0, 0) else !key_hi) }

  let chebyshev (ci, cj) (i, j) = max (abs (i - ci)) (abs (j - cj))

  (* ring -> the OIDs with a piece in a cell of that ring around
     [center], ascending; the non-empty rings only *)
  let rings t ~center =
    let by_ring = Hashtbl.create 64 in
    Hashtbl.iter
      (fun k es ->
        let r = chebyshev center k in
        Hashtbl.replace by_ring r
          (List.map (fun (e : Grid.entry) -> e.e_oid) es
          @ Option.value ~default:[] (Hashtbl.find_opt by_ring r)))
      t.cells;
    Hashtbl.filter_map_inplace (fun _ os -> Some (List.sort_uniq Oid.compare os)) by_ring;
    by_ring

  let max_ring t ~center:(ci, cj) =
    let (li, lj) = t.key_lo and (hi, hj) = t.key_hi in
    max 0 (max (max (abs (ci - li)) (abs (hi - ci))) (max (abs (cj - lj)) (abs (hj - cj))))
end

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let box_equal (a : Grid.box) (b : Grid.box) =
  Q.equal a.x0 b.x0 && Q.equal a.x1 b.x1 && Q.equal a.y0 b.y0 && Q.equal a.y1 b.y1

let entry_equal (a : Grid.entry) (b : Grid.entry) =
  a.e_oid = b.e_oid && Q.equal a.e_t0 b.e_t0 && Q.equal a.e_t1 b.e_t1
  && box_equal a.e_box b.e_box

(* [l <= x <= h], reading a non-finite end as unbounded. *)
let within l x h =
  (not (Float.is_finite l) || Q.compare (Q.of_float l) x <= 0)
  && (not (Float.is_finite h) || Q.compare x (Q.of_float h) <= 0)

let encloses (e : Grid.enclosure) (b : Grid.box) =
  within e.x0l b.x0 e.x0h && within e.x1l b.x1 e.x1h
  && within e.y0l b.y0 e.y0h && within e.y1l b.y1 e.y1h

let pp_key (i, j) = Printf.sprintf "(%d, %d)" i j

let check_same ~what ~cell ~lo ~hi db =
  let fail fmt = Alcotest.failf ("%s (cell %g, window [%s, %s]): " ^^ fmt) what cell
      (Q.to_string lo) (Q.to_string hi) in
  let g = Grid.build ~cell ~lo ~hi db and o = Oracle.build ~cell ~lo ~hi db in
  if Grid.population g <> DB.cardinal db then fail "population";
  (* shards: keys, presence, enclosures, and the members and exact
     boxes, which the build leaves unbuilt until they are forced *)
  let gs = Grid.shards g in
  if Array.length gs <> Array.length o.shards then
    fail "%d shards, oracle %d" (Array.length gs) (Array.length o.shards);
  Array.iter
    (fun (s : Grid.shard) ->
      if Lazy.is_val s.members || Lazy.is_val s.box then
        fail "shard %s built its members or box eagerly" (pp_key s.key))
    gs;
  Array.iteri
    (fun i (s : Grid.shard) ->
      let os = o.shards.(i) in
      if s.key <> os.key then fail "shard %d key %s, oracle %s" i (pp_key s.key) (pp_key os.key);
      if Lazy.force s.members <> os.members then fail "shard %s members" (pp_key s.key);
      if s.present <> (os.box <> None) then fail "shard %s presence" (pp_key s.key);
      match os.box with
      | None -> ()
      | Some ob ->
        if not (encloses s.enc ob) then fail "shard %s enclosure misses its box" (pp_key s.key);
        (match Grid.shard_box s with
         | Some b when box_equal b ob -> ()
         | _ -> fail "shard %s forced box" (pp_key s.key)))
    gs;
  (* home shards *)
  List.iter
    (fun (oid, _) ->
      if Grid.shard_of g oid <> Hashtbl.find_opt o.home oid then fail "shard_of %d" oid)
    (DB.objects db);
  if Grid.shard_of g (1 + List.fold_left (fun m (o, _) -> max m o) 0 (DB.objects db)) <> None
  then fail "shard_of an unknown OID";
  (* rings around several centers.  Where every ring from 0 to one past
     the last is few, each is compared; otherwise the rings compared are
     the oracle's non-empty ones and their neighbours, and [next_ring]
     from each of those must name the oracle's next non-empty ring, so
     the grid has no non-empty ring the oracle lacks *)
  let centers =
    [ (0, 0); o.key_lo; o.key_hi; (-3, 2) ]
    @ (if Array.length o.shards > 0 then [ o.shards.(0).key ] else [])
  in
  List.iter
    (fun center ->
      let last = Oracle.max_ring o ~center in
      if Grid.max_ring g ~center <> last then fail "max_ring around %s" (pp_key center);
      let by_ring = Oracle.rings o ~center in
      let nonempty = List.sort Int.compare (Hashtbl.fold (fun r _ acc -> r :: acc) by_ring []) in
      let rings =
        if last < 400 then List.init (last + 2) Fun.id
        else
          List.sort_uniq Int.compare
            ([ 0; last; last + 1 ]
            @ List.concat_map (fun r -> List.filter (( <= ) 0) [ r - 1; r; r + 1 ]) nonempty)
      in
      List.iter
        (fun ring ->
          if Grid.ring_candidates g ~center ~ring
             <> Option.value ~default:[] (Hashtbl.find_opt by_ring ring)
          then
            fail "ring %d candidates around %s" ring (pp_key center);
          if Grid.next_ring g ~center ~ring <> List.find_opt (fun r -> r >= ring) nonempty then
            fail "next ring from %d around %s" ring (pp_key center))
        rings)
    centers;
  (* every non-empty cell's entries *)
  Hashtbl.iter
    (fun k oes ->
      let es = Grid.entries g k in
      if not (List.length es = List.length oes && List.for_all2 entry_equal es oes)
      then fail "entries of cell %s" (pp_key k))
    o.cells;
  List.iter
    (fun k ->
      if (not (Hashtbl.mem o.cells k)) && Grid.entries g k <> [] then
        fail "entries of the empty cell %s" (pp_key k))
    [ (max_int, 0); (0, min_int); (-3, 2) ]

(* ------------------------------------------------------------------ *)
(* Databases                                                           *)
(* ------------------------------------------------------------------ *)

(* p/d with d in {1, 3, 7}: thirds and sevenths no float holds. *)
let rat st bound =
  let d = [| 1; 3; 7 |].(Random.State.int st 3) in
  Q.of_ints (Random.State.int st (2 * bound + 1) - bound) d

(* A coordinate on a cell boundary (a multiple of [cell], negative ones
   included), a hair either side of one, or a plain third or seventh. *)
let coord st ~cell =
  let k = Q.mul (q (Random.State.int st 9 - 4)) (Q.of_float cell) in
  match Random.State.int st 4 with
  | 0 -> k
  | 1 -> Q.add k (Q.of_ints 1 3_000_000_000)
  | 2 -> Q.sub k (Q.of_ints 1 7_000_000_000)
  | _ -> rat st (int_of_float (4.0 *. cell))

let random_trajectory st ~dim ~cell ~lo ~hi =
  let vec f = Qvec.of_list (List.init dim (fun _ -> f ())) in
  let start =
    match Random.State.int st 6 with
    | 0 -> Q.sub lo (q 5)
    | 1 -> lo
    | 2 -> Q.add lo (Q.of_ints 1 3)
    | 3 -> Q.add hi (q 3)  (* born after the window *)
    | 4 -> hi
    | _ -> Q.sub lo (Q.of_ints 2 7)
  in
  (* the position where the object enters the window (or is born) sits on
     or near a boundary half of the time *)
  let anchor = Q.max start lo in
  (* speeds of a few cells per time unit at most, so a piece spans few
     cells whatever the cell size *)
  let speed () = Q.mul (rat st 3) (Q.of_float (cell /. 4.0)) in
  let pos = vec (fun () -> coord st ~cell) and a = vec speed in
  let tr = T.linear ~start ~a ~b:(Qvec.sub pos (Qvec.scale anchor a)) in
  let rec turns tr t n =
    if n = 0 then (tr, t)
    else begin
      let t = Q.add t (Q.add (Q.abs (rat st 6)) (Q.of_ints 1 7)) in
      turns (T.chdir tr t (vec speed)) t (n - 1)
    end
  in
  let tr, last = turns tr start (Random.State.int st 4) in
  match Random.State.int st 4 with
  | 0 ->
    (* terminated: possibly before the window, or exactly at its start *)
    let d =
      if Random.State.bool st && Q.compare lo last > 0 then lo
      else Q.add last (Q.of_ints 1 7)
    in
    T.terminate tr d
  | _ -> tr

let random_db st ~dim ~n ~cell ~lo ~hi =
  let db = ref (DB.empty ~dim ~tau:(q 0)) in
  for o = 1 to n do
    db := DB.add_initial !db o (random_trajectory st ~dim ~cell ~lo ~hi)
  done;
  !db

let windows = [ (q 2, q 10); (Q.of_ints 1 3, Q.of_ints 22 7); (q 4, q 4); (q (-3), q 12) ]
let cells = [ 1.0; 2.5; 10.0; 256.0; 0.75 ]

let test_random_2d () =
  let st = Random.State.make [| 22 |] in
  for round = 1 to 40 do
    let cell = List.nth cells (round mod List.length cells) in
    let lo, hi = List.nth windows (round mod List.length windows) in
    let db = random_db st ~dim:2 ~n:60 ~cell ~lo ~hi in
    check_same ~what:(Printf.sprintf "random 2-d round %d" round) ~cell ~lo ~hi db
  done

let test_random_1d () =
  let st = Random.State.make [| 7 |] in
  for round = 1 to 20 do
    let cell = List.nth cells (round mod List.length cells) in
    let lo, hi = List.nth windows (round mod List.length windows) in
    let db = random_db st ~dim:1 ~n:40 ~cell ~lo ~hi in
    check_same ~what:(Printf.sprintf "random 1-d round %d" round) ~cell ~lo ~hi db
  done

(* Integer positions and velocities at integer times land corners exactly
   on the boundaries of small cells. *)
let test_uniform () =
  List.iter
    (fun (dim, cell) ->
      let db = Gen.uniform_db ~seed:5 ~n:150 ~dim ~extent:30 ~speed:6 () in
      List.iter
        (fun (lo, hi) -> check_same ~what:(Printf.sprintf "uniform %d-d" dim) ~cell ~lo ~hi db)
        windows)
    [ (2, 4.0); (2, 2.5); (1, 3.0); (2, 256.0) ]

(* The scan workload's shape: clusters, 256 cells, window [6, 16], after a
   batch of direction changes at rational instants. *)
let test_clustered () =
  let db = Gen.clustered_db ~seed:3 ~n:400 ~spacing:700 () in
  let updates = Gen.chdir_stream ~seed:4 ~db ~start:(q 0) ~gap:(Q.of_ints 1 7) ~count:80 () in
  let db = DB.apply_all_exn db updates in
  List.iter
    (fun cell -> check_same ~what:"clustered" ~cell ~lo:(q 6) ~hi:(q 16) db)
    [ 256.0; 64.0 ]

(* Cell indices past 2^31: positions near ±2^40 under small cells, and
   cells whose indices differ by exactly 2^32 in one coordinate, or swap
   coordinates, so any packing of (i, j) into one int would alias two
   keys.  Speeds of a few cells per time unit, fractions included. *)
let test_far_cells () =
  let st = Random.State.make [| 40 |] in
  let big = Q.of_bigint (Moq_numeric.Bigint.shift_left Moq_numeric.Bigint.one 40) in
  let wrap = Q.of_bigint (Moq_numeric.Bigint.shift_left Moq_numeric.Bigint.one 32) in
  List.iter
    (fun cell ->
      let lo = q 2 and hi = q 10 in
      let qc = Q.of_float cell in
      let anchors =
        [ (big, Q.zero); (Q.neg big, big); (Q.zero, Q.neg big);
          (Q.zero, Q.zero); (Q.mul wrap qc, Q.zero); (Q.zero, Q.mul wrap qc);
          (qc, Q.zero); (Q.zero, qc); (Q.neg (Q.mul wrap qc), Q.mul wrap qc) ]
      in
      let db = ref (DB.empty ~dim:2 ~tau:(q 0)) and o = ref 0 in
      List.iter
        (fun (ax, ay) ->
          for _ = 1 to 6 do
            incr o;
            let off () = Q.add (coord st ~cell) (Q.of_ints (Random.State.int st 7) 3) in
            let pos = Qvec.of_list [ Q.add ax (off ()); Q.add ay (off ()) ] in
            let a = Qvec.of_list [ Q.mul (rat st 3) (Q.of_float (cell /. 4.0));
                                   Q.mul (rat st 3) (Q.of_float (cell /. 4.0)) ] in
            db := DB.add_initial !db !o (T.linear ~start:(q 0) ~a ~b:pos)
          done)
        anchors;
      check_same ~what:"cells past 2^31" ~cell ~lo ~hi !db)
    [ 1.0; 0.75; 1.0 /. 1024.0 ]

(* Fast movers: window boxes 50 to 200 cells across, turning, some dying
   inside the window, beside slow objects. *)
let test_fast_movers () =
  let st = Random.State.make [| 50 |] in
  for round = 1 to 6 do
    let cell = List.nth [ 1.0; 2.5; 0.75 ] (round mod 3) in
    let lo = q 2 and hi = q 10 in
    let db = ref (random_db st ~dim:2 ~n:20 ~cell ~lo ~hi) in
    let cells_per_unit k = Q.mul (q k) (Q.of_float cell) in
    for o = 21 to 26 do
      (* mostly along x, up to 25 cells per time unit; one diagonal at 8 *)
      let a () =
        if o = 21 then Qvec.of_list [ cells_per_unit 8; cells_per_unit (-8) ]
        else
          Qvec.of_list
            [ cells_per_unit (7 + Random.State.int st 19); Q.mul (rat st 3) (Q.of_float cell) ]
      in
      let tr = T.linear ~start:(q 1) ~a:(a ()) ~b:(Qvec.of_list [ rat st 20; rat st 20 ]) in
      let tr = T.chdir tr (Q.of_ints 17 3) (a ()) in
      let tr = if o mod 3 = 0 then T.terminate tr (Q.of_ints 25 3) else tr in
      db := DB.add_initial !db o tr
    done;
    (match Grid.trajectory_box (Option.get (DB.find !db 22)) ~lo ~hi with
     | Some b when Q.compare (Q.sub b.x1 b.x0) (Q.mul (q 50) (Q.of_float cell)) >= 0 -> ()
     | _ -> Alcotest.fail "a fast mover's window box spans fewer than 50 cells");
    check_same ~what:(Printf.sprintf "fast movers round %d" round) ~cell ~lo ~hi !db
  done

let () =
  Alcotest.run "grid-diff"
    [ ("float-first = exact build", [
        Alcotest.test_case "random 2-d databases" `Quick test_random_2d;
        Alcotest.test_case "random 1-d databases" `Quick test_random_1d;
        Alcotest.test_case "integer grids on cell boundaries" `Quick test_uniform;
        Alcotest.test_case "clustered with chdirs" `Quick test_clustered;
        Alcotest.test_case "cell indices past 2^31" `Quick test_far_cells;
        Alcotest.test_case "fast movers across many cells" `Quick test_fast_movers;
      ]);
    ]
