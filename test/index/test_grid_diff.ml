(* Differential test of the float-first grid build against the exact one
   it replaced.

   [Oracle] is the exact build: every piece box, home position and key
   in rational arithmetic, keys from [Q.to_float] of the exact corners,
   cell lists sorted by (start, OID).  On random databases the float-first
   [Grid.build] must give the same shard keys, members, presence and
   (forced) exact boxes, the same home shards, the same non-empty cells
   and ring candidates on every ring, and the same [entries], boxes and
   order included; every shard enclosure must enclose its exact box.  The
   databases put positions on and a hair off cell boundaries (where a
   float enclosure straddles the boundary and the exact key decides),
   in negative cells, at thirds and sevenths no float holds, in 1-d, and
   include objects dead before the window or born after it. *)

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

  let mem t k = Hashtbl.mem t.cells k
  let entries t k = Option.value ~default:[] (Hashtbl.find_opt t.cells k)

  let ring_cells t ~center:(ci, cj) ~ring =
    if ring = 0 then if mem t (ci, cj) then [ (ci, cj) ] else []
    else begin
      let acc = ref [] in
      let consider i j = if mem t (i, j) then acc := (i, j) :: !acc in
      for i = ci - ring to ci + ring do
        consider i (cj - ring);
        consider i (cj + ring)
      done;
      for j = cj - ring + 1 to cj + ring - 1 do
        consider (ci - ring) j;
        consider (ci + ring) j
      done;
      List.rev !acc
    end

  let max_ring t ~center:(ci, cj) =
    let (li, lj) = t.key_lo and (hi, hj) = t.key_hi in
    max 0 (max (max (abs (ci - li)) (abs (hi - ci))) (max (abs (cj - lj)) (abs (hj - cj))))

  let ring_candidates t ~center ~ring =
    List.sort_uniq Oid.compare
      (List.concat_map
         (fun k -> List.map (fun (e : Grid.entry) -> e.e_oid) (entries t k))
         (ring_cells t ~center ~ring))
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
  (* shards: keys, members, presence, forced boxes, enclosures *)
  let gs = Grid.shards g in
  if Array.length gs <> Array.length o.shards then
    fail "%d shards, oracle %d" (Array.length gs) (Array.length o.shards);
  Array.iteri
    (fun i (s : Grid.shard) ->
      let os = o.shards.(i) in
      if s.key <> os.key then fail "shard %d key %s, oracle %s" i (pp_key s.key) (pp_key os.key);
      if s.members <> os.members then fail "shard %s members" (pp_key s.key);
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
  (* rings around several centers, out to one past the last: the
     non-empty cells and the candidates *)
  let centers =
    [ (0, 0); o.key_lo; o.key_hi; (-3, 2) ]
    @ (if Array.length o.shards > 0 then [ o.shards.(0).key ] else [])
  in
  List.iter
    (fun center ->
      let last = Oracle.max_ring o ~center in
      if Grid.max_ring g ~center <> last then fail "max_ring around %s" (pp_key center);
      for ring = 0 to last + 1 do
        let cells = Oracle.ring_cells o ~center ~ring in
        if Grid.ring_cells g ~center ~ring <> cells then
          fail "ring %d cells around %s" ring (pp_key center);
        if Grid.ring_candidates g ~center ~ring <> Oracle.ring_candidates o ~center ~ring then
          fail "ring %d candidates around %s" ring (pp_key center)
      done)
    centers;
  (* every cell: the rings above saw the same non-empty cells *)
  Hashtbl.iter
    (fun k oes ->
      let es = Grid.entries g k in
      if not (List.length es = List.length oes && List.for_all2 entry_equal es oes)
      then fail "entries of cell %s" (pp_key k))
    o.cells

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

let () =
  Alcotest.run "grid-diff"
    [ ("float-first = exact build", [
        Alcotest.test_case "random 2-d databases" `Quick test_random_2d;
        Alcotest.test_case "random 1-d databases" `Quick test_random_1d;
        Alcotest.test_case "integer grids on cell boundaries" `Quick test_uniform;
        Alcotest.test_case "clustered with chdirs" `Quick test_clustered;
      ]);
    ]
