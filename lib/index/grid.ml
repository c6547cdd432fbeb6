(* Spatio-temporal grid over trajectory pieces.  Cell keying is float
   (performance only); every stored bound is an exact rational (pruning
   correctness).  See grid.mli for the contract. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid
module IV = Moq_numeric.Fintval

type box = {
  x0 : Q.t;
  x1 : Q.t;
  y0 : Q.t;
  y1 : Q.t;
}

type entry = {
  e_oid : Oid.t;
  e_t0 : Q.t;
  e_t1 : Q.t;
  e_box : box;
}

type enclosure = {
  x0l : float; x0h : float; x1l : float; x1h : float;
  y0l : float; y0h : float; y1l : float; y1h : float;
}

type shard = {
  key : int * int;
  members : Oid.t list;
  box : box option;
  enc : enclosure;
}

type t = {
  cell : float;
  cells : (int * int, entry list) Hashtbl.t;  (* time-sorted after build *)
  home : (Oid.t, int * int) Hashtbl.t;
  shards : shard array;  (* ascending key *)
  key_lo : int * int;  (* bounds of occupied piece cells *)
  key_hi : int * int;
  population : int;
}

let cell_of ~cell (x, y) =
  ( int_of_float (Float.floor (x /. cell)),
    int_of_float (Float.floor (y /. cell)) )

let box_union a b =
  { x0 = Q.min a.x0 b.x0; x1 = Q.max a.x1 b.x1;
    y0 = Q.min a.y0 b.y0; y1 = Q.max a.y1 b.y1 }

(* Per-axis gap between closed intervals; 0 when they overlap. *)
let axis_gap lo hi lo' hi' =
  if Q.compare lo' hi > 0 then Q.sub lo' hi
  else if Q.compare lo hi' > 0 then Q.sub lo hi'
  else Q.zero

let box_separation_sq a b =
  let gx = axis_gap a.x0 a.x1 b.x0 b.x1 in
  let gy = axis_gap a.y0 a.y1 b.y0 b.y1 in
  Q.add (Q.mul gx gx) (Q.mul gy gy)

(* The enclosure of a shard with no box: NaN bounds, which decide
   nothing. *)
let nowhere = { x0l = nan; x0h = nan; x1l = nan; x1h = nan; y0l = nan; y0h = nan; y1l = nan; y1h = nan }

let enclose b =
  let iv = IV.of_rat in
  let x0 = iv b.x0 and x1 = iv b.x1 and y0 = iv b.y0 and y1 = iv b.y1 in
  { x0l = IV.lo x0; x0h = IV.hi x0; x1l = IV.lo x1; x1h = IV.hi x1;
    y0l = IV.lo y0; y0h = IV.hi y0; y1l = IV.lo y1; y1h = IV.hi y1 }

(* Float bounds on [box_separation_sq] from the coordinate enclosures:
   each operation rounds to nearest and its result moves one ulp outward,
   as in {!Moq_numeric.Fintval}, so [sep_lo <= sep <= sep_hi].  The
   differences are [max (0, lo' - hi, lo - hi')] per axis ([axis_gap]).
   An enclosure's lower end is never [+inf] and its upper end never
   [-inf], so no difference is [inf - inf]; only [nowhere] makes a NaN,
   which fails both comparisons in [separation_exceeds]. *)
let fmax (a : float) b = if a > b then a else b

let sep_lo a b =
  let gx = fmax 0.0 (Float.pred (fmax (b.x0l -. a.x1h) (a.x0l -. b.x1h))) in
  let gy = fmax 0.0 (Float.pred (fmax (b.y0l -. a.y1h) (a.y0l -. b.y1h))) in
  Float.pred (Float.pred (gx *. gx) +. Float.pred (gy *. gy))

let sep_hi a b =
  let gx = fmax 0.0 (Float.succ (fmax (b.x0h -. a.x1l) (a.x0h -. b.x1l))) in
  let gy = fmax 0.0 (Float.succ (fmax (b.y0h -. a.y1l) (a.y0h -. b.y1l))) in
  Float.succ (Float.succ (gx *. gx) +. Float.succ (gy *. gy))

let separation_exceeds a ea b eb ~band ~band_enc =
  if sep_lo ea eb > IV.hi band_enc then true
  else if sep_hi ea eb <= IV.lo band_enc then false
  else Q.compare (box_separation_sq a b) band > 0

(* Coordinate i of [a·t + b] evaluated at [t]; dimensions beyond the
   trajectory's are flat zero (1-d databases index as y = 0). *)
let coord_at (p : T.piece) i t =
  if i >= Qvec.dim p.T.a then Q.zero
  else Q.add (Q.mul (Qvec.get p.T.a i) t) (Qvec.get p.T.b i)

(* Exact (x, y) bounds of one linear piece over [t0, t1]: endpoints
   suffice, the motion is linear. *)
let piece_box (p : T.piece) ~t0 ~t1 =
  let ends i = (coord_at p i t0, coord_at p i t1) in
  let xa, xb = ends 0 in
  let ya, yb = ends 1 in
  { x0 = Q.min xa xb; x1 = Q.max xa xb;
    y0 = Q.min ya yb; y1 = Q.max ya yb }

(* Pieces of [tr] clipped to [lo, hi], with their exact boxes. *)
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

let trajectory_box tr ~lo ~hi =
  List.fold_left
    (fun acc (_, _, b) ->
      match acc with None -> Some b | Some old -> Some (box_union old b))
    None
    (window_pieces tr ~lo ~hi)

let add_entry cells key e =
  let old = Option.value ~default:[] (Hashtbl.find_opt cells key) in
  Hashtbl.replace cells key (e :: old)

let build ~cell ~lo ~hi db =
  if cell <= 0.0 then invalid_arg "Grid.build: cell <= 0";
  if Q.compare lo hi > 0 then invalid_arg "Grid.build: lo > hi";
  let cells = Hashtbl.create 256 in
  let home = Hashtbl.create 256 in
  let shard_members = Hashtbl.create 64 in
  let shard_box = Hashtbl.create 64 in
  let key_lo = ref (max_int, max_int) and key_hi = ref (min_int, min_int) in
  let note_key (i, j) =
    let li, lj = !key_lo and hi_, hj = !key_hi in
    key_lo := (min li i, min lj j);
    key_hi := (max hi_ i, max hj j)
  in
  let population = ref 0 in
  List.iter
    (fun (o, tr) ->
      incr population;
      (* home shard: the cell under the position where the object enters
         the window (its birth position when it is born inside or after
         the window, or was already dead) *)
      let t_enter =
        let b = T.birth tr in
        let t = Q.max b lo in
        if T.defined_at tr t then t else b
      in
      let pos = T.position_exn tr t_enter in
      let x = Q.to_float (Qvec.get pos 0) in
      let y = if Qvec.dim pos >= 2 then Q.to_float (Qvec.get pos 1) else 0.0 in
      let hkey = cell_of ~cell (x, y) in
      Hashtbl.replace home o hkey;
      Hashtbl.replace shard_members hkey
        (o :: Option.value ~default:[] (Hashtbl.find_opt shard_members hkey));
      List.iter
        (fun (t0, t1, b) ->
          (* extend the home shard's exact box *)
          (match Hashtbl.find_opt shard_box hkey with
           | None -> Hashtbl.replace shard_box hkey b
           | Some old -> Hashtbl.replace shard_box hkey (box_union old b));
          (* bucket the piece into every cell its box overlaps *)
          let i0, j0 = cell_of ~cell (Q.to_float b.x0, Q.to_float b.y0) in
          let i1, j1 = cell_of ~cell (Q.to_float b.x1, Q.to_float b.y1) in
          let e = { e_oid = o; e_t0 = t0; e_t1 = t1; e_box = b } in
          for i = i0 to i1 do
            for j = j0 to j1 do
              note_key (i, j);
              add_entry cells (i, j) e
            done
          done)
        (window_pieces tr ~lo ~hi))
    (DB.objects db);
  (* time-sort the per-cell piece lists, OID-sort the shard member lists *)
  let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.iter
    (fun k ->
      Hashtbl.replace cells k
        (List.sort
           (fun a b ->
             match Q.compare a.e_t0 b.e_t0 with
             | 0 -> Oid.compare a.e_oid b.e_oid
             | c -> c)
           (Hashtbl.find cells k)))
    (keys cells);
  let shards =
    Array.of_list
      (Hashtbl.fold
         (fun key members acc ->
           let box = Hashtbl.find_opt shard_box key in
           { key; members = List.sort Oid.compare members; box;
             enc = Option.fold ~none:nowhere ~some:enclose box }
           :: acc)
         shard_members [])
  in
  Array.sort
    (fun a b ->
      let (i, j) = a.key and (i', j') = b.key in
      match Int.compare i i' with 0 -> Int.compare j j' | c -> c)
    shards;
  let key_lo = if !population = 0 || !key_lo = (max_int, max_int) then (0, 0) else !key_lo in
  let key_hi = if !population = 0 || !key_hi = (min_int, min_int) then (0, 0) else !key_hi in
  { cell; cells; home; shards; key_lo; key_hi; population = !population }

let cell_size t = t.cell
let population t = t.population

let entries t key = Option.value ~default:[] (Hashtbl.find_opt t.cells key)

let shards t = t.shards

let shard_of t o = Hashtbl.find_opt t.home o

let ring_cells t ~center:(ci, cj) ~ring =
  if ring < 0 then []
  else if ring = 0 then
    if Hashtbl.mem t.cells (ci, cj) then [ (ci, cj) ] else []
  else begin
    let acc = ref [] in
    let consider i j = if Hashtbl.mem t.cells (i, j) then acc := (i, j) :: !acc in
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
  let d = max (max (abs (ci - li)) (abs (hi - ci))) (max (abs (cj - lj)) (abs (hj - cj))) in
  max 0 d

let ring_candidates t ~center ~ring =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun key ->
      List.iter
        (fun e -> if not (Hashtbl.mem seen e.e_oid) then Hashtbl.add seen e.e_oid ())
        (entries t key))
    (ring_cells t ~center ~ring);
  List.sort Oid.compare (Hashtbl.fold (fun o () acc -> o :: acc) seen [])
