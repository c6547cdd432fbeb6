(* Spatio-temporal grid over trajectory pieces.  Keys and shard bounds come
   from outward-rounded float enclosures of the piece corners; an exact
   rational is computed only where a float cannot decide it (a key whose
   enclosure straddles a cell boundary, an inconclusive separation test,
   or a reader asking for exact boxes).  See grid.mli for the contract. *)

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

(* All-float, so the fields are stored flat; mutable only while [build]
   folds pieces into a shard. *)
type enclosure = {
  mutable x0l : float; mutable x0h : float; mutable x1l : float; mutable x1h : float;
  mutable y0l : float; mutable y0h : float; mutable y1l : float; mutable y1h : float;
}

type shard = {
  key : int * int;
  members : Oid.t list;
  present : bool;
  enc : enclosure;
  box : box Lazy.t;
}

(* A piece clipped to the window, as a cell holds it: the exact box is
   derived only when [entries] is asked for it. *)
type slot = { s_oid : Oid.t; s_piece : T.piece; s_t0 : Q.t; s_t1 : Q.t }

module Key_tbl = Hashtbl.Make (struct
  type t = int * int
  let equal ((i, j) : t) ((i', j') : t) = i = i' && j = j'
  let hash ((i, j) : t) = (i * 65599 + j) land max_int
end)

module Oid_tbl = Hashtbl.Make (struct
  type t = Oid.t
  let equal = Oid.equal
  let hash (o : t) = o land max_int
end)

type t = {
  cell : float;
  cells : slot list Key_tbl.t;  (* newest piece first *)
  home : (int * int) Oid_tbl.t;
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
let nowhere () =
  { x0l = nan; x0h = nan; x1l = nan; x1h = nan; y0l = nan; y0h = nan; y1l = nan; y1h = nan }

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
let fmin (a : float) b = if a < b then a else b
let fmax (a : float) b = if a > b then a else b

(* [into] becomes the union of [into] and [e]; a [nowhere] [into] takes
   [e] whole, as a comparison with NaN is false ([fmin nan x = x]). *)
let absorb into e =
  into.x0l <- fmin into.x0l e.x0l; into.x0h <- fmin into.x0h e.x0h;
  into.x1l <- fmax into.x1l e.x1l; into.x1h <- fmax into.x1h e.x1h;
  into.y0l <- fmin into.y0l e.y0l; into.y0h <- fmin into.y0h e.y0h;
  into.y1l <- fmax into.y1l e.y1l; into.y1h <- fmax into.y1h e.y1h

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
  else Q.compare (box_separation_sq (Lazy.force a) b) band > 0

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

(* [f p t0 t1] on each piece of [tr] clipped to [lo, hi], in time order,
   skipping pieces the window misses. *)
let iter_window tr ~lo ~hi f =
  let rec go = function
    | [] -> ()
    | (p : T.piece) :: rest ->
      let pend =
        match rest with
        | (p' : T.piece) :: _ -> Some p'.T.start
        | [] -> T.death tr
      in
      let t0 = Q.max p.T.start lo in
      let t1 = match pend with None -> hi | Some e -> Q.min e hi in
      if Q.compare t0 t1 <= 0 then f p t0 t1;
      go rest
  in
  go (T.pieces tr)

let trajectory_box tr ~lo ~hi =
  let acc = ref None in
  iter_window tr ~lo ~hi (fun p t0 t1 ->
      let b = piece_box p ~t0 ~t1 in
      acc := Some (match !acc with None -> b | Some old -> box_union old b));
  !acc

(* ------------------------------------------------------------------ *)
(* Float-first keys                                                    *)
(* ------------------------------------------------------------------ *)

(* The cell index of [Q.to_float x] for an exact [x] enclosed by
   [[l, h]], or [None] when the enclosure cannot name it.  [Q.to_float]
   rounds monotonically and fixes floats, so [l <= Q.to_float x <= h];
   [/. cell] and [floor] are monotone too, so when both ends floor to one
   index, [Q.to_float x] does as well and the key is [cell_of]'s exactly. *)
let index_of ~cell l h =
  if Float.is_finite l && Float.is_finite h then begin
    let i = Float.floor (l /. cell) in
    if i = Float.floor (h /. cell) then Some (int_of_float i) else None
  end
  else None

(* Enclosures of coordinate [i] of [a·t + b] at the two ends of a piece,
   from one enclosure per coefficient; dimensions beyond the trajectory's
   are the exact point 0, as in [coord_at]. *)
let zero_iv = IV.point 0.0

let ends (p : T.piece) i e0 e1 =
  if i >= Qvec.dim p.T.a then (zero_iv, zero_iv)
  else begin
    let a = IV.of_rat (Qvec.get p.T.a i) and b = IV.of_rat (Qvec.get p.T.b i) in
    (IV.add (IV.mul a e0) b, IV.add (IV.mul a e1) b)
  end

(* The home key from the exact position of piece [p] at [t], as
   [cell_of] reads it. *)
let exact_key ~cell (p : T.piece) t =
  cell_of ~cell (Q.to_float (coord_at p 0 t), Q.to_float (coord_at p 1 t))

let build ~cell ~lo ~hi db =
  if cell <= 0.0 then invalid_arg "Grid.build: cell <= 0";
  if Q.compare lo hi > 0 then invalid_arg "Grid.build: lo > hi";
  let cells = Key_tbl.create 256 in
  let home = Oid_tbl.create 256 in
  (* home key -> (members, newest first; enclosure, [nowhere] until a
     member with window presence joins) *)
  let accs = Key_tbl.create 64 in
  let ki0 = ref max_int and kj0 = ref max_int in
  let ki1 = ref min_int and kj1 = ref min_int in
  let lo_e = IV.of_rat lo and hi_e = IV.of_rat hi in
  (* the enclosure of a clipped piece end; most are [lo] or [hi] *)
  let time_enc t = if t == lo then lo_e else if t == hi then hi_e else IV.of_rat t in
  let add_piece ob enter o (p : T.piece) t0 t1 =
    let e0 = time_enc t0 and e1 = time_enc t1 in
    let xa, xb = ends p 0 e0 e1 and ya, yb = ends p 1 e0 e1 in
    if !enter = None then enter := Some (p, t0, xa, ya);
    (* the piece's box, enclosed: x0 = min (xa, xb) lies in
       [min of the lows, min of the highs], and so on *)
    let pe =
      { x0l = fmin (IV.lo xa) (IV.lo xb); x0h = fmin (IV.hi xa) (IV.hi xb);
        x1l = fmax (IV.lo xa) (IV.lo xb); x1h = fmax (IV.hi xa) (IV.hi xb);
        y0l = fmin (IV.lo ya) (IV.lo yb); y0h = fmin (IV.hi ya) (IV.hi yb);
        y1l = fmax (IV.lo ya) (IV.lo yb); y1h = fmax (IV.hi ya) (IV.hi yb) }
    in
    absorb ob pe;
    (* bucket the piece into every cell its box overlaps *)
    let i0, j0, i1, j1 =
      match index_of ~cell pe.x0l pe.x0h, index_of ~cell pe.y0l pe.y0h,
            index_of ~cell pe.x1l pe.x1h, index_of ~cell pe.y1l pe.y1h with
      | Some i0, Some j0, Some i1, Some j1 -> (i0, j0, i1, j1)
      | _ ->
        let b = piece_box p ~t0 ~t1 in
        let i0, j0 = cell_of ~cell (Q.to_float b.x0, Q.to_float b.y0) in
        let i1, j1 = cell_of ~cell (Q.to_float b.x1, Q.to_float b.y1) in
        (i0, j0, i1, j1)
    in
    let s = { s_oid = o; s_piece = p; s_t0 = t0; s_t1 = t1 } in
    if i0 < !ki0 then ki0 := i0;
    if j0 < !kj0 then kj0 := j0;
    if i1 > !ki1 then ki1 := i1;
    if j1 > !kj1 then kj1 := j1;
    for i = i0 to i1 do
      for j = j0 to j1 do
        let key = (i, j) in
        match Key_tbl.find_opt cells key with
        | None -> Key_tbl.add cells key [ s ]
        | Some old -> Key_tbl.replace cells key (s :: old)
      done
    done
  in
  DB.iter
    (fun o tr ->
      (* the union of the object's piece enclosures, and its first window
         piece with the enclosure of its position there *)
      let ob = nowhere () and enter = ref None in
      iter_window tr ~lo ~hi (add_piece ob enter o);
      (* home shard: the cell under the position where the object enters
         the window (its birth position when it is born after the window,
         or was already dead) *)
      let hkey =
        match !enter with
        | Some (p, t, x, y) ->
          (match index_of ~cell (IV.lo x) (IV.hi x), index_of ~cell (IV.lo y) (IV.hi y) with
           | Some i, Some j -> (i, j)
           | _ -> exact_key ~cell p t)
        | None -> exact_key ~cell (List.hd (T.pieces tr)) (T.birth tr)
      in
      Oid_tbl.replace home o hkey;
      let members, enc =
        match Key_tbl.find_opt accs hkey with
        | Some acc -> acc
        | None ->
          let acc = (ref [], nowhere ()) in
          Key_tbl.add accs hkey acc;
          acc
      in
      members := o :: !members;
      if !enter <> None then absorb enc ob)
    db;
  let shards =
    Array.of_seq
      (Seq.map
         (fun (key, (members, enc)) ->
           (* [DB.iter] runs in OID order, so reversing gives ascending *)
           let members = List.rev !members in
           let box =
             lazy
               (match
                  List.filter_map
                    (fun o -> Option.bind (DB.find db o) (trajectory_box ~lo ~hi))
                    members
                with
                | b :: bs -> List.fold_left box_union b bs
                | [] -> invalid_arg "Grid: shard with no window presence")
           in
           { key; members; present = not (Float.is_nan enc.x0l); enc; box })
         (Key_tbl.to_seq accs))
  in
  Array.sort
    (fun a b ->
      let (i, j) = a.key and (i', j') = b.key in
      match Int.compare i i' with 0 -> Int.compare j j' | c -> c)
    shards;
  let empty = !ki0 = max_int in
  let key_lo = if empty then (0, 0) else (!ki0, !kj0) in
  let key_hi = if empty then (0, 0) else (!ki1, !kj1) in
  { cell; cells; home; shards; key_lo; key_hi; population = DB.cardinal db }

let cell_size t = t.cell
let population t = t.population

let entries t key =
  match Key_tbl.find_opt t.cells key with
  | None -> []
  | Some slots ->
    List.sort
      (fun a b ->
        match Q.compare a.e_t0 b.e_t0 with
        | 0 -> Oid.compare a.e_oid b.e_oid
        | c -> c)
      (List.map
         (fun s ->
           { e_oid = s.s_oid; e_t0 = s.s_t0; e_t1 = s.s_t1;
             e_box = piece_box s.s_piece ~t0:s.s_t0 ~t1:s.s_t1 })
         slots)

let shards t = t.shards

let shard_box s = if s.present then Some (Lazy.force s.box) else None

let shard_of t o = Oid_tbl.find_opt t.home o

let ring_cells t ~center:(ci, cj) ~ring =
  if ring < 0 then []
  else if ring = 0 then
    if Key_tbl.mem t.cells (ci, cj) then [ (ci, cj) ] else []
  else begin
    let acc = ref [] in
    let consider i j = if Key_tbl.mem t.cells (i, j) then acc := (i, j) :: !acc in
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
  List.sort_uniq Oid.compare
    (List.concat_map
       (fun key -> List.map (fun s -> s.s_oid) (Key_tbl.find t.cells key))
       (ring_cells t ~center ~ring))
