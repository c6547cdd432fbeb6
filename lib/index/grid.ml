(* Spatio-temporal grid over trajectory pieces, built in one float pass
   over the MOD into flat arrays.  Keys, window clipping and shard bounds
   come from outward-rounded float enclosures; an exact rational is
   computed only where a float cannot decide (a key whose enclosure
   straddles a cell boundary, a clip whose enclosures overlap, an
   inconclusive separation test, or a reader asking for exact boxes).  A
   shard's member list and exact box are built when a reader forces them,
   and the ring buckets around a center when a reader first asks for a
   ring around it.  See grid.mli for the contract. *)

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
  members : Oid.t list Lazy.t;
  present : bool;
  enc : enclosure;
  box : box Lazy.t;
}

(* The pieces on each non-empty Chebyshev ring around one center, out to
   [radius]. *)
type rings = {
  ci : int;
  cj : int;
  radius : int;
  nonempty : int array;  (* the non-empty rings up to [radius], ascending *)
  first : int array;  (* ring [nonempty.(k)] holds [items.(first.(k) .. first.(k + 1) - 1)] *)
  items : int array;  (* object numbers, one per piece on the ring *)
}

type t = {
  cell : float;
  lo : Q.t;
  hi : Q.t;
  db : DB.t;
  oids : int array;  (* object number -> OID; ascending, as [DB.iter] runs *)
  next : int array;  (* object number -> the previous member of its shard, or -1 *)
  first_piece : int array;  (* object number -> its first piece number; one past the last at the end *)
  pieces : int array;  (* piece p: its cell rectangle i0 j0 i1 j1, at [4 p .. 4 p + 3] *)
  n_pieces : int;
  shard_keys : int array;  (* shard id s -> its key, at [2 s] and [2 s + 1] *)
  heads : int array;  (* shard id -> its last member; [next] chains the rest *)
  encs : enclosure array;  (* shard id -> its enclosure *)
  n_shards : int;
  shards : shard array;  (* ascending key *)
  key_lo : int * int;  (* bounds of occupied piece cells *)
  key_hi : int * int;
  mutable rings : rings option;  (* the last center asked about *)
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
   skipping pieces the window misses.  [build] makes the same clipping
   decisions from enclosures first. *)
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
(* Flat storage                                                        *)
(* ------------------------------------------------------------------ *)

(* A growable int array. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max 16 cap) 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

(* Dense ids 0, 1, ... for cell keys (i, j), in order of first lookup:
   open addressing over int arrays, so a lookup allocates nothing.  Both
   coordinates are compared in full, so distinct keys never share an
   id. *)
module Keys = struct
  type t = {
    mutable slots : int array;  (* id + 1, or 0 when free; length a power of two *)
    ij : Ivec.t;  (* key of id s at [2 s], [2 s + 1] *)
  }

  let create () = { slots = Array.make 64 0; ij = Ivec.create 64 }
  let count t = t.ij.Ivec.n / 2

  let hash i j =
    let h = (i * 0x9E3779B97F4A7C1) lxor j in
    let h = (h lxor (h lsr 29)) * 0xBF58476D1CE4E5B in
    h lxor (h lsr 32)

  (* The free slot or the slot holding (i, j). *)
  let rec probe (slots : int array) (ij : int array) (i : int) (j : int) h =
    let s = slots.(h) in
    if s = 0 || (ij.(2 * (s - 1)) = i && ij.(2 * (s - 1) + 1) = j) then h
    else probe slots ij i j ((h + 1) land (Array.length slots - 1))

  let grow t =
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let ij = t.ij.Ivec.a and mask = Array.length slots - 1 in
    for s = 0 to count t - 1 do
      let i = ij.(2 * s) and j = ij.(2 * s + 1) in
      slots.(probe slots ij i j (hash i j land mask)) <- s + 1
    done;
    t.slots <- slots

  let id t i j =
    if 2 * (count t + 1) > Array.length t.slots then grow t;
    let h = probe t.slots t.ij.Ivec.a i j (hash i j land (Array.length t.slots - 1)) in
    let s = t.slots.(h) in
    if s > 0 then s - 1
    else begin
      let id = count t in
      Ivec.push t.ij i;
      Ivec.push t.ij j;
      t.slots.(h) <- id + 1;
      id
    end
end

(* ------------------------------------------------------------------ *)
(* The float pass                                                      *)
(* ------------------------------------------------------------------ *)

(* Slots of the build's scratch float array, one enclosure [lo, hi] per
   pair. *)
let s_lo = 0 (* the window's ends *)
let s_hi = 2
let s_start = 4 (* the piece's start *)
let s_end = 6 (* its end: the next piece's start, or the death *)
let s_a = 8 (* one coordinate's coefficients *)
let s_b = 10
let s_xa = 12 (* x and y at the clipped ends *)
let s_xb = 14
let s_ya = 16
let s_yb = 18
let s_x0 = 20 (* the piece's box: min and max x, min and max y *)
let s_x1 = 22
let s_y0 = 24
let s_y1 = 26
let scratch_slots = 28

type order = Lt | Eq | Gt | Unknown

(* The order of the exact values enclosed at slots [i] and [j]: disjoint
   enclosures order them, and two equal points are equal values. *)
let order (v : float array) i j =
  if v.(i + 1) < v.(j) then Lt
  else if v.(i) > v.(j + 1) then Gt
  else if v.(i) = v.(i + 1) && v.(j) = v.(j + 1) && v.(i) = v.(j) then Eq
  else Unknown

(* The build's running state; [sid] is the current object's shard, -1
   until its first window piece names it. *)
type acc = {
  a_cell : float;
  a_lo : Q.t;
  a_hi : Q.t;
  v : float array;
  keys : Keys.t;
  mutable encs : enclosure array;  (* by shard id *)
  heads : Ivec.t;  (* shard id -> its last object number so far, or -1 *)
  ps : Ivec.t;  (* the [pieces] column *)
  mutable sid : int;
  mutable ki0 : int;
  mutable kj0 : int;
  mutable ki1 : int;
  mutable kj1 : int;
}

let undecided = min_int

(* The cell index of [Q.to_float x] for an exact [x] enclosed at slot
   [i], or [undecided] when the enclosure cannot name it.  [Q.to_float]
   rounds monotonically and fixes floats, so [l <= Q.to_float x <= h];
   [/. cell] and [floor] are monotone too, so when both ends floor to one
   index, [Q.to_float x] does as well and the key is [cell_of]'s exactly.
   (An index that happens to equal [undecided] is only recomputed
   exactly.) *)
let cell_index st i =
  let l = st.v.(i) and h = st.v.(i + 1) in
  if Float.is_finite l && Float.is_finite h then begin
    let c = Float.floor (l /. st.a_cell) in
    if c = Float.floor (h /. st.a_cell) then int_of_float c else undecided
  end
  else undecided

(* [a·t + b] from the coefficients at [s_a], [s_b] and the time at slot
   [t], into slot [dst]: the exact point when all three are integers
   small enough that the product and the sum are exact doubles (integer
   positions at integer times, the usual way a corner lands exactly on a
   cell boundary, where a widened enclosure would straddle it), else
   [IV.affine_into]'s enclosure. *)
let affine_end (v : float array) dst ~t =
  let a = v.(s_a) and tt = v.(t) and b = v.(s_b) in
  if a = v.(s_a + 1) && tt = v.(t + 1) && b = v.(s_b + 1)
     && Float.trunc a = a && Float.trunc tt = tt && Float.trunc b = b
     && Float.abs a < 0x1p26 && Float.abs tt < 0x1p26 && Float.abs b < 0x1p52
  then begin
    let x = (a *. tt) +. b in
    v.(dst) <- x;
    v.(dst + 1) <- x
  end
  else IV.affine_into v dst ~a:s_a ~t ~b:s_b

(* Enclosures of coordinate [c] of piece [p] at the clipped ends, whose
   enclosures sit at slots [t0] and [t1], into slots [dst0] and [dst1];
   dimensions beyond the trajectory's are the exact point 0, as in
   [coord_at]. *)
let coord_ends v (p : T.piece) c ~t0 ~t1 ~dst0 ~dst1 =
  if c >= Qvec.dim p.T.a then begin
    v.(dst0) <- 0.0; v.(dst0 + 1) <- 0.0; v.(dst1) <- 0.0; v.(dst1 + 1) <- 0.0
  end
  else begin
    IV.of_rat_into v s_a (Qvec.get p.T.a c);
    IV.of_rat_into v s_b (Qvec.get p.T.b c);
    affine_end v dst0 ~t:t0;
    affine_end v dst1 ~t:t1
  end

(* The min and max of the coordinate enclosed at slots [a] and [b], as
   enclosures at [lo] and [hi]: min (a, b) lies in [min of the lows, min
   of the highs], and so on. *)
let span_ends (v : float array) a b ~lo ~hi =
  v.(lo) <- fmin v.(a) v.(b);
  v.(lo + 1) <- fmin v.(a + 1) v.(b + 1);
  v.(hi) <- fmax v.(a) v.(b);
  v.(hi + 1) <- fmax v.(a + 1) v.(b + 1)

(* The shard of key (i, j), made with an empty enclosure and no members
   when the key is new. *)
let shard_id st i j =
  let n = Keys.count st.keys in
  let id = Keys.id st.keys i j in
  if id = n then begin
    if id = Array.length st.encs then begin
      let encs = Array.make (2 * id) st.encs.(0) in
      Array.blit st.encs 0 encs 0 id;
      st.encs <- encs
    end;
    st.encs.(id) <- nowhere ();
    Ivec.push st.heads (-1)
  end;
  id

(* The home key from the exact position of piece [p] at [t], as
   [cell_of] reads it. *)
let exact_key ~cell (p : T.piece) t =
  cell_of ~cell (Q.to_float (coord_at p 0 t), Q.to_float (coord_at p 1 t))

(* Record a piece's cell rectangle. *)
let add_rect st i0 j0 i1 j1 =
  Ivec.push st.ps i0;
  Ivec.push st.ps j0;
  Ivec.push st.ps i1;
  Ivec.push st.ps j1;
  if i0 < st.ki0 then st.ki0 <- i0;
  if j0 < st.kj0 then st.kj0 <- j0;
  if i1 > st.ki1 then st.ki1 <- i1;
  if j1 > st.kj1 then st.kj1 <- j1

(* One window piece of the current object, clipped to [t0, t1] (enclosed at
   slots [t0s], [t1s]): name the object's shard if this is its first
   window piece, fold the piece's box into the shard's enclosure, and
   record its cell rectangle. *)
let add_piece st (p : T.piece) ~t0 ~t0s ~t1 ~t1s =
  let v = st.v in
  coord_ends v p 0 ~t0:t0s ~t1:t1s ~dst0:s_xa ~dst1:s_xb;
  coord_ends v p 1 ~t0:t0s ~t1:t1s ~dst0:s_ya ~dst1:s_yb;
  if st.sid < 0 then begin
    (* home shard: the cell under the position where the object enters
       the window *)
    let i = cell_index st s_xa and j = cell_index st s_ya in
    if i = undecided || j = undecided then begin
      let i, j = exact_key ~cell:st.a_cell p t0 in
      st.sid <- shard_id st i j
    end
    else st.sid <- shard_id st i j
  end;
  span_ends v s_xa s_xb ~lo:s_x0 ~hi:s_x1;
  span_ends v s_ya s_yb ~lo:s_y0 ~hi:s_y1;
  (* [e] becomes the union of [e] and the piece's box; an empty [e]
     takes the box whole, as a comparison with NaN is false
     ([fmin nan x = x]) *)
  let e = st.encs.(st.sid) in
  e.x0l <- fmin e.x0l v.(s_x0); e.x0h <- fmin e.x0h v.(s_x0 + 1);
  e.x1l <- fmax e.x1l v.(s_x1); e.x1h <- fmax e.x1h v.(s_x1 + 1);
  e.y0l <- fmin e.y0l v.(s_y0); e.y0h <- fmin e.y0h v.(s_y0 + 1);
  e.y1l <- fmax e.y1l v.(s_y1); e.y1h <- fmax e.y1h v.(s_y1 + 1);
  (* the cells the piece's box overlaps *)
  let i0 = cell_index st s_x0 and j0 = cell_index st s_y0 in
  let i1 = cell_index st s_x1 and j1 = cell_index st s_y1 in
  if i0 = undecided || j0 = undecided || i1 = undecided || j1 = undecided then begin
    let cell = st.a_cell and b = piece_box p ~t0 ~t1 in
    let i0, j0 = cell_of ~cell (Q.to_float b.x0, Q.to_float b.y0) in
    let i1, j1 = cell_of ~cell (Q.to_float b.x1, Q.to_float b.y1) in
    add_rect st i0 j0 i1 j1
  end
  else add_rect st i0 j0 i1 j1

(* The pieces of [tr] from [p] on, clipped to the window as [iter_window]
   clips them, each decided on enclosures first; slot [s_start] holds
   the enclosure of [p]'s start. *)
let rec walk st tr (p : T.piece) rest =
  let v = st.v and lo = st.a_lo and hi = st.a_hi in
  (* t0 = max (start, lo) *)
  let from_start =
    match order v s_start s_lo with
    | Lt -> false
    | Eq | Gt -> true
    | Unknown -> Q.compare p.T.start lo >= 0
  in
  (* t1 = min (end, hi), or hi when the piece never ends *)
  let pend =
    match rest with
    | (p' : T.piece) :: _ -> p'.T.start
    | [] -> (match T.death tr with Some d -> d | None -> hi)
  in
  let to_end =
    match rest, T.death tr with
    | [], None -> false
    | _ ->
      IV.of_rat_into v s_end pend;
      (match order v s_end s_hi with
       | Lt | Eq -> true
       | Gt -> false
       | Unknown -> Q.compare pend hi <= 0)
  in
  let t0 = if from_start then p.T.start else lo and t0s = if from_start then s_start else s_lo in
  let t1 = if to_end then pend else hi and t1s = if to_end then s_end else s_hi in
  let inside =
    match order v t0s t1s with
    | Lt | Eq -> true
    | Gt -> false
    | Unknown -> Q.compare t0 t1 <= 0
  in
  if inside then add_piece st p ~t0 ~t0s ~t1 ~t1s;
  match rest with
  | [] -> ()
  | p' :: rest' ->
    (* the end just enclosed is the next piece's start *)
    v.(s_start) <- v.(s_end);
    v.(s_start + 1) <- v.(s_end + 1);
    walk st tr p' rest'

(* A shard's members, ascending: [next] chains each object to the
   previous member of its shard, so walking it from the shard's last
   member visits them by descending object number. *)
let members_of oids next head =
  let rec go oi acc = if oi < 0 then acc else go next.(oi) (oids.(oi) :: acc) in
  go head []

let build ~cell ~lo ~hi db =
  if cell <= 0.0 then invalid_arg "Grid.build: cell <= 0";
  if Q.compare lo hi > 0 then invalid_arg "Grid.build: lo > hi";
  let n = DB.cardinal db in
  let oids = Array.make n 0 and next = Array.make n (-1) in
  let first_piece = Array.make (n + 1) 0 in
  let st =
    { a_cell = cell; a_lo = lo; a_hi = hi; v = Array.make scratch_slots 0.0;
      keys = Keys.create (); encs = Array.make 64 (nowhere ()); heads = Ivec.create 64;
      ps = Ivec.create (6 * n); sid = -1;
      ki0 = max_int; kj0 = max_int; ki1 = min_int; kj1 = min_int }
  in
  IV.of_rat_into st.v s_lo lo;
  IV.of_rat_into st.v s_hi hi;
  let oi = ref 0 in
  DB.iter
    (fun o tr ->
      let i = !oi in
      oids.(i) <- o;
      first_piece.(i) <- st.ps.Ivec.n / 4;
      st.sid <- -1;
      (match T.pieces tr with
       | [] -> ()
       | p :: rest ->
         IV.of_rat_into st.v s_start p.T.start;
         walk st tr p rest);
      (* no window presence: the home shard is the cell under the birth
         position (the object is born after the window, or was already
         dead) *)
      if st.sid < 0 then begin
        let ki, kj = exact_key ~cell (List.hd (T.pieces tr)) (T.birth tr) in
        st.sid <- shard_id st ki kj
      end;
      next.(i) <- st.heads.Ivec.a.(st.sid);
      st.heads.Ivec.a.(st.sid) <- i;
      oi := i + 1)
    db;
  first_piece.(n) <- st.ps.Ivec.n / 4;
  let shard_keys = st.keys.Keys.ij.Ivec.a and heads = st.heads.Ivec.a in
  let ids = Array.init (Keys.count st.keys) Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare shard_keys.(2 * a) shard_keys.(2 * b) with
      | 0 -> Int.compare shard_keys.((2 * a) + 1) shard_keys.((2 * b) + 1)
      | c -> c)
    ids;
  let shards =
    Array.map
      (fun s ->
        let enc = st.encs.(s) in
        let members = lazy (members_of oids next heads.(s)) in
        let box =
          lazy
            (match
               List.filter_map
                 (fun o -> Option.bind (DB.find db o) (trajectory_box ~lo ~hi))
                 (Lazy.force members)
             with
             | b :: bs -> List.fold_left box_union b bs
             | [] -> invalid_arg "Grid: shard with no window presence")
        in
        { key = (shard_keys.(2 * s), shard_keys.((2 * s) + 1)); members;
          present = not (Float.is_nan enc.x0l); enc; box })
      ids
  in
  let empty = st.ki0 = max_int in
  { cell; lo; hi; db; oids; next; first_piece; pieces = st.ps.Ivec.a;
    n_pieces = st.ps.Ivec.n / 4; shard_keys; heads; encs = st.encs;
    n_shards = Keys.count st.keys; shards;
    key_lo = (if empty then (0, 0) else (st.ki0, st.kj0));
    key_hi = (if empty then (0, 0) else (st.ki1, st.kj1));
    rings = None }

let cell_size t = t.cell
let population t = Array.length t.oids
let shards t = t.shards

let shard_box s = if s.present then Some (Lazy.force s.box) else None

(* The number of the object with OID [o], by binary search. *)
let object_number t o =
  let rec go lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let c = Oid.compare t.oids.(mid) o in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length t.oids)

(* The shard whose member chain holds object [oi]: chains descend by
   object number, so each is walked only down to [oi]. *)
let shard_of t o =
  Option.bind (object_number t o) (fun oi ->
      let rec holds x = x >= oi && (x = oi || holds t.next.(x)) in
      let rec find s =
        if s = t.n_shards then None
        else if holds t.heads.(s) then Some (t.shard_keys.(2 * s), t.shard_keys.((2 * s) + 1))
        else find (s + 1)
      in
      find 0)

let entries t (ki, kj) =
  let ps = t.pieces and acc = ref [] in
  for oi = 0 to Array.length t.oids - 1 do
    for p = t.first_piece.(oi) to t.first_piece.(oi + 1) - 1 do
      let b = 4 * p in
      if ps.(b) <= ki && ki <= ps.(b + 2) && ps.(b + 1) <= kj && kj <= ps.(b + 3) then begin
        let o = t.oids.(oi) in
        (* the object's window pieces come in [iter_window]'s order *)
        let nth = ref (p - t.first_piece.(oi)) in
        iter_window (Option.get (DB.find t.db o)) ~lo:t.lo ~hi:t.hi (fun piece t0 t1 ->
            if !nth = 0 then
              acc := { e_oid = o; e_t0 = t0; e_t1 = t1; e_box = piece_box piece ~t0 ~t1 } :: !acc;
            decr nth)
      end
    done
  done;
  List.sort
    (fun a b ->
      match Q.compare a.e_t0 b.e_t0 with
      | 0 -> Oid.compare a.e_oid b.e_oid
      | c -> c)
    !acc

let max_ring t ~center:(ci, cj) =
  let (li, lj) = t.key_lo and (hi, hj) = t.key_hi in
  let d = max (max (abs (ci - li)) (abs (hi - ci))) (max (abs (cj - lj)) (abs (hj - cj))) in
  max 0 d

(* ------------------------------------------------------------------ *)
(* Ring buckets                                                        *)
(* ------------------------------------------------------------------ *)

(* A piece's cell rectangle meets exactly the rings [near .. far] around
   a center: the Chebyshev distances to the rectangle's nearest and
   farthest cells, and every ring between, as a step to a neighbouring
   cell changes the distance by at most one.  Every piece of a shard's
   members lies in the cells of the shard's enclosure (the enclosure's
   ends bound the exact coordinates, and the keys are monotone in them),
   so the pieces within a radius are found through the shards near
   enough, not by scanning every piece. *)
let gap lo hi c = if c < lo then lo - c else if c > hi then c - hi else 0
let span lo hi c = max (abs (c - lo)) (abs (c - hi))

let near (r : int array) b ci cj = max (gap r.(b) r.(b + 2) ci) (gap r.(b + 1) r.(b + 3) cj)
let far (r : int array) b ci cj = max (span r.(b) r.(b + 2) ci) (span r.(b + 1) r.(b + 3) cj)

(* The cells a present shard's enclosure covers, as a rectangle at
   [r.(0 .. 3)]; an unbounded end reaches far past any cell in use. *)
let shard_rect t (e : enclosure) (r : int array) =
  let index x =
    if Float.is_finite x then int_of_float (Float.floor (x /. t.cell))
    else if x < 0.0 then min_int / 4
    else max_int / 4
  in
  r.(0) <- index e.x0l;
  r.(1) <- index e.y0l;
  r.(2) <- index e.x1h;
  r.(3) <- index e.y1h

(* The pieces on the rings up to [radius] around (ci, cj), through the
   shards whose cells come that near. *)
let ring_index t ci cj radius =
  let ps = t.pieces and rect = Array.make 4 0 in
  let ring_of = Ivec.create 64 and object_of = Ivec.create 64 in
  for s = 0 to t.n_shards - 1 do
    let e = t.encs.(s) in
    if not (Float.is_nan e.x0l) then begin
      shard_rect t e rect;
      if near rect 0 ci cj <= radius then begin
        let oi = ref t.heads.(s) in
        while !oi >= 0 do
          for p = t.first_piece.(!oi) to t.first_piece.(!oi + 1) - 1 do
            let d0 = near ps (4 * p) ci cj in
            if d0 <= radius then
              for r = d0 to min radius (far ps (4 * p) ci cj) do
                Ivec.push ring_of r;
                Ivec.push object_of !oi
              done
          done;
          oi := t.next.(!oi)
        done
      end
    end
  done;
  let n = ring_of.Ivec.n and ring_of = ring_of.Ivec.a and object_of = object_of.Ivec.a in
  let by_ring = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare ring_of.(a) ring_of.(b)) by_ring;
  let nonempty = Ivec.create 16 and first = Ivec.create 16 in
  Array.iteri
    (fun x a ->
      if x = 0 || ring_of.(a) <> ring_of.(by_ring.(x - 1)) then begin
        Ivec.push nonempty ring_of.(a);
        Ivec.push first x
      end)
    by_ring;
  Ivec.push first n;
  { ci; cj; radius; nonempty = Array.sub nonempty.Ivec.a 0 nonempty.Ivec.n;
    first = Array.sub first.Ivec.a 0 first.Ivec.n;
    items = Array.map (fun a -> object_of.(a)) by_ring }

(* The ring index around [center] covering ring [ring]: the cached one,
   or a new one with its radius at least doubled. *)
let rings_upto t (ci, cj) ring =
  match t.rings with
  | Some r when r.ci = ci && r.cj = cj && r.radius >= ring -> r
  | cached ->
    let radius =
      match cached with
      | Some r when r.ci = ci && r.cj = cj -> max ring (2 * r.radius)
      | _ -> max ring 4
    in
    let r = ring_index t ci cj radius in
    t.rings <- Some r;
    r

(* The least k with [a.(k) >= x], or [Array.length a]. *)
let lower_bound (a : int array) x =
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) < x then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length a)

(* The least ring past [radius] a present shard's cells reach, if any:
   no piece lies on a ring between [radius] and it. *)
let nearest_beyond t (ci, cj) radius =
  let rect = Array.make 4 0 and best = ref max_int in
  for s = 0 to t.n_shards - 1 do
    let e = t.encs.(s) in
    if not (Float.is_nan e.x0l) then begin
      shard_rect t e rect;
      if far rect 0 ci cj > radius then best := min !best (max (near rect 0 ci cj) (radius + 1))
    end
  done;
  if !best = max_int then None else Some !best

let rec next_ring t ~center ~ring =
  let ring = max ring 0 in
  let r = rings_upto t center ring in
  let k = lower_bound r.nonempty ring in
  if k < Array.length r.nonempty then Some r.nonempty.(k)
  else
    match nearest_beyond t center r.radius with
    | None -> None
    | Some d ->
      ignore (rings_upto t center d);
      next_ring t ~center ~ring:(r.radius + 1)

let ring_candidates t ~center ~ring =
  if ring < 0 then []
  else begin
    let r = rings_upto t center ring in
    let k = lower_bound r.nonempty ring in
    if k = Array.length r.nonempty || r.nonempty.(k) <> ring then []
    else
      List.sort_uniq Oid.compare
        (List.init (r.first.(k + 1) - r.first.(k)) (fun x ->
             t.oids.(r.items.(r.first.(k) + x))))
  end
