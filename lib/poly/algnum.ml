module Q = Moq_numeric.Rat
module Z = Moq_numeric.Bigint
module P = Qpoly

(* A [Root] value holds a squarefree polynomial [p], nonzero at [lo] and
   [hi], with exactly one real root in the open interval (lo, hi), and
   [slo], the sign of [p] at [lo].  The interval is mutable: comparisons
   refine it in place (the interface is pure — the represented number
   never changes).  Every move of [lo] lands left of the root it isolates
   and right of every other root, so [slo] never changes. *)
type t =
  | Rational of Q.t
  | Root of root

and root = { p : P.t; mutable lo : Q.t; mutable hi : Q.t; slo : int }

let of_rat q = Rational q
let of_int n = Rational (Q.of_int n)

let half = Q.of_ints 1 2
let midpoint a b = Q.mul half (Q.add a b)

(* One bisection step.  Always narrows the interval (at least halves its
   width).  Returns [Some m] when the root is discovered to be exactly the
   rational [m]; the interval invariant still holds afterwards. *)
let step r : Q.t option =
  let m = midpoint r.lo r.hi in
  match P.sign_at r.p m with
  | 0 ->
    r.lo <- midpoint r.lo m;
    r.hi <- midpoint m r.hi;
    Some m
  | sm ->
    if sm * r.slo < 0 then r.hi <- m else r.lo <- m;
    None

(* [sf] has simple roots only, so it changes sign at each of them: left
   of the i-th root (and right of all the others before it) its sign is
   its sign at minus infinity times (-1)^i. *)
let roots p =
  if P.degree p <= 0 then []
  else begin
    let sf = P.squarefree p in
    let s0 = P.sign_at_neg_infinity sf in
    List.mapi
      (fun i -> function
        | Sturm.Point q -> Rational q
        | Sturm.Open_interval (lo, hi) ->
          Root { p = sf; lo; hi; slo = (if i land 1 = 0 then s0 else - s0) })
      (Sturm.isolate p)
  end

let sign = function
  | Rational q -> Q.sign q
  | Root r ->
    let rec go () =
      if Q.sign r.lo >= 0 then 1
      else if Q.sign r.hi <= 0 then -1
      else if P.sign_at r.p Q.zero = 0 then 0 (* 0 in (lo,hi) and a root: it is the root *)
      else begin
        match step r with
        | Some m -> Q.sign m
        | None -> go ()
      end
    in
    go ()

(* Compare a rational against a [root]. *)
let compare_rat_root q (r : root) =
  if Q.compare q r.lo <= 0 then -1
  else if Q.compare q r.hi >= 0 then 1
  else begin
    let s = P.sign_at r.p q in
    if s = 0 then 0
    else if s * r.slo < 0 then 1 (* root in (lo, q): q greater *)
    else -1
  end

(* Does [g] (nonzero) have a root in the open interval (lo, hi)?  Assumes
   nothing about the endpoints. *)
let has_root_in_open g lo hi =
  if P.degree g <= 0 then false
  else if Q.compare lo hi >= 0 then false
  else begin
    let sf = P.squarefree g in
    let c = Sturm.chain sf in
    let n = Sturm.count_roots_between c lo hi in
    let n = if P.sign_at sf hi = 0 then n - 1 else n in
    n > 0
  end

let compare_root_root (a : root) (b : root) =
  if a == b then 0
  else begin
    let g = P.gcd a.p b.p in
    let overlap_lo = Q.max a.lo b.lo and overlap_hi = Q.min a.hi b.hi in
    (* A root of g inside both isolating intervals is a root of a.p in a's
       interval (hence = alpha) and of b.p in b's (hence = beta). *)
    if has_root_in_open g overlap_lo overlap_hi then 0
    else begin
      let rec separate () =
        if Q.compare a.hi b.lo <= 0 then -1
        else if Q.compare b.hi a.lo <= 0 then 1
        else begin
          let wa = Q.sub a.hi a.lo and wb = Q.sub b.hi b.lo in
          let target, other = if Q.compare wa wb >= 0 then (a, b) else (b, a) in
          match step target with
          | Some m ->
            let c = compare_rat_root m other in
            if target == a then c else - c
          | None -> separate ()
        end
      in
      separate ()
    end
  end

let compare x y =
  match x, y with
  | Rational a, Rational b -> Q.compare a b
  | Rational a, Root b -> compare_rat_root a b
  | Root a, Rational b -> - (compare_rat_root b a)
  | Root a, Root b -> compare_root_root a b

let equal x y = compare x y = 0

let sign_of_poly_at q x =
  match x with
  | Rational v -> P.sign_at q v
  | Root r ->
    if P.is_zero q then 0
    else if has_root_in_open (P.gcd q r.p) r.lo r.hi then 0
    else begin
      (* alpha is not a root of q: refine until q is root-free on the
         interval, where its sign is constant. *)
      let sf = P.squarefree q in
      let c = Sturm.chain sf in
      let rec go () =
        let n = Sturm.count_roots_between c r.lo r.hi in
        let inside = if P.sign_at sf r.hi = 0 then n - 1 else n in
        if inside = 0 && P.sign_at q r.lo <> 0 then begin
          let s = P.sign_at q (midpoint r.lo r.hi) in
          assert (s <> 0);
          s
        end
        else begin
          match step r with
          | Some m -> P.sign_at q m
          | None -> go ()
        end
      in
      go ()
    end

let to_rat = function
  | Rational q -> Some q
  | Root _ -> None

(* The root bisected until its interval is narrower than [w]: either that
   interval (set on the root in place) or, when a bisection midpoint is
   the root itself, that rational.  The answer depends only on the
   starting interval (lo, hi).  With k the least integer such that
   c = (hi - lo) / 2^k < w, the loop returns the grid point lo + j·c
   (0 < j < 2^k) when the root is one, and otherwise the level-k cell
   (lo + j·c, lo + (j+1)·c) containing the root.  So a float estimate
   names the cell and two exact signs at its ends confirm it (a zero at
   an end is the root itself); only when the estimate misses does the
   loop run. *)
let refine_until_width (x : t) (w : Q.t) : t =
  match x with
  | Rational _ -> x
  | Root r ->
    let rec bisect () =
      if Q.compare (Q.sub r.hi r.lo) w < 0 then x
      else begin
        match step r with
        | Some m -> Rational m
        | None -> bisect ()
      end
    in
    let width = Q.sub r.hi r.lo in
    if Q.compare width w < 0 then x
    else begin
      (* w <= width / 2^(k-1) and width / 2^k < w *)
      let k = Z.num_bits (Q.floor (Q.div width w)) in
      let c = Q.div width (Q.of_bigint (Z.shift_left Z.one k)) in
      (* a float near the root: only a guess, since the float image of
         [r.p] can put it a few ulps off, so the cell's signs check it *)
      let est = Froots.bisect (Fpoly.of_qpoly r.p) (Q.to_float r.lo) (Q.to_float r.hi) in
      let j = Float.floor ((est -. Q.to_float r.lo) /. Q.to_float c) in
      if not (Float.is_finite j && j >= 0.0) then bisect ()
      else begin
        let cl = Q.add r.lo (Q.mul (Q.of_float j) c) in
        let ch = Q.add cl c in
        if Q.compare ch r.hi > 0 then bisect ()
        else begin
          let sl = P.sign_at r.p cl and sh = P.sign_at r.p ch in
          if sl = 0 then Rational cl (* j > 0: p is nonzero at lo *)
          else if sh = 0 then Rational ch (* ch < hi: p is nonzero at hi *)
          else if sl * sh < 0 then begin
            r.lo <- cl;
            r.hi <- ch;
            x
          end
          else bisect ()
        end
      end
    end

(* The float nearest the number, ties to even ([Q.to_float] rounds once).
   It depends only on the number, not on how far comparisons have refined
   the interval, so two backends holding the same number in different
   representations agree on it bit for bit.  Refine until both ends round
   to the same float: rounding is monotone, so everything between them
   rounds there too.  A root exactly on the boundary between two adjacent
   floats (or at zero, between -0. and 0.) would keep the ends apart
   forever, so that one boundary is tested exactly. *)
let to_float x =
  match x with
  | Rational q -> Q.to_float q
  | Root r ->
    let rec go () =
      let fl = Q.to_float r.lo and fh = Q.to_float r.hi in
      if Int64.equal (Int64.bits_of_float fl) (Int64.bits_of_float fh) then fl
      else begin
        let boundary =
          if fl = fh || Float.succ fl = fh then
            Some (midpoint (Q.of_float fl) (Q.of_float fh))
          else None
        in
        match boundary with
        | Some b when P.sign_at r.p b = 0 -> Q.to_float b
        | _ ->
          (match step r with
           | Some m -> Q.to_float m
           | None -> go ())
      end
    in
    go ()

let rational_between x y =
  let c = compare x y in
  if c = 0 then invalid_arg "Algnum.rational_between: equal arguments"
  else begin
    let x, y = if c < 0 then (x, y) else (y, x) in
    let rec go () =
      match x, y with
      | Rational a, Rational b -> midpoint a b
      | Rational a, Root r -> if Q.compare a r.lo < 0 then midpoint a r.lo else (ignore (step r); go ())
      | Root r, Rational b -> if Q.compare r.hi b < 0 then midpoint r.hi b else (ignore (step r); go ())
      | Root r1, Root r2 ->
        if Q.compare r1.hi r2.lo <= 0 then midpoint r1.hi r2.lo
        else begin
          ignore (step r1);
          ignore (step r2);
          go ()
        end
    in
    go ()
  end

let rational_below = function
  | Rational q -> Q.sub q Q.one
  | Root r -> r.lo

let rational_above = function
  | Rational q -> Q.add q Q.one
  | Root r -> r.hi

let first_root_after p x =
  let rec find = function
    | [] -> None
    | r :: rest -> if compare r x > 0 then Some r else find rest
  in
  find (roots p)

let first_root_at_or_after p x =
  let rec find = function
    | [] -> None
    | r :: rest -> if compare r x >= 0 then Some r else find rest
  in
  find (roots p)

let bounds = function
  | Rational q -> (q, q)
  | Root r -> (r.lo, r.hi)

let refine_step = function
  | Rational _ -> ()
  | Root r -> ignore (step r)

(* The checked way to name a root by an interval the caller knows
   isolates it: the squarefree part must change sign across it. *)
let root_of_isolating_exn p ~lo ~hi =
  if Q.compare lo hi >= 0 then invalid_arg "Algnum.root_of_isolating_exn: empty interval";
  let sf = P.squarefree p in
  let slo = P.sign_at sf lo and shi = P.sign_at sf hi in
  if slo = 0 || shi = 0 || slo * shi > 0 then
    invalid_arg "Algnum.root_of_isolating_exn: no sign change"
  else Root { p = sf; lo; hi; slo }

(* The filtered backend's entry point.  Its proof already covers every
   check above: [p] is squarefree (a positive discriminant), so
   [P.squarefree p] would return [P.monic p], and [sign_lo] is its own
   exact test at [lo].  Monic scaling multiplies signs by the sign of the
   leading coefficient. *)
let root_of_certified p ~lo ~hi ~sign_lo =
  Root { p = P.monic p; lo; hi; slo = sign_lo * Q.sign (P.leading p) }

(* The filtered backend's deferred form: it proved with floats alone that
   [lo, hi] holds root [index] and no other root of [p], and builds the
   number only when something reads it exactly.  The two endpoint signs
   complete the certificate above; a zero or repeated sign means an
   endpoint is the root itself (or the float proof was wrong), and root
   isolation names the root instead. *)
let root_of_enclosure p ~lo ~hi ~index =
  let sl = P.sign_at p lo in
  if Q.compare lo hi < 0 && sl * P.sign_at p hi < 0 then root_of_certified p ~lo ~hi ~sign_lo:sl
  else List.nth (roots p) index

(* The printed form of a number is a wire token that peers byte-compare
   (resumed subscription streams, replica audits, the server against
   in-process Exact), but a [Root]'s live interval depends on the
   comparisons it has been through.  So [to_string] prints a canonical
   interval that depends only on the polynomial and on which of its roots
   the number is: the Sturm cell of that root (from [Sturm.isolate]'s
   bisection of [-B, B], B the Cauchy bound) bisected to width below
   [canonical_width].  The number's cell is the one whose isolating
   interval (or rational point) meets the number's interval — the exact
   [compare] runs only when several do.  Cells and their texts are
   memoised per polynomial (the text memo below), since many numbers of
   a sweep are roots of one curve difference.  A monic quadratic with
   irrational roots gets its final cells in closed form
   ([quadratic_cells]); every other polynomial is isolated and its cell
   refined ({!refine_until_width} takes O(1) exact sign tests for this
   unless its float estimate misses).  The result prints as [root(...)]
   with that interval, or as a rational when the number is one: a [Root]
   whose value is [q] prints exactly as [Rational q] does, so the bytes
   depend only on the value.  An incremental monitor holds an update
   instant as a rational and a crossing at that same instant as a root of
   a g-distance difference; both must print alike for a resumed or
   replayed stream to merge with what a subscriber already has. *)
let canonical_width = Q.of_ints 1 1_099_511_627_776 (* 2^-40 *)

let copy = function
  | Rational _ as x -> x
  | Root r -> Root { r with lo = r.lo }

(* The value of a root when it is rational.  Scaled to integer
   coefficients with leading coefficient [a], [c.p] has each rational root
   at some [m/a] with [m] an integer (the rational root theorem), and an
   open interval narrower than [1/|a|] holds at most one such point.
   Refines a copy: [c] is the canonical cell, printed as it is. *)
let rational_value (c : root) =
  let lcm x y = Z.mul (Z.div x (Z.gcd x y)) y in
  let den = List.fold_left (fun l k -> lcm l (Q.den k)) Z.one (P.to_list c.p) in
  let a = Q.abs (Q.mul (P.leading c.p) (Q.of_bigint den)) in
  match refine_until_width (copy (Root c)) (Q.inv a) with
  | Rational q -> Some q
  | Root n ->
    let q = Q.div (Q.of_bigint (Z.add (Q.floor (Q.mul a n.lo)) Z.one)) a in
    if Q.compare q n.hi < 0 && P.sign_at n.p q = 0 then Some q else None

let well_formed = function
  | Rational _ -> true
  | Root r ->
    Q.compare r.lo r.hi < 0 && r.slo <> 0
    && P.sign_at r.p r.lo = r.slo
    && P.sign_at r.p r.hi = - r.slo

(* The float nearest the midpoint of [lo, hi], with no gcd. *)
let mid_float lo hi =
  Q.float_of_ratio
    (Z.add (Z.mul (Q.num lo) (Q.den hi)) (Z.mul (Q.num hi) (Q.den lo)))
    (Z.shift_left (Z.mul (Q.den lo) (Q.den hi)) 1)

let root_text p lo hi mid =
  let b = Buffer.create 128 in
  List.iter (Buffer.add_string b)
    [ "root("; P.to_string p; ") in ("; Q.to_string lo; ","; Q.to_string hi; ") ~ ";
      Printf.sprintf "%.6g" mid ];
  Buffer.contents b

(* The canonical text of a Sturm cell, computed on a copy so the cell
   itself is never refined. *)
let canonical_text cell =
  match refine_until_width (copy cell) canonical_width with
  | Rational q -> Q.to_string q
  | Root c ->
    (match rational_value c with
     | Some q -> Q.to_string q
     | None -> root_text c.p c.lo c.hi (mid_float c.lo c.hi))

(* A cell of the text memo: a number that one root of the polynomial is,
   and its canonical text once some number has printed as it.  A [final]
   cell is already its root's canonical cell and the root is irrational,
   so its text is printed from it as it stands. *)
type cell = { iso : t; final : bool; mutable text : string option }

(* Counts of the polynomials whose cells a print computed, and of those
   that took Sturm isolation.  Atomic: query threads print too. *)
let print_polys = Atomic.make 0
let print_isolations = Atomic.make 0

type print_stats = { polys : int; isolations : int }

let print_stats () =
  { polys = Atomic.get print_polys; isolations = Atomic.get print_isolations }

let reset_print_stats () =
  Atomic.set print_polys 0;
  Atomic.set print_isolations 0

let sturm_cells p = Array.of_list (List.map (fun iso -> { iso; final = false; text = None }) (roots p))

(* The canonical cells of a monic quadratic's two irrational roots in
   closed form.  [Sturm.isolate] bisects [-B, B], B the Cauchy bound, at
   exact midpoints, none of which is an irrational root, and stops at the
   first level where a cell holds one root; [refine_until_width] keeps
   that dyadic grid down to the first width below 2^-40.  So when the
   two roots lie in different cells of level L, the least level with
   2B / 2^L < 2^-40, root i prints as the level-L cell of [-B, B] that
   holds it, wherever isolation stopped.  With w = B / 2^(L-1) those
   cells are (k w, (k + 1) w); a float estimate of the root names k, and
   two exact signs certify the cell: a monic quadratic is positive left
   of its smaller root, negative between its roots and positive right of
   the larger, so (+, -) at the ends proves the cell holds root 0 and
   only it, and (-, +) root 1.  An estimate one cell off steps toward
   the root as the signs say.  [None] sends the polynomial to Sturm
   isolation: rational roots (the discriminant is a square), both roots
   in one level-L cell, |k| >= 2^53, no certificate after a step. *)
let quadratic_cells p =
  if P.degree p <> 2 || not (Q.equal (P.leading p) Q.one) then None
  else begin
    let b = P.coeff p 1 and c = P.coeff p 0 in
    let nb = Q.num b and db = Q.den b and nc = Q.num c and dc = Q.den c in
    (* b^2 - 4c = s / (db dc)^2 with s = (nb^2 dc - 4 nc db^2) dc, a
       rational square exactly when the integer s is a square *)
    let s = Z.mul (Z.sub (Z.mul (Z.mul nb nb) dc) (Z.mul_int (Z.mul nc (Z.mul db db)) 4)) dc in
    if Z.sign s <= 0 || Z.is_square s then None
    else begin
      let bound = P.cauchy_bound p in
      let nB = Q.num bound and dB = Q.den bound in
      (* L is the bit length of floor(2B / 2^-40) *)
      let m = Z.num_bits (Z.div (Z.shift_left nB 41) dB) - 1 in
      let den = Z.shift_left dB m in
      let at k = Q.make (Z.mul_int nB k) den in
      let bf = Q.to_float b and cf = Q.to_float c in
      let sq = Float.sqrt ((bf *. bf) -. (4.0 *. cf)) in
      let qf = if bf >= 0.0 then -0.5 *. (bf +. sq) else -0.5 *. (bf -. sq) in
      let r0 = Float.min qf (cf /. qf) and r1 = Float.max qf (cf /. qf) in
      let mid = 0.5 *. (r0 +. r1) in
      let inv_w = Float.ldexp (Z.to_float dB /. Z.to_float nB) m in
      (* is the point [x] (float [xf], sign [sx]) left of root [i]? *)
      let left_of i xf sx = if i = 0 then sx > 0 && xf < mid else sx < 0 || xf < mid in
      let cell i est =
        let kf = Float.floor (est *. inv_w) in
        if not (Float.abs kf < 0x1p53 -. 2.0) then None
        else begin
          let want = if i = 0 then 1 else -1 in
          let rec go k lo slo hi shi steps =
            if slo = want && shi = - want then Some { iso = Root { p; lo; hi; slo }; final = true; text = None }
            else if steps = 0 then None
            else if not (left_of i (float_of_int k /. inv_w) slo) then begin
              let lo' = at (k - 1) in
              go (k - 1) lo' (P.sign_at p lo') lo slo (steps - 1)
            end
            else if left_of i (float_of_int (k + 1) /. inv_w) shi then begin
              let hi' = at (k + 2) in
              go (k + 1) hi shi hi' (P.sign_at p hi') (steps - 1)
            end
            else None
          in
          let k = int_of_float kf in
          let lo = at k and hi = at (k + 1) in
          go k lo (P.sign_at p lo) hi (P.sign_at p hi) 2
        end
      in
      match cell 0 r0, cell 1 r1 with
      | Some c0, Some c1 -> Some [| c0; c1 |]
      | _ -> None
    end
  end

(* The text memo: a squarefree polynomial's cells, from [quadratic_cells]
   or else from Sturm isolation, each with its canonical text once some
   number has printed as it.  Direct-mapped and lock-free: a slot write
   is one pointer store of a complete entry, and so is a text write, so
   a racing reader sees an entry either whole or not at all and a text
   either [None] or final (two threads may both compute a text; they
   compute the same one).  No [Lazy]: forcing one
   lazy value from two threads raises on OCaml 5. *)
type entry = { key : P.t; cells : cell array }

let text_memo_bound = 64
let no_entry = { key = P.zero; cells = [||] }
let text_memo = Array.make text_memo_bound no_entry

let cells_of (p : P.t) =
  let i = Hashtbl.hash p land (text_memo_bound - 1) in
  let e = text_memo.(i) in
  if e.key == p || P.equal e.key p then e.cells
  else begin
    Atomic.incr print_polys;
    let cells =
      match quadratic_cells p with
      | Some cells -> cells
      | None ->
        Atomic.incr print_isolations;
        sturm_cells p
    in
    text_memo.(i) <- { key = p; cells };
    cells
  end

let cell_text c =
  match c.text with
  | Some s -> s
  | None ->
    let s =
      match c.iso with
      | Root r when c.final -> root_text r.p r.lo r.hi (mid_float r.lo r.hi)
      | iso -> canonical_text iso
    in
    c.text <- Some s;
    s

(* The text of the number [x], a root of [r.p], from [r.p]'s cells: the
   one whose isolating interval (or rational point) meets [r]'s, with
   the exact [compare] only when several do. *)
let text_in cells x (r : root) =
  let meets c =
    match c.iso with
    | Rational q -> Q.compare r.lo q < 0 && Q.compare q r.hi < 0
    | Root c -> Q.compare c.lo r.hi < 0 && Q.compare r.lo c.hi < 0
  in
  match List.filter meets (Array.to_list cells) with
  | [ c ] -> cell_text c
  | several ->
    (match List.find_opt (fun c -> compare (copy c.iso) x = 0) several with
     | Some c -> cell_text c
     | None -> canonical_text (copy x) (* defensive: print our own copy *))

let to_string x =
  match x with
  | Rational q -> Q.to_string q
  | Root r -> text_in (cells_of r.p) x r

let sturm_to_string x =
  match x with
  | Rational q -> Q.to_string q
  | Root r -> text_in (sturm_cells r.p) x r

let root_to_string p index =
  let cells = cells_of p in
  if index < 0 || index >= Array.length cells then invalid_arg "Algnum.root_to_string: no such root"
  else cell_text cells.(index)

let pp fmt x = Format.pp_print_string fmt (to_string x)
