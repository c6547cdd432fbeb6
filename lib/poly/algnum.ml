module Q = Moq_numeric.Rat
module Z = Moq_numeric.Bigint
module P = Qpoly

(* A [Root] value holds a squarefree polynomial [p], nonzero at [lo] and
   [hi], with exactly one real root in the open interval (lo, hi).  The
   interval is mutable: comparisons refine it in place (the interface is
   pure — the represented number never changes). *)
type t =
  | Rational of Q.t
  | Root of root

and root = { p : P.t; mutable lo : Q.t; mutable hi : Q.t }

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
    if sm * P.sign_at r.p r.lo < 0 then r.hi <- m else r.lo <- m;
    None

let roots p =
  if P.degree p <= 0 then []
  else begin
    let sf = P.squarefree p in
    List.map
      (function
        | Sturm.Point q -> Rational q
        | Sturm.Open_interval (lo, hi) -> Root { p = sf; lo; hi })
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
  else if P.sign_at r.p q = 0 then 0
  else if P.sign_at r.p q * P.sign_at r.p r.lo < 0 then 1 (* root in (lo, q): q greater *)
  else -1

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

(* Entry point for the filtered backend: it proves (with exact endpoint
   signs, see the check below) that an interval isolates a root it found by
   float means, then builds the [Root] without a full Sturm isolation. *)
let root_of_isolating_exn p ~lo ~hi =
  if Q.compare lo hi >= 0 then invalid_arg "Algnum.root_of_isolating_exn: empty interval";
  let sf = P.squarefree p in
  let slo = P.sign_at sf lo and shi = P.sign_at sf hi in
  if slo = 0 || shi = 0 || slo * shi > 0 then
    invalid_arg "Algnum.root_of_isolating_exn: no sign change"
  else Root { p = sf; lo; hi }

(* The printed form of a number is a wire token that peers byte-compare
   (resumed subscription streams, replica audits, the server against
   in-process Exact), but a [Root]'s live interval depends on the
   comparisons it has been through.  So [pp] prints a canonical interval
   that depends only on the polynomial and on which of its roots the
   number is: it re-isolates the roots of [r.p], picks the one whose
   isolating interval (or rational point) meets the number's interval —
   the exact [compare] runs only when several do — and bisects that
   starting interval to width below [canonical_width]
   ({!refine_until_width} takes O(1) exact sign tests for this unless
   its float estimate misses).  The result prints as [root(...)] with
   that interval, or as the rational a bisection midpoint hit.  The bytes
   depend on the representation, not only on the value: a [Rational q]
   prints as [q], while a [Root] of [t - q] prints in the [root(...)]
   form unless a bisection midpoint is [q] itself. *)
let canonical_width = Q.of_ints 1 1_099_511_627_776 (* 2^-40 *)

let pp fmt x =
  match x with
  | Rational q -> Q.pp fmt q
  | Root r ->
    let meets = function
      | Rational q -> Q.compare r.lo q < 0 && Q.compare q r.hi < 0
      | Root c -> Q.compare c.lo r.hi < 0 && Q.compare r.lo c.hi < 0
    in
    let fresh =
      match List.filter meets (roots r.p) with
      | [ c ] -> c
      | several ->
        (match List.find_opt (fun c -> compare c x = 0) several with
         | Some c -> c
         | None -> Root { r with lo = r.lo } (* defensive: print our own copy *))
    in
    (match refine_until_width fresh canonical_width with
     | Rational q -> Q.pp fmt q
     | Root c ->
       Format.fprintf fmt "root(%a) in (%a,%a) ~ %.6g" P.pp c.p Q.pp c.lo
         Q.pp c.hi
         (Q.to_float (midpoint c.lo c.hi)))
