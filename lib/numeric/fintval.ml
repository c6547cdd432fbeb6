(* Outward-rounded float intervals — the numeric half of the filtered
   (exact-geometric-computation) backend.

   Every interval produced here encloses the exact real it shadows.  We do
   not switch the FPU rounding mode: each operation is computed in
   round-to-nearest and then widened one ulp outward with
   [Float.pred]/[Float.succ], which over-approximates directed rounding.
   Any NaN (e.g. from 0 * inf) degrades to the whole real line, never to a
   false enclosure. *)

type t = { lo : float; hi : float }

let top = { lo = neg_infinity; hi = infinity }

let lo i = i.lo
let hi i = i.hi

(* A float known to be exact (integer arithmetic, dyadic rationals). *)
let point f = { lo = f; hi = f }

let down f = if f = neg_infinity || Float.is_nan f then neg_infinity else Float.pred f
let up f = if f = infinity || Float.is_nan f then infinity else Float.succ f

(* Past the NaN test, [down] and [up] need only the infinity tests. *)
let make_out l h =
  if Float.is_nan l || Float.is_nan h then top
  else
    { lo = (if l = neg_infinity then l else Float.pred l);
      hi = (if h = infinity then h else Float.succ h) }

(* [Float.min]/[Float.max] without their NaN and sign-bit tests: callers
   have excluded NaN, and the one case they differ in, the sign of a zero
   result, is erased by [make_out] ([Float.pred] and [Float.succ] of
   either zero are the same). *)
let fmin (a : float) b = if a < b then a else b
let fmax (a : float) b = if a > b then a else b

(* Encloses the real approximated by [f] to within one rounding (1/2 ulp),
   so widening one ulp each way is sound. *)
let of_float f = if Float.is_finite f then { lo = Float.pred f; hi = Float.succ f } else top

let two53 = 9007199254740992.0 (* 2^53 *)

let of_int n =
  let f = float_of_int n in
  if Float.abs f <= two53 then point f else { lo = Float.pred f; hi = Float.succ f }

(* A canonical rational n / 2^k is exactly a double when the numerator has
   at most 53 bits and k <= 1074: the value is then a multiple of the ulp
   of its binade (normal or subnormal), and its mantissa fits.  Such values
   convert exactly ([Rat.to_float] is correctly rounded), so their
   enclosure is a point — this is what lets the filter decide equalities
   between instants and the integer/dyadic scalars the engine compares
   against (curve starts, horizons, sample points from [between]). *)
let exactly_representable q =
  Bigint.fits_mantissa (Rat.num q)
  &&
  let d = Rat.den q in
  Bigint.is_power_of_two d && Bigint.num_bits d <= 1075

(* Rat.to_float is correctly rounded, so the exact rational lies within
   1/2 ulp of the conversion — strictly inside [pred f, succ f].  (In the
   subnormal range the conversion may round twice; the error is still
   below one ulp, so the same enclosure holds.)  When the numerator and
   denominator fit a double's significand, the conversion is the one
   division below, and a power-of-two denominator makes the rational that
   double exactly ([exactly_representable]). *)
let of_rat q =
  let n = Rat.num q and d = Rat.den q in
  if Bigint.fits_mantissa n && Bigint.fits_mantissa d then begin
    let dv = Bigint.to_int_exn d in
    let f = float_of_int (Bigint.to_int_exn n) /. float_of_int dv in
    if dv land (dv - 1) = 0 then point f else { lo = Float.pred f; hi = Float.succ f }
  end
  else begin
    let f = Rat.to_float q in
    if Float.is_finite f && exactly_representable q then point f else of_float f
  end

(* [of_rat] into a flat pair, with no float boxed and no record built
   when the numerator and denominator fit a double's significand. *)
let of_rat_into (a : float array) i q =
  let n = Rat.num q and d = Rat.den q in
  if Bigint.fits_mantissa n && Bigint.fits_mantissa d then begin
    let dv = Bigint.to_int_exn d in
    let f = float_of_int (Bigint.to_int_exn n) /. float_of_int dv in
    if dv land (dv - 1) = 0 then begin a.(i) <- f; a.(i + 1) <- f end
    else begin a.(i) <- Float.pred f; a.(i + 1) <- Float.succ f end
  end
  else begin
    let e = of_rat q in
    a.(i) <- e.lo;
    a.(i + 1) <- e.hi
  end

(* The enclosure stored as a flat pair at [a.(i)], [a.(i + 1)]. *)
let get (a : float array) i = { lo = a.(i); hi = a.(i + 1) }

(* Enclosure of the exact interval [lo, hi] given as rationals. *)
let of_rat_bounds qlo qhi =
  let l = (of_rat qlo).lo and h = (of_rat qhi).hi in
  { lo = l; hi = h }

let neg a = { lo = -.a.hi; hi = -.a.lo } (* negation is exact *)
let add a b = make_out (a.lo +. b.lo) (a.hi +. b.hi)
let sub a b = make_out (a.lo -. b.hi) (a.hi -. b.lo)

(* [sub] of the flat pairs at [a.(i)] and [b.(j)]. *)
let sub_pairs (a : float array) i (b : float array) j =
  make_out (a.(i) -. b.(j + 1)) (a.(i + 1) -. b.(j))

let mul a b =
  let x1 = a.lo *. b.lo
  and x2 = a.lo *. b.hi
  and x3 = a.hi *. b.lo
  and x4 = a.hi *. b.hi in
  if Float.is_nan x1 || Float.is_nan x2 || Float.is_nan x3 || Float.is_nan x4 then top
  else make_out (fmin (fmin x1 x2) (fmin x3 x4)) (fmax (fmax x1 x2) (fmax x3 x4))

(* [add (mul a t) b] on flat pairs, the same float operations in the same
   order: [mul]'s four products and NaN test, then [add]'s sums, each
   widened by [make_out]. *)
let affine_into (v : float array) dst ~a ~t ~b =
  let al = v.(a) and ah = v.(a + 1) and tl = v.(t) and th = v.(t + 1) in
  let x1 = al *. tl and x2 = al *. th and x3 = ah *. tl and x4 = ah *. th in
  if Float.is_nan x1 || Float.is_nan x2 || Float.is_nan x3 || Float.is_nan x4 then begin
    (* [top] plus any enclosure is [top] *)
    v.(dst) <- neg_infinity;
    v.(dst + 1) <- infinity
  end
  else begin
    let l = fmin (fmin x1 x2) (fmin x3 x4) and h = fmax (fmax x1 x2) (fmax x3 x4) in
    let l = (if l = neg_infinity then l else Float.pred l) +. v.(b)
    and h = (if h = infinity then h else Float.succ h) +. v.(b + 1) in
    if Float.is_nan l || Float.is_nan h then begin
      v.(dst) <- neg_infinity;
      v.(dst + 1) <- infinity
    end
    else begin
      v.(dst) <- (if l = neg_infinity then l else Float.pred l);
      v.(dst + 1) <- (if h = infinity then h else Float.succ h)
    end
  end

(* Undefined (whole line) when the divisor straddles zero. *)
let div a b =
  if b.lo <= 0.0 && 0.0 <= b.hi then top
  else begin
    let x1 = a.lo /. b.lo
    and x2 = a.lo /. b.hi
    and x3 = a.hi /. b.lo
    and x4 = a.hi /. b.hi in
    if Float.is_nan x1 || Float.is_nan x2 || Float.is_nan x3 || Float.is_nan x4 then top
    else make_out (fmin (fmin x1 x2) (fmin x3 x4)) (fmax (fmax x1 x2) (fmax x3 x4))
  end

(* Square root of the non-negative part; caller must rule out an interval
   entirely below zero.  IEEE sqrt is correctly rounded, so one-ulp
   widening is sound; the lower bound is clamped at zero. *)
let sqrt a =
  if a.hi < 0.0 then invalid_arg "Fintval.sqrt: negative interval"
  else begin
    let l = if a.lo <= 0.0 then 0.0 else Stdlib.max 0.0 (down (Float.sqrt a.lo)) in
    let h = up (Float.sqrt a.hi) in
    { lo = l; hi = h }
  end

(* Certainty queries: [Some] answers are proved, [None] means the filter
   must fall back to exact arithmetic. *)

let sign a =
  if a.lo > 0.0 then Some 1
  else if a.hi < 0.0 then Some (-1)
  else if a.lo = 0.0 && a.hi = 0.0 then Some 0 (* exact-point zero *)
  else None

let compare_certain a b =
  if a.hi < b.lo then Some (-1)
  else if b.hi < a.lo then Some 1
  else if a.lo = a.hi && b.lo = b.hi && a.lo = b.lo then Some 0
  else None

let contains_zero a = a.lo <= 0.0 && 0.0 <= a.hi
let is_finite a = Float.is_finite a.lo && Float.is_finite a.hi
let width a = a.hi -. a.lo
let mid a = 0.5 *. (a.lo +. a.hi)

(* Interval Horner over [n] coefficient enclosures stored as flat pairs
   from [a.(off)], lowest degree first: each step is [affine_into]'s float
   operations ([add (mul acc x) c]), and only the result is allocated. *)
let horner (a : float array) off n (x : t) =
  if n = 0 then point 0.0
  else begin
    let top_i = off + (2 * (n - 1)) in
    let l = ref a.(top_i) and h = ref a.(top_i + 1) in
    for k = n - 2 downto 0 do
      let bl = a.(off + (2 * k)) and bh = a.(off + (2 * k) + 1) in
      let x1 = !l *. x.lo and x2 = !l *. x.hi and x3 = !h *. x.lo and x4 = !h *. x.hi in
      if Float.is_nan x1 || Float.is_nan x2 || Float.is_nan x3 || Float.is_nan x4 then begin
        l := neg_infinity;
        h := infinity
      end
      else begin
        let ml = fmin (fmin x1 x2) (fmin x3 x4) and mh = fmax (fmax x1 x2) (fmax x3 x4) in
        let sl = (if ml = neg_infinity then ml else Float.pred ml) +. bl
        and sh = (if mh = infinity then mh else Float.succ mh) +. bh in
        if Float.is_nan sl || Float.is_nan sh then begin
          l := neg_infinity;
          h := infinity
        end
        else begin
          l := (if sl = neg_infinity then sl else Float.pred sl);
          h := (if sh = infinity then sh else Float.succ sh)
        end
      end
    done;
    { lo = !l; hi = !h }
  end

(* Exact membership test (for soundness properties in tests). *)
let contains_rat a (q : Rat.t) =
  (not (Float.is_finite a.lo) || Rat.compare (Rat.of_float a.lo) q <= 0)
  && (not (Float.is_finite a.hi) || Rat.compare q (Rat.of_float a.hi) <= 0)

let pp fmt a = Format.fprintf fmt "[%h, %h]" a.lo a.hi
