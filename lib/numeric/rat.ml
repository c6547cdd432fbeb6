(* Canonical rationals: den > 0, gcd(num, den) = 1. *)

module B = Bigint

type t = { n : B.t; d : B.t }

let make num den =
  if B.is_zero den then raise Division_by_zero
  else if B.equal den B.one then { n = num; d = den } (* integers: no gcd *)
  else begin
    let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
    if B.is_zero num then { n = B.zero; d = B.one }
    else begin
      let g = B.gcd num den in
      { n = B.div num g; d = B.div den g }
    end
  end

let zero = { n = B.zero; d = B.one }
let one = { n = B.one; d = B.one }
let minus_one = { n = B.minus_one; d = B.one }

let of_bigint n = { n; d = B.one }
let of_int n = of_bigint (B.of_int n)
let of_ints p q = make (B.of_int p) (B.of_int q)

let num x = x.n
let den x = x.d

let sign x = B.sign x.n
let is_zero x = B.is_zero x.n

let compare x y = B.compare (B.mul x.n y.d) (B.mul y.n x.d)
let equal x y = B.equal x.n y.n && B.equal x.d y.d

let neg x = { x with n = B.neg x.n }
let abs x = { x with n = B.abs x.n }

let add x y = make (B.add (B.mul x.n y.d) (B.mul y.n x.d)) (B.mul x.d y.d)
let sub x y = make (B.sub (B.mul x.n y.d) (B.mul y.n x.d)) (B.mul x.d y.d)
let mul x y = make (B.mul x.n y.n) (B.mul x.d y.d)
let div x y = if is_zero y then raise Division_by_zero else make (B.mul x.n y.d) (B.mul x.d y.n)
let inv x = if is_zero x then raise Division_by_zero else make x.d x.n

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor x =
  let q, r = B.divmod x.n x.d in
  if B.sign r < 0 then B.sub q B.one else q

let ceil x =
  let q, r = B.divmod x.n x.d in
  if B.sign r > 0 then B.add q B.one else q

let mediant a b = make (B.add a.n b.n) (B.add a.d b.d)

(* The value of n/d, d > 0, correctly rounded; the fraction need not be
   reduced. *)
let float_of_ratio n d =
  if B.fits_mantissa n && B.fits_mantissa d then
    (* Both exact as floats, so the one IEEE division rounds correctly
       (and cannot underflow: |n/d| > 2^-53, or n = 0). *)
    B.to_float n /. B.to_float d
  else begin
    let bn = B.num_bits n and bd = B.num_bits d in
    (* Past 53 bits, [to_float num /. to_float den] rounds twice, or
       overflows when the denominator exceeds the float range (e.g.
       subnormal reconstructions), and scaling to an ~80-bit quotient
       still rounded twice.  Instead scale so the truncated quotient
       q = trunc(n * 2^k / d) has 60-61 significant bits (fits an int),
       OR the divides-inexactly sticky bit below the rounding position,
       and let the single float_of_int conversion round; ldexp by 2^-k is
       then exact away from the subnormal range. *)
    let k = 60 - (bn - bd) in
    let q, r =
      if k >= 0 then B.divmod (B.shift_left n k) d
      else B.divmod n (B.shift_left d (- k))
    in
    (* |n/d| is in [2^(bn-bd-1), 2^(bn-bd+1)), so |q| is in [2^59, 2^61]. *)
    let m = Stdlib.abs (B.to_int_exn q) in
    let m = if not (B.is_zero r) && m land 1 = 0 then m lor 1 else m in
    let f = Float.ldexp (float_of_int m) (- k) in
    if B.sign n < 0 then -.f else f
  end

let to_float x = float_of_ratio x.n x.d

let of_float f =
  if not (Float.is_finite f) then invalid_arg "Rat.of_float: not finite"
  else if f = 0.0 then zero
  else begin
    let m, e = Float.frexp f in
    (* m in [0.5, 1), f = m * 2^e; m * 2^53 is an integer. *)
    let mantissa = Int64.to_int (Int64.of_float (m *. 9007199254740992.0)) in
    let e = e - 53 in
    let mag = of_bigint (B.of_int mantissa) in
    if e >= 0 then make (B.shift_left (num mag) e) B.one
    else make (num mag) (B.shift_left B.one (- e))
  end

let to_string x =
  if B.equal x.d B.one then B.to_string x.n
  else B.to_string x.n ^ "/" ^ B.to_string x.d

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let p = B.of_string (String.sub s 0 i) in
    let q = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make p q
  | None ->
    (match String.index_opt s '.' with
     | None -> of_bigint (B.of_string s)
     | Some i ->
       let whole = String.sub s 0 i in
       let frac = String.sub s (i + 1) (String.length s - i - 1) in
       let negative = String.length whole > 0 && whole.[0] = '-' in
       let w = if whole = "" || whole = "-" || whole = "+" then B.zero else B.of_string whole in
       let f = if frac = "" then zero
         else make (B.of_string frac) (B.pow (B.of_int 10) (String.length frac)) in
       let v = add (of_bigint (B.abs w)) f in
       if negative || B.sign w < 0 then neg v else v)

let pp fmt x = Format.pp_print_string fmt (to_string x)

let hash x = Hashtbl.hash (B.hash x.n, B.hash x.d)

module Infix = struct
  let ( +/ ) = add
  let ( -/ ) = sub
  let ( */ ) = mul
  let ( // ) = div
  let ( =/ ) a b = compare a b = 0
  let ( </ ) a b = compare a b < 0
  let ( <=/ ) a b = compare a b <= 0
  let ( >/ ) a b = compare a b > 0
  let ( >=/ ) a b = compare a b >= 0
end
