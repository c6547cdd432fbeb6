(* Unit + property tests for the bignum / rational kernel. *)

module B = Moq_numeric.Bigint
module Q = Moq_numeric.Rat

let check_b msg expected actual =
  Alcotest.(check string) msg expected (B.to_string actual)

(* ------------------------------------------------------------------ *)
(* Bigint unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_of_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check (option int)) (string_of_int n) (Some n) (B.to_int (B.of_int n)))
    [ 0; 1; -1; 42; -42; 1 lsl 29; 1 lsl 30; (1 lsl 30) + 7; max_int; min_int;
      max_int - 1; min_int + 1; 999_999_999_999 ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890";
      "-999999999999999999999999999999999999"; "1000000000" ]

let test_add_carry () =
  let a = B.of_string "999999999999999999999999999999" in
  check_b "add 1" "1000000000000000000000000000000" (B.add a B.one)

let test_mul_big () =
  let a = B.of_string "12345678901234567890" in
  let b = B.of_string "98765432109876543210" in
  check_b "mul" "1219326311370217952237463801111263526900" (B.mul a b)

let test_divmod_exact () =
  let a = B.of_string "1219326311370217952237463801111263526900" in
  let b = B.of_string "98765432109876543210" in
  let q, r = B.divmod a b in
  check_b "quotient" "12345678901234567890" q;
  check_b "remainder" "0" r

let test_divmod_signs () =
  let d = B.of_int 7 and n = B.of_int 23 in
  let cases = [ (23, 7); (-23, 7); (23, -7); (-23, -7) ] in
  ignore (d, n);
  List.iter
    (fun (a, b) ->
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      Alcotest.(check int) "q" (a / b) (Option.get (B.to_int q));
      Alcotest.(check int) "r" (a mod b) (Option.get (B.to_int r)))
    cases

let test_div_by_zero () =
  Alcotest.check_raises "div0" Division_by_zero (fun () -> ignore (B.divmod B.one B.zero))

let test_gcd () =
  check_b "gcd" "6" (B.gcd (B.of_int 54) (B.of_int (-24)));
  check_b "gcd0" "5" (B.gcd B.zero (B.of_int 5));
  check_b "gcd00" "0" (B.gcd B.zero B.zero);
  let a = B.of_string "123456789123456789123456789" in
  check_b "gcd self" (B.to_string a) (B.gcd a a)

let test_pow () =
  check_b "2^100" "1267650600228229401496703205376" (B.pow (B.of_int 2) 100);
  check_b "x^0" "1" (B.pow (B.of_int 12345) 0)

let test_shift () =
  check_b "shl" (B.to_string (B.pow (B.of_int 2) 100)) (B.shift_left B.one 100);
  check_b "shr" "1" (B.shift_right (B.pow (B.of_int 2) 100) 100);
  check_b "shr mixed" "5" (B.shift_right (B.of_int 87) 4)

let test_num_bits () =
  Alcotest.(check int) "bits 0" 0 (B.num_bits B.zero);
  Alcotest.(check int) "bits 1" 1 (B.num_bits B.one);
  Alcotest.(check int) "bits 2^100" 101 (B.num_bits (B.pow (B.of_int 2) 100))

let test_compare () =
  let v = List.map B.of_string [ "-100"; "-1"; "0"; "1"; "99999999999999999999" ] in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b -> Alcotest.(check int) "cmp" (compare i j) (B.compare a b))
        v)
    v

let test_to_float () =
  Alcotest.(check (float 1e-9)) "to_float" 1.5e20 (B.to_float (B.of_string "150000000000000000000"))

(* ------------------------------------------------------------------ *)
(* Bigint properties                                                    *)
(* ------------------------------------------------------------------ *)

let arb_small = QCheck.int_range (-1_000_000_000) 1_000_000_000

let arb_big =
  (* random products so multi-limb values are exercised *)
  QCheck.map
    (fun (a, b, c) -> B.add (B.mul (B.of_int a) (B.of_int b)) (B.of_int c))
    (QCheck.triple arb_small arb_small arb_small)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name arb f)

let bigint_props =
  [ prop "add matches int" (QCheck.pair arb_small arb_small) (fun (a, b) ->
        B.to_int (B.add (B.of_int a) (B.of_int b)) = Some (a + b));
    prop "mul matches int" (QCheck.pair (QCheck.int_range (-100000) 100000) (QCheck.int_range (-100000) 100000))
      (fun (a, b) -> B.to_int (B.mul (B.of_int a) (B.of_int b)) = Some (a * b));
    prop "divmod reconstructs" (QCheck.pair arb_big arb_big) (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r) && B.compare (B.abs r) (B.abs b) < 0);
    prop "add commutative" (QCheck.pair arb_big arb_big) (fun (a, b) ->
        B.equal (B.add a b) (B.add b a));
    prop "mul distributes" (QCheck.triple arb_big arb_big arb_big) (fun (a, b, c) ->
        B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)));
    prop "sub then add" (QCheck.pair arb_big arb_big) (fun (a, b) ->
        B.equal a (B.add (B.sub a b) b));
    prop "string roundtrip" arb_big (fun a -> B.equal a (B.of_string (B.to_string a)));
    prop "gcd divides both" (QCheck.pair arb_big arb_big) (fun (a, b) ->
        QCheck.assume (not (B.is_zero a) || not (B.is_zero b));
        let g = B.gcd a b in
        B.is_zero (B.rem a g) && B.is_zero (B.rem b g));
    prop "compare antisym" (QCheck.pair arb_big arb_big) (fun (a, b) ->
        B.compare a b = - (B.compare b a));
    (* squares of one-, two- and four-limb roots and their neighbours,
       around the int / big boundary too *)
    prop "is_square on squares and neighbours" (QCheck.pair arb_big (QCheck.int_range 0 3))
      (fun (a, k) ->
        let r = if k = 3 then B.mul a a else if k = 2 then B.add (B.shift_left B.one 31) (B.abs a) else a in
        let sq = B.mul r r in
        B.is_square sq
        && (B.is_zero r || not (B.is_square (B.add sq B.one)))
        && (B.is_zero r || not (B.is_square (B.sub sq B.one)) || B.equal sq B.one)
        && (B.is_zero r || not (B.is_square (B.neg sq))));
  ]

(* ------------------------------------------------------------------ *)
(* Rat unit tests                                                       *)
(* ------------------------------------------------------------------ *)

let check_q msg expected actual = Alcotest.(check string) msg expected (Q.to_string actual)

let test_rat_canonical () =
  check_q "normalized" "2/3" (Q.of_ints 4 6);
  check_q "sign in num" "-2/3" (Q.of_ints 4 (-6));
  check_q "zero" "0" (Q.of_ints 0 17);
  check_q "int" "5" (Q.of_ints 10 2)

let test_rat_arith () =
  let open Q.Infix in
  check_q "1/2+1/3" "5/6" (Q.of_ints 1 2 +/ Q.of_ints 1 3);
  check_q "1/2-1/3" "1/6" (Q.of_ints 1 2 -/ Q.of_ints 1 3);
  check_q "2/3*3/4" "1/2" (Q.of_ints 2 3 */ Q.of_ints 3 4);
  check_q "(1/2)/(3/4)" "2/3" (Q.of_ints 1 2 // Q.of_ints 3 4)

let test_rat_compare () =
  let open Q.Infix in
  Alcotest.(check bool) "1/3 < 1/2" true (Q.of_ints 1 3 </ Q.of_ints 1 2);
  Alcotest.(check bool) "-1/2 < 1/3" true (Q.of_ints (-1) 2 </ Q.of_ints 1 3);
  Alcotest.(check bool) "eq" true (Q.of_ints 2 4 =/ Q.of_ints 1 2)

let test_rat_floor_ceil () =
  Alcotest.(check string) "floor 7/2" "3" (B.to_string (Q.floor (Q.of_ints 7 2)));
  Alcotest.(check string) "floor -7/2" "-4" (B.to_string (Q.floor (Q.of_ints (-7) 2)));
  Alcotest.(check string) "ceil 7/2" "4" (B.to_string (Q.ceil (Q.of_ints 7 2)));
  Alcotest.(check string) "ceil -7/2" "-3" (B.to_string (Q.ceil (Q.of_ints (-7) 2)));
  Alcotest.(check string) "floor int" "5" (B.to_string (Q.floor (Q.of_int 5)))

let test_rat_of_float () =
  check_q "0.5" "1/2" (Q.of_float 0.5);
  check_q "-0.75" "-3/4" (Q.of_float (-0.75));
  check_q "3" "3" (Q.of_float 3.0);
  Alcotest.(check (float 0.0)) "roundtrip" 0.1 (Q.to_float (Q.of_float 0.1))

let test_rat_of_string () =
  check_q "p/q" "-5/7" (Q.of_string "-5/7");
  check_q "decimal" "-51/4" (Q.of_string "-12.75");
  check_q "decimal2" "1/8" (Q.of_string "0.125");
  check_q "int" "42" (Q.of_string "42")

let test_rat_mediant () =
  check_q "mediant" "2/5" (Q.mediant (Q.of_ints 1 3) (Q.of_ints 1 2));
  let a = Q.of_ints 1 3 and b = Q.of_ints 1 2 in
  let m = Q.mediant a b in
  Alcotest.(check bool) "between" true Q.Infix.(a </ m && m </ b)

(* Regressions for the correctly-rounded [Q.to_float]: denominators (and
   numerators) far beyond float range must underflow/overflow cleanly
   instead of dividing garbage, and representable values must convert
   exactly. *)
let test_rat_to_float_huge () =
  let pow2 k = B.shift_left B.one k in
  let tiny = Q.make B.one (pow2 2000) in
  Alcotest.(check (float 0.0)) "1/2^2000 underflows to 0" 0.0 (Q.to_float tiny);
  Alcotest.(check (float 0.0)) "-1/2^2000 underflows to -0" 0.0
    (Float.abs (Q.to_float (Q.neg tiny)));
  Alcotest.(check (float 0.0)) "(2^2000+1)/2^2000 is 1" 1.0
    (Q.to_float (Q.make (B.add (pow2 2000) B.one) (pow2 2000)));
  Alcotest.(check (float 0.0)) "(2^2000+2^1999)/2^2000 is 1.5" 1.5
    (Q.to_float (Q.make (B.add (pow2 2000) (pow2 1999)) (pow2 2000)));
  Alcotest.(check bool) "2^2000 overflows to +inf" true
    (Q.to_float (Q.of_bigint (pow2 2000)) = Float.infinity);
  Alcotest.(check bool) "-2^2000 overflows to -inf" true
    (Q.to_float (Q.neg (Q.of_bigint (pow2 2000))) = Float.neg_infinity);
  (* huge but equal-magnitude numerator and denominator: the value is
     moderate even though both sides are 600+ digits *)
  Alcotest.(check (float 0.0)) "7·2^2000 / 2^2002 = 7/4" 1.75
    (Q.to_float (Q.make (B.mul (B.of_int 7) (pow2 2000)) (pow2 2002)))

let test_rat_to_float_correctly_rounded () =
  Alcotest.(check (float 0.0)) "1/3" (1.0 /. 3.0) (Q.to_float (Q.of_ints 1 3));
  Alcotest.(check (float 0.0)) "-2/3" (-2.0 /. 3.0) (Q.to_float (Q.of_ints (-2) 3));
  Alcotest.(check (float 0.0)) "1/10" 0.1 (Q.to_float (Q.of_ints 1 10));
  (* ulp(1) below 2 is 2^-52: 1 + 2^-53 ties to even (1.0), 1 + 2^-53 +
     2^-105 must round up *)
  let pow2 k = B.shift_left B.one k in
  Alcotest.(check (float 0.0)) "tie to even"
    1.0
    (Q.to_float (Q.make (B.add (pow2 53) B.one) (pow2 53)));
  Alcotest.(check (float 0.0)) "tie + sticky rounds up"
    (1.0 +. Float.ldexp 1.0 (-52))
    (Q.to_float (Q.make (B.add (B.mul (B.add (pow2 53) B.one) (pow2 52)) B.one) (pow2 105)))

let arb_rat =
  QCheck.map
    (fun (p, q) -> Q.of_ints p (if q = 0 then 1 else q))
    (QCheck.pair (QCheck.int_range (-10000) 10000) (QCheck.int_range (-10000) 10000))

(* Rationals with denominators up to 2^1200 — far beyond float range. *)
let arb_rat_wide =
  QCheck.map
    (fun ((p, q, k), up) ->
      let base = Q.of_ints p (if q = 0 then 1 else abs q) in
      let scale = Q.of_bigint (B.shift_left B.one k) in
      if up then Q.mul base scale else Q.div base scale)
    (QCheck.pair
       (QCheck.triple
          (QCheck.int_range (-1_000_000_000) 1_000_000_000)
          (QCheck.int_range 1 1_000_000)
          (QCheck.int_range 0 1200))
       QCheck.bool)

(* Numerators and denominators around float precision: 48 to 58 bits. *)
let arb_rat_53 =
  let gen_bits =
    QCheck.Gen.(
      map2
        (fun k lo -> B.add (B.shift_left B.one k) (B.of_int lo))
        (int_range 47 57) (int_range 0 (1 lsl 46)))
  in
  QCheck.make ~print:Q.to_string
    QCheck.Gen.(
      map3 (fun neg n d -> let x = Q.make n d in if neg then Q.neg x else x) bool gen_bits gen_bits)

let rat_props =
  [ prop "add assoc" (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
        Q.equal (Q.add a (Q.add b c)) (Q.add (Q.add a b) c));
    prop "mul inverse" arb_rat (fun a ->
        QCheck.assume (not (Q.is_zero a));
        Q.equal Q.one (Q.mul a (Q.inv a)));
    prop "canonical gcd" arb_rat (fun a ->
        B.equal B.one (B.gcd (Q.num a) (Q.den a)) || Q.is_zero a);
    prop "den positive" (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        B.sign (Q.den (Q.sub a b)) > 0);
    prop "float order-preserving" (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        QCheck.assume (Q.compare a b <> 0);
        (* floats of small rationals are close enough to preserve strict order *)
        Float.compare (Q.to_float a) (Q.to_float b) = Q.compare a b
        || Float.abs (Q.to_float a -. Q.to_float b) < 1e-12);
    prop "of_float exact" (QCheck.float_range (-1e6) 1e6) (fun f ->
        Q.to_float (Q.of_float f) = f);
    prop "to_float monotone (wide range)" (QCheck.pair arb_rat_wide arb_rat_wide)
      (fun (a, b) ->
        (* correct rounding is monotone, including through underflow *)
        let c = Q.compare a b in
        let fc = Float.compare (Q.to_float a) (Q.to_float b) in
        if c < 0 then fc <= 0 else if c > 0 then fc >= 0 else fc = 0);
    prop "to_float within half ulp (wide range)" arb_rat_wide (fun a ->
        let f = Q.to_float a in
        (* the rounding error is bounded by the gap to the next float *)
        (not (Float.is_finite f))
        ||
        let err = Q.abs (Q.sub a (Q.of_float f)) in
        let ulp_gap =
          Q.of_float (Float.max (Float.succ f -. f) (f -. Float.pred f))
        in
        Q.compare err ulp_gap <= 0);
    prop "to_float nearest, ties to even (num/den of 48-58 bits)" arb_rat_53 (fun a ->
        (* both sides of the 53-bit line: the single-division path and
           the scaled-quotient path *)
        let f = Q.to_float a in
        let dist g = Q.abs (Q.sub a (Q.of_float g)) in
        let d = dist f and dp = dist (Float.pred f) and ds = dist (Float.succ f) in
        Q.compare d dp <= 0 && Q.compare d ds <= 0
        && ((Q.compare d dp <> 0 && Q.compare d ds <> 0)
            || Int64.logand (Int64.bits_of_float f) 1L = 0L));
    prop "roundtrip exact on all floats" (QCheck.float_range (-1e300) 1e300) (fun f ->
        Q.to_float (Q.of_float f) = f);
    prop "string roundtrip" arb_rat (fun a -> Q.equal a (Q.of_string (Q.to_string a)));
    prop "floor <= x < floor+1" arb_rat (fun a ->
        let f = Q.of_bigint (Q.floor a) in
        Q.compare f a <= 0 && Q.compare a (Q.add f Q.one) < 0);
  ]

(* ------------------------------------------------------------------ *)
(* Small-integer fast paths against the bit-length paths they replace  *)
(* ------------------------------------------------------------------ *)

(* Bit length by shifting one bit at a time. *)
let ref_num_bits x =
  let rec go x k = if B.is_zero x then k else go (B.shift_right x 1) (k + 1) in
  go (B.abs x) 0

(* [Rat.to_float] as it was before the [fits_mantissa] test: one division
   when both parts have at most 53 bits, else the scaled quotient. *)
let ref_to_float x =
  if Q.is_zero x then 0.0
  else begin
    let n = Q.num x and d = Q.den x in
    let bn = ref_num_bits n and bd = ref_num_bits d in
    if bn <= 53 && bd <= 53 then B.to_float n /. B.to_float d
    else begin
      let k = 60 - (bn - bd) in
      let q, r =
        if k >= 0 then B.divmod (B.shift_left n k) d else B.divmod n (B.shift_left d (- k))
      in
      let m = Stdlib.abs (B.to_int_exn q) in
      let m = if not (B.is_zero r) && m land 1 = 0 then m lor 1 else m in
      let f = Float.ldexp (float_of_int m) (- k) in
      if Q.sign x < 0 then -.f else f
    end
  end

(* [Fintval.of_rat] as it was: a point exactly when the numerator has at
   most 53 bits and the denominator is 2^k with k <= 1074. *)
let ref_of_rat x =
  let f = ref_to_float x in
  let d = Q.den x in
  let bd = ref_num_bits d in
  if Float.is_finite f && ref_num_bits (Q.num x) <= 53 && bd <= 1075
     && B.equal d (B.shift_left B.one (bd - 1))
  then (f, f)
  else if Float.is_finite f then (Float.pred f, Float.succ f)
  else (Float.neg_infinity, Float.infinity)

(* Integers at the edges the fast paths test: +-(2^53 +- 1), powers of
   two, one and two limbs, [max_int], [min_int], and past an [int]. *)
let gen_edge_int =
  let open QCheck.Gen in
  let pow2 k = B.shift_left B.one k in
  let near k = map (fun e -> B.add (pow2 k) (B.of_int e)) (int_range (-1) 1) in
  let signed g = map2 (fun neg x -> if neg then B.neg x else x) bool g in
  signed
    (frequency
       [ (3, near 53);
         (2, int_range 0 62 >>= near);
         (2, map B.of_int (int_range 0 1_000_000));
         (1, map B.of_int (oneofl [ max_int; min_int; 1 lsl 30; (1 lsl 30) - 1 ]));
         (2, int_range 63 1100 >>= near);
         (1, map2 (fun k r -> B.add (pow2 k) (B.of_int r)) (int_range 63 200) (int_range 0 max_int)) ])

(* Denominators: powers of two (small and [Big]), 2^53 +- 1, and others. *)
let arb_fast_rat =
  let open QCheck.Gen in
  let den =
    frequency
      [ (3, map (fun k -> B.shift_left B.one k) (int_range 0 62));
        (2, map (fun k -> B.shift_left B.one k) (int_range 63 1100));
        (2, map B.abs gen_edge_int);
        (2, map B.of_int (int_range 1 1_000_000)) ]
  in
  QCheck.make ~print:Q.to_string
    (map2 (fun n d -> Q.make n (if B.is_zero d then B.one else d)) gen_edge_int den)

let fast_path_props =
  [ prop "num_bits, fits_mantissa, is_power_of_two = bit loop"
      (QCheck.make ~print:B.to_string gen_edge_int) (fun x ->
        let nb = ref_num_bits x in
        B.num_bits x = nb
        && B.fits_mantissa x = (nb <= 53)
        && B.is_power_of_two x = (B.sign x > 0 && B.equal x (B.shift_left B.one (nb - 1))));
    prop "to_float and Fintval.of_rat = the bit-length paths" arb_fast_rat (fun x ->
        let bits = Int64.bits_of_float in
        let iv = Moq_numeric.Fintval.of_rat x and lo, hi = ref_of_rat x in
        bits (Q.to_float x) = bits (ref_to_float x)
        && bits (Moq_numeric.Fintval.lo iv) = bits lo
        && bits (Moq_numeric.Fintval.hi iv) = bits hi);
  ]

let () =
  Alcotest.run "numeric"
    [ ("bigint", [
        Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
        Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
        Alcotest.test_case "add carry" `Quick test_add_carry;
        Alcotest.test_case "mul big" `Quick test_mul_big;
        Alcotest.test_case "divmod exact" `Quick test_divmod_exact;
        Alcotest.test_case "divmod signs" `Quick test_divmod_signs;
        Alcotest.test_case "div by zero" `Quick test_div_by_zero;
        Alcotest.test_case "gcd" `Quick test_gcd;
        Alcotest.test_case "pow" `Quick test_pow;
        Alcotest.test_case "shift" `Quick test_shift;
        Alcotest.test_case "num_bits" `Quick test_num_bits;
        Alcotest.test_case "compare total" `Quick test_compare;
        Alcotest.test_case "to_float" `Quick test_to_float;
      ]);
      ("bigint-props", bigint_props);
      ("rat", [
        Alcotest.test_case "canonical" `Quick test_rat_canonical;
        Alcotest.test_case "arith" `Quick test_rat_arith;
        Alcotest.test_case "compare" `Quick test_rat_compare;
        Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
        Alcotest.test_case "of_float" `Quick test_rat_of_float;
        Alcotest.test_case "of_string" `Quick test_rat_of_string;
        Alcotest.test_case "mediant" `Quick test_rat_mediant;
        Alcotest.test_case "to_float huge num/den" `Quick test_rat_to_float_huge;
        Alcotest.test_case "to_float correctly rounded" `Quick
          test_rat_to_float_correctly_rounded;
      ]);
      ("rat-props", rat_props);
      ("fast-paths", fast_path_props);
    ]
