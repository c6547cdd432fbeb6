module Q = Moq_numeric.Rat
module QP = Moq_poly.Qpoly
module FP = Moq_poly.Fpoly
module Sturm = Moq_poly.Sturm
module Alg = Moq_poly.Algnum
module Froots = Moq_poly.Froots
module Qpiece = Moq_poly.Piecewise.Qpiece

let q = Q.of_int
let qs = Q.of_string
let poly l = QP.of_list (List.map Q.of_int l)

let prop ?(count = 300) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ------------------------------------------------------------------ *)
(* Interval shadows                                                     *)
(* ------------------------------------------------------------------ *)

module IV = Moq_numeric.Fintval

(* Many distinct polynomials, with coefficients no float represents
   exactly: each one's coefficient enclosures, as the Filtered kernel
   forms them for its sign tests and root filter, enclose that
   polynomial's own coefficients. *)
let test_coefficient_enclosures () =
  let ps =
    List.init 640 (fun i ->
        QP.of_list
          [ Q.of_ints (i + 1) 7; Q.of_ints (-(i * i) - 1) 13; Q.add (q i) (Q.of_ints 1 3) ])
  in
  let encloses p =
    let s = QP.enclose_coefs p in
    Array.length s = 2 * (QP.degree p + 1)
    && List.for_all2
      (fun c j ->
        let iv = IV.get s (2 * j) in
        Q.compare (Q.of_float (IV.lo iv)) c <= 0 && Q.compare c (Q.of_float (IV.hi iv)) <= 0)
      (QP.to_list p) (List.init (QP.degree p + 1) Fun.id)
  in
  List.iteri
    (fun i p -> if not (encloses p) then Alcotest.failf "enclosure %d does not enclose its polynomial" i)
    ps

(* ------------------------------------------------------------------ *)
(* Polynomial ring                                                      *)
(* ------------------------------------------------------------------ *)

let test_eval () =
  (* p = 2 - 3t + t^2, roots 1 and 2 *)
  let p = poly [ 2; -3; 1 ] in
  Alcotest.(check string) "p(0)" "2" (Q.to_string (QP.eval p Q.zero));
  Alcotest.(check string) "p(1)" "0" (Q.to_string (QP.eval p (q 1)));
  Alcotest.(check string) "p(3)" "2" (Q.to_string (QP.eval p (q 3)));
  Alcotest.(check string) "p(1/2)" "3/4" (Q.to_string (QP.eval p (qs "1/2")))

let test_degree_normalization () =
  Alcotest.(check int) "deg 0-poly" (-1) (QP.degree (poly [ 0; 0; 0 ]));
  Alcotest.(check int) "deg const" 0 (QP.degree (poly [ 5 ]));
  Alcotest.(check int) "trailing zeros dropped" 1 (QP.degree (poly [ 1; 2; 0; 0 ]))

let test_arith () =
  let p = poly [ 1; 1 ] (* 1+t *) and r = poly [ -1; 1 ] (* t-1 *) in
  Alcotest.(check bool) "mul" true (QP.equal (QP.mul p r) (poly [ -1; 0; 1 ]));
  Alcotest.(check bool) "add" true (QP.equal (QP.add p r) (poly [ 0; 2 ]));
  Alcotest.(check bool) "sub self" true (QP.is_zero (QP.sub p p))

let test_derivative () =
  Alcotest.(check bool) "d/dt" true
    (QP.equal (QP.derivative (poly [ 5; 3; 0; 2 ])) (poly [ 3; 0; 6 ]))

let test_compose () =
  (* p(t) = t^2, q(t) = t+1 -> p∘q = t^2+2t+1 *)
  Alcotest.(check bool) "compose" true
    (QP.equal (QP.compose (poly [ 0; 0; 1 ]) (poly [ 1; 1 ])) (poly [ 1; 2; 1 ]));
  Alcotest.(check bool) "shift" true
    (QP.equal (QP.shift (poly [ 0; 0; 1 ]) (q 1)) (poly [ 1; 2; 1 ]))

let test_divmod () =
  let a = poly [ -1; 0; 0; 1 ] (* t^3-1 *) and b = poly [ -1; 1 ] in
  let quo, rem = QP.divmod a b in
  Alcotest.(check bool) "quo" true (QP.equal quo (poly [ 1; 1; 1 ]));
  Alcotest.(check bool) "rem" true (QP.is_zero rem)

let test_gcd () =
  (* gcd((t-1)(t-2), (t-1)(t-3)) = t-1 *)
  let a = QP.mul (poly [ -1; 1 ]) (poly [ -2; 1 ]) in
  let b = QP.mul (poly [ -1; 1 ]) (poly [ -3; 1 ]) in
  Alcotest.(check bool) "gcd" true (QP.equal (QP.gcd a b) (poly [ -1; 1 ]))

let test_squarefree () =
  (* (t-1)^2 (t-2) -> (t-1)(t-2) *)
  let p = QP.mul (QP.mul (poly [ -1; 1 ]) (poly [ -1; 1 ])) (poly [ -2; 1 ]) in
  Alcotest.(check bool) "squarefree" true
    (QP.equal (QP.squarefree p) (QP.monic (QP.mul (poly [ -1; 1 ]) (poly [ -2; 1 ]))))

let test_sign_jet () =
  (* p = t^2: zero at 0 but positive just after *)
  Alcotest.(check int) "jet t^2 at 0" 1 (QP.sign_jet (poly [ 0; 0; 1 ]) Q.zero);
  (* p = -t^3 *)
  Alcotest.(check int) "jet -t^3 at 0" (-1) (QP.sign_jet (poly [ 0; 0; 0; -1 ]) Q.zero);
  Alcotest.(check int) "jet at nonroot" 1 (QP.sign_jet (poly [ 3; 1 ]) Q.zero)

let test_infinity_signs () =
  Alcotest.(check int) "+inf even" 1 (QP.sign_at_pos_infinity (poly [ 0; 0; 2 ]));
  Alcotest.(check int) "-inf even" 1 (QP.sign_at_neg_infinity (poly [ 0; 0; 2 ]));
  Alcotest.(check int) "-inf odd" (-1) (QP.sign_at_neg_infinity (poly [ 0; 1 ]));
  Alcotest.(check int) "-inf odd neg" 1 (QP.sign_at_neg_infinity (poly [ 0; -1 ]))

let arb_poly =
  QCheck.map
    (fun l -> poly l)
    (QCheck.list_of_size (QCheck.Gen.int_range 0 6) (QCheck.int_range (-20) 20))

let poly_props =
  [ prop "divmod reconstructs" (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
        QCheck.assume (not (QP.is_zero b));
        let quo, rem = QP.divmod a b in
        QP.equal a (QP.add (QP.mul quo b) rem) && QP.degree rem < QP.degree b);
    prop "mul degree adds" (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
        QCheck.assume (not (QP.is_zero a) && not (QP.is_zero b));
        QP.degree (QP.mul a b) = QP.degree a + QP.degree b);
    prop "gcd divides" (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
        QCheck.assume (not (QP.is_zero a) && not (QP.is_zero b));
        let g = QP.gcd a b in
        QP.is_zero (snd (QP.divmod a g)) && QP.is_zero (snd (QP.divmod b g)));
    prop "compose evaluates" (QCheck.triple arb_poly arb_poly (QCheck.int_range (-5) 5))
      (fun (a, b, x) ->
        let x = q x in
        Q.equal (QP.eval (QP.compose a b) x) (QP.eval a (QP.eval b x)));
    prop "eval cauchy bound positive" arb_poly (fun a ->
        Q.sign (QP.cauchy_bound a) > 0);
  ]

(* ------------------------------------------------------------------ *)
(* Sturm / isolation                                                    *)
(* ------------------------------------------------------------------ *)

let count_roots p = List.length (Alg.roots p)

let test_sturm_counts () =
  (* (t-1)(t-2)(t-3) *)
  let p = QP.mul (QP.mul (poly [ -1; 1 ]) (poly [ -2; 1 ])) (poly [ -3; 1 ]) in
  let c = Sturm.chain p in
  Alcotest.(check int) "total" 3 (Sturm.count_real_roots c);
  Alcotest.(check int) "in (0,10]" 3 (Sturm.count_roots_between c Q.zero (q 10));
  Alcotest.(check int) "in (1,3]" 2 (Sturm.count_roots_between c (q 1) (q 3));
  Alcotest.(check int) "in (4,10]" 0 (Sturm.count_roots_between c (q 4) (q 10))

let test_sturm_no_real_roots () =
  (* t^2+1 *)
  Alcotest.(check int) "t^2+1" 0 (Sturm.count_real_roots (Sturm.chain (poly [ 1; 0; 1 ])))

let test_sturm_multiple_roots () =
  (* (t-1)^3: one distinct root *)
  let p = QP.mul (QP.mul (poly [ -1; 1 ]) (poly [ -1; 1 ])) (poly [ -1; 1 ]) in
  Alcotest.(check int) "isolated" 1 (count_roots p)

let test_isolate_sqrt2 () =
  (* t^2 - 2: roots ±sqrt 2 *)
  let p = poly [ -2; 0; 1 ] in
  match Alg.roots p with
  | [ a; b ] ->
    Alcotest.(check (float 1e-9)) "-sqrt2" (-.sqrt 2.0) (Alg.to_float a);
    Alcotest.(check (float 1e-9)) "sqrt2" (sqrt 2.0) (Alg.to_float b);
    Alcotest.(check int) "order" (-1) (Alg.compare a b)
  | _ -> Alcotest.fail "expected 2 roots"

let test_isolate_rational_root () =
  (* (2t-1)(t^2-2): rational root 1/2 among irrationals *)
  let p = QP.mul (QP.of_list [ q (-1); q 2 ]) (poly [ -2; 0; 1 ]) in
  let roots = Alg.roots p in
  Alcotest.(check int) "3 roots" 3 (List.length roots);
  let floats = List.map Alg.to_float roots in
  List.iter2
    (fun expected actual -> Alcotest.(check (float 1e-9)) "root" expected actual)
    [ -.sqrt 2.0; 0.5; sqrt 2.0 ] floats

let test_isolate_close_roots () =
  (* (t - 1000001/1000000)(t - 1000002/1000000): roots 1e-6 apart *)
  let r1 = qs "1000001/1000000" and r2 = qs "1000002/1000000" in
  let p = QP.mul (QP.of_list [ Q.neg r1; Q.one ]) (QP.of_list [ Q.neg r2; Q.one ]) in
  match Alg.roots p with
  | [ a; b ] ->
    Alcotest.(check int) "distinct" (-1) (Alg.compare a b);
    Alcotest.(check int) "a is r1" 0 (Alg.compare a (Alg.of_rat r1));
    Alcotest.(check int) "b is r2" 0 (Alg.compare b (Alg.of_rat r2))
  | _ -> Alcotest.fail "expected 2 roots"

let test_first_root_after () =
  let p = poly [ -2; 0; 1 ] in
  (match Alg.first_root_after p (Alg.of_int 0) with
   | Some r -> Alcotest.(check (float 1e-9)) "sqrt2" (sqrt 2.0) (Alg.to_float r)
   | None -> Alcotest.fail "expected a root");
  (match Alg.first_root_after p (Alg.of_int 2) with
   | Some _ -> Alcotest.fail "no root after 2"
   | None -> ());
  (* strictness: first root after sqrt2 itself is -none- *)
  let sqrt2 = List.nth (Alg.roots p) 1 in
  (match Alg.first_root_after p sqrt2 with
   | Some _ -> Alcotest.fail "strictly after sqrt2"
   | None -> ())

(* ------------------------------------------------------------------ *)
(* Algebraic numbers                                                    *)
(* ------------------------------------------------------------------ *)

let sqrt_alg n =
  (* positive root of t^2 - n *)
  match Alg.roots (poly [ -n; 0; 1 ]) with
  | [ _; r ] -> r
  | [ r ] -> r (* n = 0 *)
  | _ -> Alcotest.fail "sqrt_alg"

let test_alg_compare_equal_different_polys () =
  (* sqrt2 as root of t^2-2 and as root of (t^2-2)(t-10) *)
  let a = sqrt_alg 2 in
  let p2 = QP.mul (poly [ -2; 0; 1 ]) (poly [ -10; 1 ]) in
  let b = List.find (fun r -> Alg.sign r > 0 && Alg.to_float r < 2.0) (Alg.roots p2) in
  Alcotest.(check int) "equal across polys" 0 (Alg.compare a b)

let test_alg_order () =
  let s2 = sqrt_alg 2 and s3 = sqrt_alg 3 in
  Alcotest.(check int) "sqrt2 < sqrt3" (-1) (Alg.compare s2 s3);
  Alcotest.(check int) "sqrt3 > 0" 1 (Alg.sign s3);
  Alcotest.(check int) "rat vs alg" (-1) (Alg.compare (Alg.of_rat (qs "7/5")) s2);
  Alcotest.(check int) "alg vs rat" (-1) (Alg.compare s2 (Alg.of_rat (qs "3/2")))

let test_alg_sign_of_poly () =
  let s2 = sqrt_alg 2 in
  (* (t^2 - 2) vanishes at sqrt2 *)
  Alcotest.(check int) "vanishes" 0 (Alg.sign_of_poly_at (poly [ -2; 0; 1 ]) s2);
  (* t - 1 positive at sqrt2 *)
  Alcotest.(check int) "positive" 1 (Alg.sign_of_poly_at (poly [ -1; 1 ]) s2);
  (* t - 2 negative at sqrt2 *)
  Alcotest.(check int) "negative" (-1) (Alg.sign_of_poly_at (poly [ -2; 1 ]) s2);
  (* multiple of the minimal polynomial also vanishes *)
  Alcotest.(check int) "multiple vanishes" 0
    (Alg.sign_of_poly_at (QP.mul (poly [ -2; 0; 1 ]) (poly [ 17; 3 ])) s2)

let test_rational_between () =
  let s2 = sqrt_alg 2 and s3 = sqrt_alg 3 in
  let m = Alg.rational_between s2 s3 in
  Alcotest.(check bool) "between" true
    (Alg.compare s2 (Alg.of_rat m) < 0 && Alg.compare (Alg.of_rat m) s3 < 0);
  let m2 = Alg.rational_between (Alg.of_int 1) s2 in
  Alcotest.(check bool) "rat-alg between" true
    (Q.compare Q.one m2 < 0 && Alg.compare (Alg.of_rat m2) s2 < 0)

let test_alg_to_rat () =
  Alcotest.(check bool) "rational" true (Alg.to_rat (Alg.of_int 3) <> None);
  Alcotest.(check bool) "irrational" true (Alg.to_rat (sqrt_alg 2) = None)

let arb_cubic =
  (* random cubic-ish polynomials with at least one root *)
  QCheck.map
    (fun (a, b, c) ->
      QP.mul (QP.of_list [ q a; Q.one ]) (QP.of_list [ q b; q 1; q c ]))
    (QCheck.triple (QCheck.int_range (-8) 8) (QCheck.int_range (-8) 8) (QCheck.int_range (-3) 3))

let alg_props =
  [ prop ~count:150 "roots really vanish" arb_cubic (fun p ->
        List.for_all (fun r -> Alg.sign_of_poly_at p r = 0) (Alg.roots p));
    prop ~count:150 "roots ascending distinct" arb_cubic (fun p ->
        let rec ordered = function
          | a :: (b :: _ as rest) -> Alg.compare a b < 0 && ordered rest
          | _ -> true
        in
        ordered (Alg.roots p));
    prop ~count:150 "float agrees with sign tests" arb_cubic (fun p ->
        List.for_all
          (fun r ->
            let f = Alg.to_float r in
            (* evaluating the float poly at the float root is near zero *)
            Float.abs (FP.eval (FP.of_qpoly p) f) < 1e-5)
          (Alg.roots p));
    prop ~count:150 "root count matches sign changes of floats" arb_cubic (fun p ->
        (* roots of p = roots of float version up to tolerance *)
        let exact = List.map Alg.to_float (Alg.roots p) in
        let approx = Froots.real_roots (FP.of_qpoly p) in
        List.length exact = List.length approx
        && List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) exact approx);
  ]

(* ------------------------------------------------------------------ *)
(* Float roots                                                          *)
(* ------------------------------------------------------------------ *)

let fpoly l = FP.of_list l

let test_froots_quadratic () =
  (* (t-1)(t-3) = 3 - 4t + t^2 *)
  (match Froots.real_roots (fpoly [ 3.0; -4.0; 1.0 ]) with
   | [ a; b ] ->
     Alcotest.(check (float 1e-9)) "r1" 1.0 a;
     Alcotest.(check (float 1e-9)) "r2" 3.0 b
   | _ -> Alcotest.fail "expected 2 roots");
  Alcotest.(check int) "no real roots" 0 (List.length (Froots.real_roots (fpoly [ 1.0; 0.0; 1.0 ])))

let test_froots_cancellation () =
  (* t^2 - 10^8 t + 1: classic catastrophic cancellation case *)
  match Froots.real_roots (fpoly [ 1.0; -1e8; 1.0 ]) with
  | [ a; b ] ->
    Alcotest.(check bool) "small root accurate" true (Float.abs (a -. 1e-8) < 1e-15);
    Alcotest.(check bool) "big root accurate" true (Float.abs (b -. 1e8) < 1.0)
  | _ -> Alcotest.fail "expected 2 roots"

let test_froots_quartic () =
  (* (t^2-1)(t^2-4): roots -2 -1 1 2 *)
  let p = FP.mul (fpoly [ -1.0; 0.0; 1.0 ]) (fpoly [ -4.0; 0.0; 1.0 ]) in
  match Froots.real_roots p with
  | [ a; b; c; d ] ->
    List.iter2
      (fun e g -> Alcotest.(check (float 1e-7)) "root" e g)
      [ -2.0; -1.0; 1.0; 2.0 ] [ a; b; c; d ]
  | l -> Alcotest.failf "expected 4 roots, got %d" (List.length l)

let test_froots_first_after () =
  let p = fpoly [ 3.0; -4.0; 1.0 ] in
  Alcotest.(check (option (float 1e-9))) "after 0" (Some 1.0) (Froots.first_root_after p 0.0);
  Alcotest.(check (option (float 1e-9))) "after 1" (Some 3.0) (Froots.first_root_after p 1.0);
  Alcotest.(check (option (float 1e-9))) "after 3" None (Froots.first_root_after p 3.0)

(* ------------------------------------------------------------------ *)
(* Piecewise                                                            *)
(* ------------------------------------------------------------------ *)

let test_piecewise_eval () =
  (* |t| on [-10, 10]: -t then t *)
  let c = Qpiece.make ~stop:(q 10) [ (q (-10), poly [ 0; -1 ]); (Q.zero, poly [ 0; 1 ]) ] in
  Alcotest.(check string) "at -3" "3" (Q.to_string (Qpiece.eval c (q (-3))));
  Alcotest.(check string) "at 4" "4" (Q.to_string (Qpiece.eval c (q 4)));
  Alcotest.(check string) "at 0" "0" (Q.to_string (Qpiece.eval c Q.zero));
  Alcotest.(check string) "at stop" "10" (Q.to_string (Qpiece.eval c (q 10)));
  Alcotest.(check bool) "continuous" true (Qpiece.is_continuous c);
  Alcotest.check_raises "outside" (Invalid_argument "Piecewise: out of domain") (fun () ->
      ignore (Qpiece.eval c (q 11)))

let test_piecewise_combine () =
  let a = Qpiece.make [ (Q.zero, poly [ 0; 1 ]); (q 5, poly [ 5 ]) ] in
  (* a(t) = t on [0,5), 5 after -- wait: constant 5 from t=5 *)
  let b = Qpiece.constant ~start:(q 1) (q 2) in
  let d = Qpiece.sub a b in
  Alcotest.(check string) "start" "1" (Q.to_string (Qpiece.start d));
  Alcotest.(check string) "(a-b)(3)" "1" (Q.to_string (Qpiece.eval d (q 3)));
  Alcotest.(check string) "(a-b)(7)" "3" (Q.to_string (Qpiece.eval d (q 7)));
  Alcotest.(check int) "breakpoint count" 1 (List.length (Qpiece.breakpoints d))

let test_piecewise_compose_affine () =
  let c = Qpiece.make [ (Q.zero, poly [ 0; 1 ]) ] (* identity from 0 *) in
  let d = Qpiece.compose_affine c ~scale:(q 2) ~offset:(q 6) in
  (* d(t) = 2t+6, valid when 2t+6 >= 0, t >= -3 *)
  Alcotest.(check string) "start" "-3" (Q.to_string (Qpiece.start d));
  Alcotest.(check string) "value" "10" (Q.to_string (Qpiece.eval d (q 2)))

let test_piecewise_extend () =
  let c = Qpiece.make [ (Q.zero, poly [ 0; 1 ]) ] in
  let c' = Qpiece.extend_last_from c (q 5) (poly [ 5 ]) () in
  Alcotest.(check string) "before tau" "3" (Q.to_string (Qpiece.eval c' (q 3)));
  Alcotest.(check string) "after tau" "5" (Q.to_string (Qpiece.eval c' (q 9)));
  Alcotest.(check bool) "continuous" true (Qpiece.is_continuous c')

let test_piecewise_clip () =
  let c = Qpiece.make [ (Q.zero, poly [ 0; 1 ]); (q 5, poly [ 5 ]) ] in
  let d = Qpiece.clip c ~from_:(Some (q 2)) ~until:(Some (q 8)) in
  Alcotest.(check string) "start" "2" (Q.to_string (Qpiece.start d));
  Alcotest.(check bool) "stop" true (Qpiece.stop d = Some (q 8));
  Alcotest.(check string) "inside" "5" (Q.to_string (Qpiece.eval d (q 6)));
  Alcotest.check_raises "clipped out" (Invalid_argument "Piecewise: out of domain") (fun () ->
      ignore (Qpiece.eval d (q 1)))

(* ------------------------------------------------------------------ *)
(* Canonical refinement and printing against the step-by-step loop      *)
(* ------------------------------------------------------------------ *)

(* The bisection [Alg.refine_until_width] is defined by, one exact step
   at a time: halve the isolating interval (lo, hi) of a simple root of
   [p] until it is narrower than [w], stopping at a midpoint that is the
   root itself. *)
let rec reference_refine p lo hi w =
  if Q.compare (Q.sub hi lo) w < 0 then `Cell (lo, hi)
  else begin
    let m = Q.mul (Q.of_ints 1 2) (Q.add lo hi) in
    match QP.sign_at p m with
    | 0 -> `Point m
    | sm ->
      if sm * QP.sign_at p lo < 0 then reference_refine p lo m w
      else reference_refine p m hi w
  end

let refined x w =
  match Alg.to_rat (Alg.refine_until_width x w) with
  | Some q -> `Point q
  | None ->
    let lo, hi = Alg.bounds x in
    `Cell (lo, hi)

let show_refined = function
  | `Point q -> Q.to_string q
  | `Cell (lo, hi) -> Printf.sprintf "(%s, %s)" (Q.to_string lo) (Q.to_string hi)

let w40 = Q.of_ints 1 1_099_511_627_776

module Z = Moq_numeric.Bigint

(* floor (sqrt n) for n >= 0, by Newton's iteration from above *)
let isqrt n =
  let rec go x =
    let y = Z.div (Z.add x (Z.div n x)) (Z.of_int 2) in
    if Z.compare y x >= 0 then x else go y
  in
  if Z.sign n = 0 then n else go n

let rat_sqrt d =
  let sq n = let r = isqrt n in if Z.equal (Z.mul r r) n then Some r else None in
  if Q.sign d < 0 then None
  else
    match sq (Q.num d), sq (Q.den d) with
    | Some a, Some b -> Some (Q.make a b)
    | _ -> None

(* The rational roots of [p], found independently of [Alg]: closed forms
   for degrees 1 and 2, and for higher degrees the rational root theorem's
   candidates ±(divisor of the constant)/(divisor of the leading
   coefficient), which the corpus keeps small. *)
let rational_roots p =
  match QP.to_list p with
  | [ c; b ] -> [ Q.neg (Q.div c b) ]
  | [ c; b; a ] ->
    (match rat_sqrt (Q.sub (Q.mul b b) (Q.mul (Q.of_int 4) (Q.mul a c))) with
     | Some s ->
       List.map (fun s -> Q.div (Q.add (Q.neg b) s) (Q.mul (Q.of_int 2) a)) [ s; Q.neg s ]
     | None -> [])
  | cs ->
    let den = List.fold_left (fun l k -> Z.mul l (Q.den k)) Z.one cs in
    let ints = List.map (fun k -> Z.to_int_exn (Q.num (Q.mul k (Q.of_bigint den)))) cs in
    let divisors n = List.filter (fun d -> n mod d = 0) (List.init (abs n) (fun i -> i + 1)) in
    let c0 = List.hd ints and cn = List.nth ints (List.length ints - 1) in
    assert (c0 <> 0);
    List.concat_map
      (fun a -> List.concat_map (fun b -> [ Q.of_ints a b; Q.of_ints (-a) b ]) (divisors cn))
      (divisors c0)
    |> List.filter (fun r -> QP.sign_at p r = 0)

(* What [Alg.pp] prints: the value when it is rational, and otherwise the
   canonical root picked by exact [compare] and refined with the loop
   above.  [p] is the polynomial [x] was made from. *)
let reference_pp p x =
  let sf = QP.squarefree p in
  let fresh = List.map (fun c -> (c, Alg.bounds c)) (Alg.roots p) in
  match List.find_opt (fun r -> Alg.compare (Alg.of_rat r) x = 0) (rational_roots p) with
  | Some r -> Q.to_string r
  | None ->
  match List.find_opt (fun (c, _) -> Alg.compare c x = 0) fresh with
  | None -> Alcotest.fail "reference_pp: not a root of p"
  | Some (_, (lo, hi)) when Q.equal lo hi -> Q.to_string lo
  | Some (_, (lo, hi)) ->
    (match reference_refine sf lo hi w40 with
     | `Point q -> Q.to_string q
     | `Cell (l, h) ->
       Format.asprintf "root(%a) in (%a,%a) ~ %.6g" QP.pp sf Q.pp l Q.pp h
         (Q.to_float (Q.mul (Q.of_ints 1 2) (Q.add l h))))

(* (t - a)(t - b) *)
let quad_of_roots a b = QP.of_list [ Q.mul a b; Q.neg (Q.add a b); Q.one ]

(* A seeded corpus of (p, x) with x a root of p, in the shapes the
   canonical printer meets: fresh Sturm roots of linear and quadratic
   polynomials (negative and large ones too), roots on grid points of
   their own interval at several levels, roots within far less than an
   ulp of a level-41 grid point (the float estimate cannot tell the side,
   so the fallback loop runs), and roots whose interval is wider than an
   isolation would give, up to meeting other roots' isolating intervals. *)
let refine_corpus () =
  let st = Random.State.make [| 20261017 |] in
  (* a rational of magnitude up to [scale] *)
  let rand_q scale den =
    Q.mul (Q.of_int scale)
      (Q.of_ints (Random.State.int st 2001 - 1000) (1000 * (1 + Random.State.int st den)))
  in
  let fresh p = List.map (fun x -> (p, x)) (Alg.roots p) in
  let linear =
    List.concat_map
      (fun q -> fresh (QP.of_list [ Q.neg q; Q.one ]))
      [ Q.of_ints 133 300; Q.of_ints (-7) 3; Q.of_int 1_000_003; Q.of_ints (-123_456_789) 7;
        Q.of_ints 1 3; Q.zero ]
  in
  let quadratics =
    List.concat
      (List.init 150 (fun i ->
           let scale = if i mod 5 = 0 then 1_000_000 else if i mod 5 = 1 then 1000 else 40 in
           let a2 = Q.of_ints (1 + Random.State.int st 9) (1 + Random.State.int st 5) in
           let p =
             QP.of_list [ rand_q (scale * scale) 97; rand_q (2 * scale) 19; a2 ]
           in
           fresh p))
  in
  let unit_root p = Alg.root_of_isolating_exn p ~lo:Q.zero ~hi:Q.one in
  let pow2 n = Q.of_bigint (Moq_numeric.Bigint.shift_left Moq_numeric.Bigint.one n) in
  (* grid points j / 2^l of the unit interval, l up to 41 (the last level
     of a 2^-40 refinement of (0, 1)), and points next to them *)
  let grid =
    List.concat_map
      (fun l ->
        (* j odd, so g lies on level l and on no coarser one *)
        let j = 1 + (2 * Random.State.int st (1 lsl (min l 29 - 1))) in
        let g = Q.div (Q.of_int j) (pow2 l) in
        let near d = Q.add g (Q.div (Q.of_int d) (pow2 (l + 60))) in
        List.map
          (fun r ->
            let p = quad_of_roots r (Q.of_int 5) in
            (p, unit_root p))
          [ g; near 1; near (-1) ])
      [ 1; 2; 3; 7; 20; 33; 40; 41 ]
  in
  (* wider than isolation: (lo, hi) around one of two roots *)
  let wide =
    List.init 40 (fun _ ->
        let r = rand_q 50 7 and s = Q.add (Q.of_int 60) (rand_q 20 3) in
        let p = quad_of_roots r s in
        let lo = Q.sub r (Q.of_ints (1 + Random.State.int st 100) (1 + Random.State.int st 9)) in
        let hi = Q.add r (Q.of_ints 1 (1 + Random.State.int st 30)) in
        (p, Alg.root_of_isolating_exn p ~lo ~hi))
  in
  (* an interval reaching almost to both neighbouring roots, so that
     several fresh isolating intervals meet it and [pp] needs [compare] *)
  let crowded =
    List.map
      (fun (lo, hi) ->
        let p = QP.mul (quad_of_roots (Q.of_ints 1 3) (Q.of_ints 10 3)) (poly [ -2; 0; 1 ]) in
        (p, Alg.root_of_isolating_exn p ~lo ~hi))
      [ (Q.of_ints 3334 10000, Q.of_ints 33333 10000); (Q.of_ints 1 2, Q.of_int 3) ]
  in
  linear @ quadratics @ grid @ wide @ crowded

let test_refine_matches_loop () =
  List.iter
    (fun w ->
      List.iter
        (fun (p, x) ->
          let lo, hi = Alg.bounds x in
          let want =
            if Q.equal lo hi then `Point lo else reference_refine (QP.squarefree p) lo hi w
          in
          let got = refined x w in
          if want <> got then
            Alcotest.failf "refine_until_width from (%s, %s): want %s, got %s" (Q.to_string lo)
              (Q.to_string hi) (show_refined want) (show_refined got))
        (refine_corpus ()))
    [ w40; Q.of_ints 1 1000; Q.of_ints 1 3; Q.of_int 7 ]

(* Narrowed below 2^-40 by comparisons: the interval is already final. *)
let test_refine_already_narrow () =
  let p = poly [ -2; 0; 1 ] in
  let x = List.nth (Alg.roots p) 1 in
  ignore (Alg.compare x (Alg.of_rat (Q.of_ints 141421356237 100000000000)));
  for _ = 1 to 45 do Alg.refine_step x done;
  let lo, hi = Alg.bounds x in
  Alcotest.(check bool) "narrower than 2^-40" true (Q.compare (Q.sub hi lo) w40 < 0);
  Alcotest.(check bool) "returned as is" true (refined x w40 = `Cell (lo, hi));
  (* a bisection that landed on a rational root leaves a Root centred on
     it; refining again names the rational *)
  let p = quad_of_roots (Q.of_ints 1 2) (Q.of_int 7) in
  let x = Alg.root_of_isolating_exn p ~lo:Q.zero ~hi:Q.one in
  Alg.refine_step x;
  Alcotest.(check bool) "rational found" true (refined x w40 = `Point (Q.of_ints 1 2))

(* A root of a reducible quadratic is rational and prints as its value,
   as the update instant it coincides with does. *)
let test_pp_rational_roots () =
  Alcotest.(check (list string)) "roots of t^2 + 3t - 28" [ "-7"; "4" ]
    (List.map (Format.asprintf "%a" Alg.pp) (Alg.roots (poly [ -28; 3; 1 ])));
  Alcotest.(check (list string)) "roots of 6t^2 - 7t + 2" [ "1/2"; "2/3" ]
    (List.map (Format.asprintf "%a" Alg.pp) (Alg.roots (poly [ 2; -7; 6 ])))

let test_pp_matches_reference () =
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun (p, x) ->
      (* print before [reference_pp]'s comparisons narrow [x], and after
         a further history of refinement *)
      let got_fresh = Format.asprintf "%a" Alg.pp x in
      let want = reference_pp p x in
      for _ = 1 to Random.State.int st 60 do Alg.refine_step x done;
      let got_refined = Format.asprintf "%a" Alg.pp x in
      Alcotest.(check string) "fresh" want got_fresh;
      Alcotest.(check string) "after refinement" want got_refined)
    (refine_corpus ())

(* ------------------------------------------------------------------ *)
(* Exact kernel: fraction-free signs, certified roots, the text memo    *)
(* ------------------------------------------------------------------ *)

(* Rationals in the shapes the sweep meets: small, big (past one limb),
   fractional, and float dyadics with large power-of-two denominators. *)
let gen_q =
  let open QCheck.Gen in
  (* 27 decimal digits: three limbs *)
  let big =
    map (fun ds -> Q.of_string (String.concat "" (List.map string_of_int ds)))
      (list_repeat 3 (int_range 100_000_000 999_999_999))
  in
  let signed = map2 (fun neg b -> if neg then Q.neg b else b) bool big in
  frequency
    [ (3, map2 Q.of_ints (int_range (-50) 50) (int_range 1 12));
      (2, map2 Q.div signed (oneof [ return Q.one; big ]));
      (3, map2 Q.of_ints (int_range (-1_000_000) 1_000_000) (int_range 1 1_000_000));
      (3, map (fun f -> Q.of_float f) (float_range (-1e6) 1e6));
      (1, map (fun f -> Q.of_float (f *. 1e-12)) (float_range (-1.) 1.)) ]

let arb_poly_point =
  let open QCheck.Gen in
  let gen = pair (map QP.of_list (int_range 0 6 >>= fun n -> list_repeat n gen_q)) gen_q in
  QCheck.make ~print:(fun (p, x) -> QP.to_string p ^ " at " ^ Q.to_string x) gen

let test_sign_at_prop =
  prop ~count:1000 "fraction-free sign_at = sign of rational Horner" arb_poly_point
    (fun (p, x) -> QP.sign_at p x = Q.sign (QP.eval p x))

(* A point where p vanishes exactly, with a big denominator. *)
let test_sign_at_zero () =
  let r = Q.of_float 0.1 in
  let p = QP.mul (QP.of_list [ Q.neg r; Q.one ]) (QP.of_list [ Q.of_ints 1 3; Q.of_ints (-5) 7; Q.of_ints 2 9 ]) in
  Alcotest.(check int) "root" 0 (QP.sign_at p r);
  Alcotest.(check int) "zero polynomial" 0 (QP.sign_at QP.zero r);
  Alcotest.(check int) "constant" (-1) (QP.sign_at (QP.constant (Q.of_ints (-1) 3)) r)

(* The eager endpoint certificate of a float root enclosure: dyadic
   ends, two exact signs, then the unchecked constructor.  [None] where
   it fails. *)
let certify p lo hi =
  let ql = Q.of_float lo and qh = Q.of_float hi in
  let sl = QP.sign_at p ql in
  if Q.compare ql qh < 0 && sl * QP.sign_at p qh < 0 then
    Some (Alg.root_of_certified p ~lo:ql ~hi:qh ~sign_lo:sl, ql, qh)
  else None

(* 400 seeded quadratics with two real roots each, and float estimates
   of the two roots, ascending. *)
let certified_corpus () =
  let st = Random.State.make [| 20261018 |] in
  List.init 400 (fun i ->
    let i = i + 1 in
    let rq scale = Q.of_ints (Random.State.int st (2 * scale + 1) - scale) (1 + Random.State.int st 60) in
    let a2 = if i mod 2 = 0 then rq 9 else Q.neg (Q.of_ints (1 + Random.State.int st 9) 7) in
    let a2 = if Q.is_zero a2 then Q.one else a2 in
    (* two real roots: rational ones from a product, irrational ones from
       a negative constant term over a positive leading coefficient *)
    let c0 = Q.neg (Q.abs (rq 1000)) in
    let c0 = if Q.is_zero c0 then Q.minus_one else c0 in
    let p =
      if i mod 3 = 0 then QP.scale a2 (quad_of_roots (rq 500) (Q.add (rq 500) (Q.of_ints 1 7)))
      else QP.of_list [ c0; rq 40; Q.abs a2 ]
    in
    let f k = Q.to_float (QP.coeff p k) in
    let a = f 2 and b = f 1 and c = f 0 in
    let sq = Float.sqrt ((b *. b) -. (4. *. a *. c)) in
    let r1 = (-.b -. sq) /. (2. *. a) and r2 = (-.b +. sq) /. (2. *. a) in
    (p, [ Float.min r1 r2; Float.max r1 r2 ]))

let test_certified_quadratics () =
  let certified = ref 0 in
  List.iter
    (fun (p, estimates) ->
      List.iter
        (fun r ->
          let w = 1e-9 *. (1. +. Float.abs r) in
          match certify p (r -. w) (r +. w) with
          | None -> ()
          | Some (x, ql, qh) ->
            incr certified;
            let checked = Alg.root_of_isolating_exn p ~lo:ql ~hi:qh in
            Alcotest.(check int) "compare = 0" 0 (Alg.compare x checked);
            Alcotest.(check bool) "well formed" true (Alg.well_formed x);
            Alcotest.(check string) "same text" (Format.asprintf "%a" Alg.pp checked)
              (Format.asprintf "%a" Alg.pp x);
            Alcotest.(check bool) "one of p's roots" true
              (List.exists (fun y -> Alg.compare x y = 0) (Alg.roots p)))
        estimates)
    (certified_corpus ());
  Alcotest.(check bool) "most roots certified" true (!certified > 600)

(* A root named by a float enclosure: root [index] of [p], inside
   [lo, hi] with no other root of [p] there. *)
type enclosed = { e_p : QP.t; e_lo : float; e_hi : float; e_index : int }

let show_enclosed e =
  Printf.sprintf "root %d of %s in [%h, %h]" e.e_index (QP.to_string e.e_p) e.e_lo e.e_hi

(* The certified corpus's roots in enclosures of relative width 1e-9,
   and quadratics with dyadic roots whose enclosure has the root as an
   endpoint or as its midpoint (every value here is an exact float). *)
let gen_enclosed =
  let open QCheck.Gen in
  let corpus = Array.of_list (certified_corpus ()) in
  let from_corpus =
    map2
      (fun k index ->
        let p, estimates = corpus.(k) in
        let r = List.nth estimates index in
        let w = 1e-9 *. (1. +. Float.abs r) in
        { e_p = p; e_lo = r -. w; e_hi = r +. w; e_index = index })
      (int_bound (Array.length corpus - 1)) (int_bound 1)
  in
  let dyadic =
    map3
      (fun (k0, gap, j) (a_num, a_den, index) shape ->
        let scale = Float.ldexp 1.0 (- j) in
        let r0 = float_of_int k0 *. scale and r1 = float_of_int (k0 + gap) *. scale in
        let p = QP.scale (Q.of_ints a_num a_den) (quad_of_roots (Q.of_float r0) (Q.of_float r1)) in
        let r = if index = 0 then r0 else r1 and w = float_of_int gap *. scale /. 4. in
        let lo, hi = match shape with 0 -> (r, r +. w) | 1 -> (r -. w, r) | _ -> (r -. w, r +. w) in
        { e_p = p; e_lo = lo; e_hi = hi; e_index = index })
      (triple (int_range (-5000) 5000) (int_range 1 300) (int_range 0 30))
      (triple (oneofl [ -7; -1; 1; 3; 12 ]) (int_range 1 9) (int_bound 1))
      (int_bound 2)
  in
  QCheck.make ~print:show_enclosed (frequency [ (1, from_corpus); (1, dyadic) ])

(* Built on demand, a root equals the one built eagerly by the endpoint
   certificate (or, when that fails, by root isolation): same value, same
   canonical bytes, same nearest float. *)
let test_deferred_root_prop =
  prop ~count:1000 "deferred root = eagerly certified root" gen_enclosed (fun e ->
      let x = Alg.root_of_enclosure e.e_p ~lo:(Q.of_float e.e_lo) ~hi:(Q.of_float e.e_hi) ~index:e.e_index in
      let eager =
        match certify e.e_p e.e_lo e.e_hi with
        | Some (y, _, _) -> y
        | None -> List.nth (Alg.roots e.e_p) e.e_index
      in
      let text v = Format.asprintf "%a" Alg.pp v in
      Alg.compare x eager = 0
      && Alg.compare x (List.nth (Alg.roots e.e_p) e.e_index) = 0
      && text x = text eager
      && Int64.equal (Int64.bits_of_float (Alg.to_float x)) (Int64.bits_of_float (Alg.to_float eager))
      && Alg.well_formed x)

(* An endpoint that is the root itself fails the sign certificate, and
   root isolation names it: (t - 1)(t - 3) in [1, 3/2] and [5/2, 3]. *)
let test_deferred_root_at_endpoint () =
  let p = quad_of_roots (q 1) (q 3) in
  let at lo hi index = Alg.root_of_enclosure p ~lo ~hi ~index in
  List.iter
    (fun (what, x, v) ->
      Alcotest.(check int) (what ^ ": value") 0 (Alg.compare x (Alg.of_int v));
      Alcotest.(check string) (what ^ ": bytes") (string_of_int v) (Format.asprintf "%a" Alg.pp x);
      Alcotest.(check bool) (what ^ ": well formed") true (Alg.well_formed x))
    [ ("left end", at (q 1) (Q.of_ints 3 2) 0, 1); ("right end", at (Q.of_ints 5 2) (q 3) 1, 3) ]

(* The sign a root stores for its left end stays the sign there through
   every way its interval moves: comparisons, float rounding and
   canonical printing. *)
let test_stored_sign_invariant () =
  let st = Random.State.make [| 11 |] in
  let xs = List.map snd (refine_corpus ()) in
  let arr = Array.of_list xs in
  for _ = 1 to 3000 do
    let x = arr.(Random.State.int st (Array.length arr)) in
    (match Random.State.int st 4 with
     | 0 -> ignore (Alg.compare x arr.(Random.State.int st (Array.length arr)))
     | 1 -> ignore (Alg.to_float x)
     | 2 -> ignore (Format.asprintf "%a" Alg.pp x)
     | _ ->
       let lo, hi = Alg.bounds x in
       let r = Q.add lo (Q.mul (Q.sub hi lo) (Q.of_ints (Random.State.int st 1000) 1000)) in
       ignore (Alg.compare x (Alg.of_rat r)));
    if not (Alg.well_formed x) then
      Alcotest.failf "stored sign went stale at %a" Alg.pp x
  done;
  List.iter (fun x -> Alcotest.(check bool) "well formed" true (Alg.well_formed x)) xs

(* Printing through the memo, from cold and after other polynomials
   took its slots over, matches the memo-free reference: the corpus has
   more distinct polynomials than the memo keeps, roots whose interval
   meets several cells, and rational roots. *)
let test_pp_memo_evicts () =
  let corpus = refine_corpus () in
  let distinct = List.sort_uniq compare (List.map (fun (p, _) -> QP.to_string p) corpus) in
  Alcotest.(check bool) "more polynomials than slots" true
    (List.length distinct > 2 * Alg.text_memo_bound);
  let want = List.map (fun (p, x) -> reference_pp p x) corpus in
  let print () = List.map (fun (_, x) -> Format.asprintf "%a" Alg.pp x) corpus in
  Alcotest.(check (list string)) "first pass" want (print ());
  Alcotest.(check (list string)) "second pass, after eviction" want (print ());
  Alcotest.(check (list string)) "reversed, warm slots first" (List.rev want)
    (List.rev_map (fun (_, x) -> Format.asprintf "%a" Alg.pp x) corpus)

(* Two systhreads print the same roots at once: no exception (a shared
   [Lazy] would raise here on OCaml 5) and both see the canonical text. *)
let test_pp_two_threads () =
  let corpus = refine_corpus () in
  let want = List.map (fun (p, x) -> reference_pp p x) corpus in
  let failure = ref None in
  let worker () =
    try
      for _ = 1 to 5 do
        let got = List.map (fun (_, x) -> Format.asprintf "%a" Alg.pp x) corpus in
        if got <> want then failure := Some "text differs"
      done
    with e -> failure := Some (Printexc.to_string e)
  in
  let ts = List.init 2 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join ts;
  Alcotest.(check (option string)) "no failure" None !failure

(* ------------------------------------------------------------------ *)
(* Closed-form cells of quadratic roots against the Sturm path         *)
(* ------------------------------------------------------------------ *)

let pow2 n = Q.of_bigint (Z.shift_left Z.one n)

(* Seeded quadratics by family.  [closed] families have irrational roots
   in distinct cells of the canonical level, which the closed form
   should mostly certify; the others must all go to Sturm isolation. *)
let quadratic_families () =
  let st = Random.State.make [| 20261019 |] in
  let int a b = a + Random.State.int st (b - a + 1) in
  let rq num den = Q.of_ints (int (- num) num) (int 1 den) in
  let neg_q num den = Q.of_ints (- (int 1 num)) (int 1 den) in
  let monic = List.init 120 (fun _ -> QP.of_list [ neg_q 5000 40; rq 400 30; Q.one ]) in
  let non_monic =
    List.init 80 (fun _ ->
        let a = Q.of_ints (int 1 50 * if Random.State.bool st then 1 else -1) (int 1 9) in
        QP.scale a (QP.of_list [ neg_q 5000 40; rq 400 30; Q.one ]))
  in
  (* denominators far past one limb: float dyadics and large primes *)
  let big_dens =
    List.init 60 (fun i ->
        let c =
          if i mod 2 = 0 then Q.of_float (-. Random.State.float st 1e4 -. 1e-3)
          else Q.div (q (- int 1 1_000_000)) (Q.of_string "1000000000000000000000000000057")
        in
        let b =
          if i mod 3 = 0 then Q.of_float (Random.State.float st 200. -. 100.)
          else Q.div (q (int (-1_000_000) 1_000_000)) (q 999_999_937)
        in
        QP.of_list [ c; b; Q.one ])
  in
  (* (t + R)^2 - e: both roots near -R, with R up to 10^9, so B ~ R^2
     and the cell index outgrows a float's integers *)
  let far_negative =
    List.init 60 (fun i ->
        let r = q (int 10 1000 * (if i mod 2 = 0 then 1 else 1_000_000)) in
        let e = q ((2 * int 1 500) + 1) in
        let e = if Z.is_square (Q.num e) then Q.add e Q.one else e in
        QP.of_list [ Q.sub (Q.mul r r) e; Q.mul (q 2) r; Q.one ])
  in
  (* a root within far less than an ulp of a canonical cell boundary k w,
     w = B / 2^(L-1): |c| < |b| pins B = 1 + |b|, so c is chosen last, to
     put p(g) = +-delta at a grid point g near 0.3; the root near g is the
     smaller for b < 0 and the larger for b > 0 *)
  let boundary =
    List.init 80 (fun i ->
        let b = q (int 4 40 * if i mod 2 = 0 then -1 else 1) in
        let bound = Q.add Q.one (Q.abs b) in
        let l = Z.num_bits (Q.floor (Q.mul bound (pow2 41))) in
        let w = Q.div bound (pow2 (l - 1)) in
        let k = Q.floor (Q.div (Q.of_ints (int 50 600) 1000) w) in
        let g = Q.mul (Q.of_bigint k) w in
        let delta = Q.div (q (((2 * int 0 1000) + 1) * if i mod 4 < 2 then 1 else -1)) (pow2 (int 70 100)) in
        QP.of_list [ Q.add (Q.neg (Q.add (Q.mul g g) (Q.mul b g))) delta; b; Q.one ])
  in
  let rational =
    List.init 40 (fun _ ->
        let r = rq 500 20 in
        QP.scale (Q.of_ints (int 1 9) (int 1 5)) (quad_of_roots r (Q.add r (Q.of_ints (int 1 99) (int 1 7)))))
  in
  (* (t - r)^2 - e with e = odd / 2^odd below 2^-86: two irrational
     roots within 2^-43 of each other, kept when isolation had to go
     below 2^-40 to part them (no grid point of the canonical level lies
     between them) *)
  let near_double =
    List.init 60 (fun _ ->
        let r = rq 100 9 in
        let e = Q.div (q ((2 * int 0 500) + 1)) (pow2 ((2 * int 48 60) + 1)) in
        QP.of_list [ Q.sub (Q.mul r r) e; Q.mul (q (-2)) r; Q.one ])
    |> List.filter (fun p ->
           let lo, hi = Alg.bounds (List.hd (Alg.roots p)) in
           Q.compare (Q.sub hi lo) w40 < 0)
  in
  [ ("monic", true, monic); ("non-monic", true, non_monic); ("large denominators", true, big_dens);
    ("negative, large B", false, far_negative); ("cell boundary", true, boundary);
    ("rational roots", false, rational); ("near-double roots", false, near_double) ]

(* Both roots of every family member print as the Sturm path prints
   them, as numbers and by (polynomial, index); the closed form covers
   at least 9 in 10 polynomials of the [closed] families, and no
   polynomial with rational or near-double roots. *)
let test_closed_form_texts () =
  List.iter
    (fun (family, closed, ps) ->
      Alg.reset_print_stats ();
      List.iter
        (fun p ->
          let sf = QP.squarefree p in
          let want = List.map Alg.sturm_to_string (Alg.roots p) in
          let by_index = List.mapi (fun i _ -> Alg.root_to_string sf i) want in
          let by_number = List.map Alg.to_string (Alg.roots p) in
          if by_index <> want || by_number <> want then
            Alcotest.failf "%s: roots of %s print as [%s] by index and [%s] as numbers, not [%s]"
              family (QP.to_string p) (String.concat "; " by_index)
              (String.concat "; " by_number) (String.concat "; " want))
        ps;
      let s = Alg.print_stats () in
      Printf.printf "%s: %d polynomials, %d isolated\n" family s.Alg.polys s.Alg.isolations;
      Alcotest.(check bool) (family ^ ": polynomials printed") true (s.Alg.polys >= 20);
      if closed then begin
        if 10 * s.Alg.isolations > s.Alg.polys then
          Alcotest.failf "%s: %d of %d polynomials isolated" family s.Alg.isolations s.Alg.polys
      end
      else if family <> "negative, large B" then
        Alcotest.(check int) (family ^ ": every polynomial isolated") s.Alg.polys s.Alg.isolations)
    (quadratic_families ())

let () =
  Alcotest.run "poly"
    [ ("ring", [
        Alcotest.test_case "eval" `Quick test_eval;
        Alcotest.test_case "degree/normalization" `Quick test_degree_normalization;
        Alcotest.test_case "arith" `Quick test_arith;
        Alcotest.test_case "derivative" `Quick test_derivative;
        Alcotest.test_case "compose/shift" `Quick test_compose;
        Alcotest.test_case "divmod" `Quick test_divmod;
        Alcotest.test_case "gcd" `Quick test_gcd;
        Alcotest.test_case "squarefree" `Quick test_squarefree;
        Alcotest.test_case "sign_jet" `Quick test_sign_jet;
        Alcotest.test_case "infinity signs" `Quick test_infinity_signs;
      ]);
      ("ring-props", poly_props);
      ("sturm", [
        Alcotest.test_case "counts" `Quick test_sturm_counts;
        Alcotest.test_case "no real roots" `Quick test_sturm_no_real_roots;
        Alcotest.test_case "multiple roots" `Quick test_sturm_multiple_roots;
        Alcotest.test_case "isolate sqrt2" `Quick test_isolate_sqrt2;
        Alcotest.test_case "rational among irrational" `Quick test_isolate_rational_root;
        Alcotest.test_case "close roots separated" `Quick test_isolate_close_roots;
        Alcotest.test_case "first_root_after" `Quick test_first_root_after;
      ]);
      ("algnum", [
        Alcotest.test_case "equal across defining polys" `Quick test_alg_compare_equal_different_polys;
        Alcotest.test_case "order" `Quick test_alg_order;
        Alcotest.test_case "sign_of_poly_at" `Quick test_alg_sign_of_poly;
        Alcotest.test_case "rational_between" `Quick test_rational_between;
        Alcotest.test_case "to_rat" `Quick test_alg_to_rat;
      ]);
      ("canonical", [
        Alcotest.test_case "refine_until_width = bisection loop" `Quick test_refine_matches_loop;
        Alcotest.test_case "refine narrowed or rational roots" `Quick test_refine_already_narrow;
        Alcotest.test_case "pp = compare-picked bisection" `Quick test_pp_matches_reference;
        Alcotest.test_case "pp prints rational roots as values" `Quick test_pp_rational_roots;
      ]);
      ("kernel", [
        test_sign_at_prop;
        Alcotest.test_case "sign_at at a root, zero, constant" `Quick test_sign_at_zero;
        Alcotest.test_case "certified root = checked root" `Quick test_certified_quadratics;
        test_deferred_root_prop;
        Alcotest.test_case "deferred root at an enclosure endpoint" `Quick
          test_deferred_root_at_endpoint;
        Alcotest.test_case "stored sign at lo stays true" `Quick test_stored_sign_invariant;
        Alcotest.test_case "pp memo = reference across eviction" `Quick test_pp_memo_evicts;
        Alcotest.test_case "pp from two threads" `Quick test_pp_two_threads;
        Alcotest.test_case "closed-form text = Sturm text" `Quick test_closed_form_texts;
      ]);
      ("algnum-props", alg_props);
      ("shadow", [
        Alcotest.test_case "coefficient enclosures" `Quick test_coefficient_enclosures;
      ]);
      ("froots", [
        Alcotest.test_case "quadratic" `Quick test_froots_quadratic;
        Alcotest.test_case "cancellation-stable" `Quick test_froots_cancellation;
        Alcotest.test_case "quartic" `Quick test_froots_quartic;
        Alcotest.test_case "first after" `Quick test_froots_first_after;
      ]);
      ("piecewise", [
        Alcotest.test_case "eval" `Quick test_piecewise_eval;
        Alcotest.test_case "combine/sub" `Quick test_piecewise_combine;
        Alcotest.test_case "compose affine" `Quick test_piecewise_compose_affine;
        Alcotest.test_case "extend (chdir)" `Quick test_piecewise_extend;
        Alcotest.test_case "clip" `Quick test_piecewise_clip;
      ]);
    ]
