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

module Shadow = Moq_poly.Shadow
module IV = Moq_numeric.Fintval

(* Ten times the memo's bound of distinct polynomials, with coefficients
   no float represents exactly: the memo keeps at most its bound, and
   whatever a lookup returns (fresh, memoized, or after its slot was
   taken over) encloses that polynomial's own coefficients. *)
let test_shadow_memo_bound () =
  let n = 10 * Shadow.bound in
  let ps =
    List.init n (fun i ->
        QP.of_list
          [ Q.of_ints (i + 1) 7; Q.of_ints (-(i * i) - 1) 13; Q.add (q i) (Q.of_ints 1 3) ])
  in
  let encloses p =
    let s = Array.init (QP.degree p + 1) (Shadow.coeff p) in
    List.for_all2
      (fun c iv ->
        Q.compare (Q.of_float (IV.lo iv)) c <= 0 && Q.compare c (Q.of_float (IV.hi iv)) <= 0)
      (QP.to_list p) (Array.to_list s)
  in
  List.iteri
    (fun i p ->
      if not (encloses p) then Alcotest.failf "shadow %d does not enclose its polynomial" i;
      Alcotest.(check bool) "retained within the bound" true (Shadow.retained () <= Shadow.bound))
    ps;
  Alcotest.(check bool) "every earlier shadow still encloses" true (List.for_all encloses ps);
  Alcotest.(check bool) "the memo is in use" true (Shadow.retained () > 0)

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

(* What [Alg.pp] printed when it picked the canonical root by exact
   [compare] and refined it with the loop above.  [p] is the polynomial
   [x] was made from. *)
let reference_pp p x =
  let sf = QP.squarefree p in
  let fresh = List.map (fun c -> (c, Alg.bounds c)) (Alg.roots p) in
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
      ]);
      ("algnum-props", alg_props);
      ("shadow", [
        Alcotest.test_case "memo bound" `Quick test_shadow_memo_bound;
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
