(* Soundness properties for outward-rounded float intervals.

   Every operation must produce an interval that contains the exact
   rational result — checked with [Fintval.contains_rat], which compares
   the exact value against the endpoints via [Rat.of_float] and so does
   not itself round.  Certainty claims ([sign], [compare_certain]) are
   checked against exact rational arithmetic: whenever the interval
   commits to an answer, the answer must be right. *)

module Q = Moq_numeric.Rat
module IV = Moq_numeric.Fintval

let prop ?(count = 1000) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* Rationals with awkward denominators: p/q scaled by 2^-k so many values
   are not exactly representable as floats. *)
let arb_rat =
  QCheck.map
    (fun (p, qd, k) ->
      let qd = if qd = 0 then 1 else qd in
      Q.div (Q.of_ints p qd) (Q.of_bigint (Moq_numeric.Bigint.shift_left Moq_numeric.Bigint.one k)))
    (QCheck.triple
       (QCheck.int_range (-1_000_000_000) 1_000_000_000)
       (QCheck.int_range 1 1_000_000)
       (QCheck.int_range 0 40))

let arb_rat2 = QCheck.pair arb_rat arb_rat

let iv = IV.of_rat

let soundness_props =
  [ prop "of_rat contains" arb_rat (fun a -> IV.contains_rat (iv a) a);
    prop "neg sound" arb_rat (fun a -> IV.contains_rat (IV.neg (iv a)) (Q.neg a));
    prop "add sound" arb_rat2 (fun (a, b) ->
        IV.contains_rat (IV.add (iv a) (iv b)) (Q.add a b));
    prop "sub sound" arb_rat2 (fun (a, b) ->
        IV.contains_rat (IV.sub (iv a) (iv b)) (Q.sub a b));
    prop "mul sound" arb_rat2 (fun (a, b) ->
        IV.contains_rat (IV.mul (iv a) (iv b)) (Q.mul a b));
    prop "div sound" arb_rat2 (fun (a, b) ->
        QCheck.assume (not (Q.is_zero b));
        IV.contains_rat (IV.div (iv a) (iv b)) (Q.div a b));
    prop "sqrt sound (square root in interval of square)" arb_rat (fun a ->
        (* √(a²) = |a| must lie in sqrt of an enclosure of a². *)
        let sq = Q.mul a a in
        let s = IV.sqrt (IV.mul (iv a) (iv a)) in
        (* |a| ∈ s ⟹ a² ∈ s·s; check the latter, which only needs
           rational arithmetic. *)
        IV.contains_rat (IV.mul s s) sq);
    prop "sign certain ⟹ correct" arb_rat (fun a ->
        match IV.sign (iv a) with Some s -> s = Q.sign a | None -> true);
    prop "sign decides points" arb_rat (fun a ->
        (* A width-respecting filter: an interval built from one rational
           either knows the sign or straddles zero. *)
        match IV.sign (iv a) with
        | Some _ -> true
        | None -> IV.contains_zero (iv a));
    prop "compare certain ⟹ correct" arb_rat2 (fun (a, b) ->
        match IV.compare_certain (iv a) (iv b) with
        | Some c -> c = Q.compare a b
        | None -> true);
    prop "eval sound" (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 0 6) arb_rat) arb_rat)
      (fun (cs, x) ->
        let exact =
          List.fold_right (fun c acc -> Q.add c (Q.mul x acc)) cs Q.zero
        in
        let flat = Array.make (2 * List.length cs) 0.0 in
        List.iteri (fun j c -> IV.of_rat_into flat (2 * j) c) cs;
        IV.contains_rat (IV.horner flat 0 (List.length cs) (iv x)) exact);
    prop "of_rat_bounds contains both" arb_rat2 (fun (a, b) ->
        let lo = Q.min a b and hi = Q.max a b in
        let v = IV.of_rat_bounds lo hi in
        IV.contains_rat v lo && IV.contains_rat v hi);
  ]

(* [mul], [div], [add] and [sub] as written with [Float.min]/[Float.max]
   and the NaN-testing outward steps, on endpoint pairs: the current
   operations must give the same bounds bit for bit. *)
module Old = struct
  let down f = if f = neg_infinity || Float.is_nan f then neg_infinity else Float.pred f
  let up f = if f = infinity || Float.is_nan f then infinity else Float.succ f

  let make_out l h =
    if Float.is_nan l || Float.is_nan h then (neg_infinity, infinity) else (down l, up h)

  let hull x1 x2 x3 x4 =
    if Float.is_nan x1 || Float.is_nan x2 || Float.is_nan x3 || Float.is_nan x4 then
      (neg_infinity, infinity)
    else
      make_out
        (Float.min (Float.min x1 x2) (Float.min x3 x4))
        (Float.max (Float.max x1 x2) (Float.max x3 x4))

  let mul (al, ah) (bl, bh) = hull (al *. bl) (al *. bh) (ah *. bl) (ah *. bh)

  let div (al, ah) (bl, bh) =
    if bl <= 0.0 && 0.0 <= bh then (neg_infinity, infinity)
    else hull (al /. bl) (al /. bh) (ah /. bl) (ah /. bh)

  let add (al, ah) (bl, bh) = make_out (al +. bl) (ah +. bh)
  let sub (al, ah) (bl, bh) = make_out (al -. bh) (ah -. bl)
end

(* Signed zeros, infinities, subnormals, the ends of the normal range, and
   ordinary values. *)
let specials =
  [ 0.0; -0.0; infinity; neg_infinity; Float.succ 0.0; Float.pred 0.0; 1e-310; -3e-320;
    Float.min_float; -.Float.min_float; Float.max_float; -.Float.max_float; 1.0; -1.0;
    0.1; -2.5; 3.0; 1e300; -1e-300; nan ]

(* Intervals through the public constructors only: points and one-rounding
   enclosures of any float; exact finite bounds ([of_rat_bounds] is exact
   on floats); their negations (which put -0 at an end); and half-infinite
   ones from a quotient by an interval reaching the smallest subnormal. *)
let gen_interval =
  let open QCheck.Gen in
  let f = frequency [ (3, oneofl specials); (2, float) ] in
  let bounds a b =
    if Float.is_finite a && Float.is_finite b then
      IV.of_rat_bounds (Q.of_float (Float.min a b)) (Q.of_float (Float.max a b))
    else IV.top
  in
  let above = IV.div (IV.point 1.0) (IV.of_rat_bounds (Q.of_float (Float.succ 0.0)) Q.one) in
  frequency
    [ (2, map IV.point f);
      (1, map IV.of_float f);
      (3, map2 bounds f f);
      (2, map2 (fun a b -> IV.neg (bounds a b)) f f);
      (1, map2 (fun a b -> IV.add (bounds a b) above) f f);
      (1, map2 (fun a b -> IV.neg (IV.add (bounds a b) above)) f f);
      (1, return IV.top) ]

let arb_interval2 =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "%a %a" IV.pp a IV.pp b)
    (QCheck.Gen.pair gen_interval gen_interval)

let arb_interval3 =
  QCheck.make
    ~print:(fun (a, b, c) -> Format.asprintf "%a %a %a" IV.pp a IV.pp b IV.pp c)
    (QCheck.Gen.triple gen_interval gen_interval gen_interval)

(* Small integers and dyadics (exact doubles), thirds and other ratios
   of small integers, and numerators or denominators past 2^53. *)
let arb_any_rat =
  let open QCheck.Gen in
  let small = int_range (-1_000_000) 1_000_000 in
  let big = map (fun k -> Q.of_bigint (Moq_numeric.Bigint.shift_left Moq_numeric.Bigint.one k)) (int_range 53 80) in
  QCheck.make ~print:Q.to_string
    (frequency
       [ (2, map Q.of_int small);
         (2, map2 (fun p k -> Q.of_ints p (1 lsl k)) small (int_range 0 30));
         (3, map2 (fun p d -> Q.of_ints p (1 + abs d)) small small);
         (1, map2 (fun b p -> Q.add b (Q.of_int p)) big small);
         (1, map2 (fun b p -> Q.div (Q.of_int (1 + abs p)) (Q.add b Q.one)) big small) ])

let same_bits v (l, h) =
  Int64.equal (Int64.bits_of_float (IV.lo v)) (Int64.bits_of_float l)
  && Int64.equal (Int64.bits_of_float (IV.hi v)) (Int64.bits_of_float h)

let ends v = (IV.lo v, IV.hi v)

let bitwise_props =
  let op name f old =
    prop ~count:3000 (name ^ " = Float.min/max formula, bit for bit") arb_interval2
      (fun (a, b) -> same_bits (f a b) (old (ends a) (ends b)))
  in
  [ op "mul" IV.mul Old.mul; op "div" IV.div Old.div; op "add" IV.add Old.add;
    op "sub" IV.sub Old.sub ]
  @ [ prop ~count:3000 "of_rat_into = of_rat, bit for bit" arb_any_rat (fun q ->
          let v = Array.make 3 nan in
          IV.of_rat_into v 1 q;
          same_bits (IV.of_rat q) (v.(1), v.(2)));
      prop ~count:3000 "affine_into = add (mul a t) b, bit for bit" arb_interval3 (fun (a, t, b) ->
          let v = [| IV.lo a; IV.hi a; IV.lo t; IV.hi t; IV.lo b; IV.hi b; nan; nan |] in
          IV.affine_into v 6 ~a:0 ~t:2 ~b:4;
          same_bits (IV.add (IV.mul a t) b) (v.(6), v.(7)));
    ]

let test_top_and_div_by_straddler () =
  Alcotest.(check bool) "top contains everything" true
    (IV.contains_rat IV.top (Q.of_ints 355 113));
  let straddler = IV.of_rat_bounds (Q.of_int (-1)) Q.one in
  let d = IV.div (IV.of_rat Q.one) straddler in
  Alcotest.(check bool) "div by straddler is top" true
    (IV.contains_rat d (Q.of_int 1_000_000_000));
  Alcotest.(check bool) "straddler sign unknown" true (IV.sign straddler = None)

let test_sqrt_negative () =
  Alcotest.check_raises "sqrt of negative interval"
    (Invalid_argument "Fintval.sqrt: negative interval") (fun () ->
      ignore (IV.sqrt (IV.of_rat (Q.of_int (-4)))))

let test_exact_point_arithmetic () =
  (* Small integers are exact floats; [point]-based arithmetic on them
     that stays exact must still enclose (and sign must resolve). *)
  let two = IV.of_int 2 and three = IV.of_int 3 in
  Alcotest.(check bool) "2*3 contains 6" true (IV.contains_rat (IV.mul two three) (Q.of_int 6));
  Alcotest.(check (option int)) "2 < 3 certain" (Some (-1)) (IV.compare_certain two three);
  Alcotest.(check (option int)) "sign of -2" (Some (-1)) (IV.sign (IV.of_int (-2)))

let () =
  Alcotest.run "fintval"
    [ ("soundness-props", soundness_props);
      ("bitwise-props", bitwise_props);
      ( "units",
        [ Alcotest.test_case "top / div straddling zero" `Quick test_top_and_div_by_straddler;
          Alcotest.test_case "sqrt negative raises" `Quick test_sqrt_negative;
          Alcotest.test_case "exact points" `Quick test_exact_point_arithmetic;
        ] );
    ]
