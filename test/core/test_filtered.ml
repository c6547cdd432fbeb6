(* Filtered backend ≡ Exact backend, on hundreds of seeded workloads.

   The filtered backend answers from float intervals when they are
   conclusive and falls back to exact arithmetic otherwise, so its event
   sequence, final order and support sets must be bit-identical to the
   exact backend's — including on the engineered tangency, near-tangency
   and simultaneous-crossing workloads where a bare float backend guesses
   wrong.  Also checks the filter's own accounting: hits + misses equals
   the number of filtered decisions. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module Oid = Moq_mod.Oid
module A = Moq_poly.Algnum
module Core = Moq_core
module BX = Core.Backend.Exact
module BFl = Core.Backend.Filtered
module KnnX = Core.Knn.Make (BX)
module KnnFl = Core.Knn.Make (BFl)
module Gdist = Core.Gdist
module Gen = Moq_workload.Gen
module Sink = Moq_obs.Sink
module Registry = Moq_obs.Registry

let q = Q.of_int
let origin dim = T.linear ~start:(q 0) ~a:(Qvec.zero dim) ~b:(Qvec.zero dim)

(* Normalized timeline pieces, instants as exact algebraic numbers. *)
type npiece =
  | NSpan of A.t * A.t * int list
  | NAt of A.t * int list

let norm_exact (tl : KnnX.TL.t) =
  List.map
    (function
      | KnnX.TL.Span (a, b, s) -> NSpan (a, b, Oid.Set.elements s)
      | KnnX.TL.At (a, s) -> NAt (a, Oid.Set.elements s))
    tl

let norm_filtered (tl : KnnFl.TL.t) =
  List.map
    (function
      | KnnFl.TL.Span (a, b, s) ->
        NSpan (BFl.to_algnum a, BFl.to_algnum b, Oid.Set.elements s)
      | KnnFl.TL.At (a, s) -> NAt (BFl.to_algnum a, Oid.Set.elements s))
    tl

let npiece_equal p p' =
  match p, p' with
  | NSpan (a, b, s), NSpan (a', b', s') ->
    A.compare a a' = 0 && A.compare b b' = 0 && s = s'
  | NAt (a, s), NAt (a', s') -> A.compare a a' = 0 && s = s'
  | _ -> false

let pp_npiece fmt = function
  | NSpan (a, b, s) ->
    Format.fprintf fmt "span(%a,%a):{%a}" A.pp a A.pp b
      Format.(pp_print_list ~pp_sep:(fun f () -> pp_print_string f ",") pp_print_int)
      s
  | NAt (a, s) ->
    Format.fprintf fmt "at(%a):{%a}" A.pp a
      Format.(pp_print_list ~pp_sep:(fun f () -> pp_print_string f ",") pp_print_int)
      s

(* One workload, checked end to end: timelines (event sequence + support
   sets per span/instant), sweep statistics, and the final engine order. *)
let check_workload name ~db ~gdist ~k ~lo ~hi =
  let rx = KnnX.run_obs ~sink:Sink.noop ~db ~gdist ~k ~lo ~hi in
  let rf = KnnFl.run_obs ~sink:Sink.noop ~db ~gdist ~k ~lo ~hi in
  let nx = norm_exact rx.KnnX.timeline and nf = norm_filtered rf.KnnFl.timeline in
  if List.length nx <> List.length nf then
    Alcotest.failf "%s: piece counts differ (exact %d, filtered %d)" name (List.length nx)
      (List.length nf);
  List.iteri
    (fun i (px, pf) ->
      if not (npiece_equal px pf) then
        Alcotest.failf "%s: piece %d differs: exact %a, filtered %a" name i pp_npiece px
          pp_npiece pf)
    (List.combine nx nf);
  let sx = rx.KnnX.stats and sf = rf.KnnFl.stats in
  if
    sx.KnnX.E.crossings <> sf.KnnFl.E.crossings
    || sx.KnnX.E.swaps <> sf.KnnFl.E.swaps
    || sx.KnnX.E.births <> sf.KnnFl.E.births
    || sx.KnnX.E.deaths <> sf.KnnFl.E.deaths
    || sx.KnnX.E.batches <> sf.KnnFl.E.batches
  then
    Alcotest.failf "%s: sweep stats differ (exact %d/%d/%d/%d/%d, filtered %d/%d/%d/%d/%d)"
      name sx.KnnX.E.crossings sx.KnnX.E.swaps sx.KnnX.E.births sx.KnnX.E.deaths
      sx.KnnX.E.batches sf.KnnFl.E.crossings sf.KnnFl.E.swaps sf.KnnFl.E.births
      sf.KnnFl.E.deaths sf.KnnFl.E.batches;
  (* Final order via fresh engines advanced to the horizon. *)
  let engx = KnnX.engine ~db ~gdist ~lo ~hi () in
  KnnX.E.advance engx ~upto:hi ~emit:(fun _ -> ());
  let engf = KnnFl.engine ~db ~gdist ~lo ~hi () in
  KnnFl.E.advance engf ~upto:hi ~emit:(fun _ -> ());
  let ox =
    List.map (fun e -> Format.asprintf "%a" KnnX.E.pp_label (KnnX.E.label e)) (KnnX.E.order engx)
  in
  let off =
    List.map
      (fun e -> Format.asprintf "%a" KnnFl.E.pp_label (KnnFl.E.label e))
      (KnnFl.E.order engf)
  in
  Alcotest.(check (list string)) (name ^ ": final order") ox off

let euclid_origin = Gdist.euclidean_sq ~gamma:(origin 2)
let coord0 = Gdist.coordinate 0

(* >= 200 seeded workloads across four families; counter bookkeeping is
   asserted over the whole batch. *)
let test_filtered_equals_exact () =
  BFl.reset_filter_stats ();
  for seed = 1 to 100 do
    let db = Gen.inversions_db ~seed ~n:8 ~inversions:16 ~horizon:(q 50) in
    check_workload
      (Printf.sprintf "inversions seed %d" seed)
      ~db ~gdist:coord0 ~k:2 ~lo:(q 0) ~hi:(q 50)
  done;
  for seed = 1 to 60 do
    let db = Gen.uniform_db ~seed ~n:6 ~dim:2 ~extent:40 ~speed:4 () in
    check_workload
      (Printf.sprintf "uniform seed %d" seed)
      ~db ~gdist:euclid_origin ~k:2 ~lo:(q 0) ~hi:(q 25)
  done;
  for seed = 1 to 20 do
    let db = Gen.tangency_db ~seed ~n:8 () in
    check_workload
      (Printf.sprintf "tangency seed %d" seed)
      ~db ~gdist:euclid_origin ~k:3 ~lo:(q 0) ~hi:(q 20)
  done;
  for seed = 1 to 20 do
    let db = Gen.pencil_db ~seed ~n:7 ~at:(q 5) () in
    check_workload
      (Printf.sprintf "pencil seed %d" seed)
      ~db ~gdist:coord0 ~k:2 ~lo:(q 0) ~hi:(q 10)
  done;
  let s = BFl.filter_stats () in
  Alcotest.(check int) "hits + misses = decisions" s.BFl.decisions (s.BFl.hits + s.BFl.misses);
  Alcotest.(check bool) "made decisions" true (s.BFl.decisions > 0);
  Alcotest.(check bool) "some hits" true (s.BFl.hits > 0);
  Alcotest.(check bool) "some misses (degenerate cases fell back)" true (s.BFl.misses > 0)

(* The counters survive the sink round-trip with the documented names. *)
let test_publish () =
  BFl.reset_filter_stats ();
  let db = Gen.uniform_db ~seed:7 ~n:5 ~dim:2 ~extent:30 ~speed:3 () in
  let (_ : KnnFl.result) =
    KnnFl.run_obs ~sink:Sink.noop ~db ~gdist:euclid_origin ~k:2 ~lo:(q 0) ~hi:(q 20)
  in
  let reg = Registry.create () in
  let sink = Sink.of_registry reg in
  BFl.publish sink;
  let s = BFl.filter_stats () in
  Alcotest.(check (option int)) "hit counter" (Some s.BFl.hits)
    (Registry.counter_value reg "moq_filter_hit");
  Alcotest.(check (option int)) "miss counter" (Some s.BFl.misses)
    (Registry.counter_value reg "moq_filter_miss");
  Alcotest.(check bool) "fallback_ns present" true
    (Registry.counter_value reg "moq_filter_fallback_ns" <> None)

(* Tangency workloads must make the filter fall back: an exact tangency
   cannot be decided by outward-rounded intervals. *)
let test_tangency_forces_fallback () =
  BFl.reset_filter_stats ();
  let db = Gen.tangency_db ~seed:3 ~n:6 () in
  let (_ : KnnFl.result) =
    KnnFl.run_obs ~sink:Sink.noop ~db ~gdist:euclid_origin ~k:2 ~lo:(q 0) ~hi:(q 10)
  in
  let s = BFl.filter_stats () in
  Alcotest.(check bool) "tangencies fell back" true (s.BFl.misses > 0)

(* Both backends print the same number as the same bytes, and round it
   to the same float: the server evaluates on Filtered but must put
   Exact's instants and aggregation rows on the wire. *)
let test_pp_instant_bytes () =
  let poly cs = Moq_poly.Qpoly.of_list cs in
  let qs a b = Q.of_ints a b in
  let show pp i = Format.asprintf "%a" pp i in
  let check what ex fl =
    Alcotest.(check string) what (show BX.pp_instant ex) (show BFl.pp_instant fl);
    (* aggregation densities are sums of these floats *)
    Alcotest.(check int64) (what ^ " float bits")
      (Int64.bits_of_float (BX.instant_to_float ex))
      (Int64.bits_of_float (BFl.instant_to_float fl))
  in
  (* every root of [p] from each start, via both root entry points; the
     Filtered copy is compared against its neighbours first, so its
     enclosure has been refined before it prints *)
  let roots what p starts =
    List.iter
      (fun s ->
        let ex = BX.first_root_after p (BX.instant_of_scalar s)
        and fl = BFl.first_root_after p (BFl.instant_of_scalar s) in
        let ex' = BX.first_root_at_or_after p s
        and fl' = BFl.first_root_at_or_after p s in
        match ex, fl, ex', fl' with
        | Some ex, Some fl, Some ex', Some fl' ->
          ignore (BFl.compare_instant fl (BFl.instant_of_scalar s));
          ignore (BFl.compare_instant fl fl');
          check (what ^ " after") ex fl;
          check (what ^ " at or after") ex' fl'
        | None, None, None, None -> ()
        | _ -> Alcotest.failf "%s: backends disagree on a root" what)
      starts
  in
  let linear = poly [ qs (-133) 300; Q.one ] in
  roots "linear crossing" linear [ q 0 ];
  roots "negated linear crossing" (Moq_poly.Qpoly.neg linear) [ q 0 ];
  roots "linear crossing, scaled" (poly [ q (-7); qs 3 2 ]) [ q 0 ];
  roots "irrational quadratic" (poly [ q (-2); q 0; q 1 ]) [ q (-10); q 0 ];
  roots "irrational distance curve" (poly [ q (-11); q 3; q 2 ]) [ q (-10); q 0 ];
  (* (t - 1/3)(t - 5) *)
  roots "rational quadratic" (poly [ qs 5 3; qs (-16) 3; q 1 ]) [ q (-10); q 0; q 1 ];
  (* roots a bisection step lands on exactly, which print as rationals:
     1/3 and +-1 in the canonical refinement from the Cauchy-bound
     interval, 0 already during root isolation *)
  roots "linear root on a bisection midpoint" (poly [ qs (-1) 3; q 1 ]) [ q 0 ];
  roots "quadratic roots on bisection midpoints" (poly [ q (-1); q 0; q 1 ]) [ q (-10); q 0 ];
  roots "quadratic root isolated at a midpoint" (poly [ q 0; q (-1); q 1 ]) [ q (-10); q 0 ];
  List.iter
    (fun s ->
      check ("scalar " ^ Q.to_string s) (BX.instant_of_scalar s) (BFl.instant_of_scalar s))
    [ q 0; q (-3); qs 133 300; qs 1 2; qs (-7) 1024 ];
  (* Deferred quadratic crossings print before anything reads them
     exactly, and print without building their exact numbers: seeded
     quadratics with irrational roots (monic, scaled by positive and
     negative rationals and by floats, float-dyadic coefficients) and
     with rational roots.  Both roots: the first from below them, the
     second as the first one's successor on its own polynomial. *)
  let st = Random.State.make [| 27 |] in
  let int a b = a + Random.State.int st (b - a + 1) in
  let builds = BFl.print_builds () and deferred = ref 0 in
  for i = 0 to 199 do
    let base =
      match i mod 5 with
      | 4 ->
        (* (t - r)(t - r - k) *)
        let r = qs (int (-500) 500) (int 1 20) and k = q (int 1 9) in
        poly [ Q.mul r (Q.add r k); Q.neg (Q.add (Q.add r r) k); q 1 ]
      | 3 -> poly [ Q.of_float (-. Random.State.float st 1e4 -. 1.); Q.of_float (Random.State.float st 200. -. 100.); q 1 ]
      | _ -> poly [ qs (- int 1 50_000) (int 1 40); qs (int (-400) 400) (int 1 30); q 1 ]
    in
    let a =
      match i mod 4 with
      | 0 -> q 1
      | 1 -> qs (int 1 40) (int 1 9)
      | 2 -> qs (- int 1 40) (int 1 9)
      | _ -> Q.of_float (Random.State.float st 10. +. 0.1)
    in
    let p = Moq_poly.Qpoly.scale a base in
    let what = Printf.sprintf "deferred roots of %s" (Moq_poly.Qpoly.to_string p) in
    let s = Q.sub (A.rational_below (List.hd (A.roots p))) Q.one in
    BFl.reset_filter_stats ();
    let fl0 = Option.get (BFl.first_root_after p (BFl.instant_of_scalar s)) in
    let fl1 = Option.get (BFl.first_root_after p fl0) in
    if (BFl.filter_stats ()).BFl.misses = 0 then incr deferred;
    let got = List.map BFl.instant_to_string [ fl0; fl1 ] in
    let ex0 = Option.get (BX.first_root_after p (BX.instant_of_scalar s)) in
    let ex1 = Option.get (BX.first_root_after p ex0) in
    Alcotest.(check (list string)) what (List.map BX.instant_to_string [ ex0; ex1 ]) got;
    check (what ^ ", read") ex0 fl0;
    check (what ^ ", read") ex1 fl1
  done;
  Alcotest.(check bool) "most crossings deferred" true (!deferred >= 150);
  Alcotest.(check int) "exact builds caused by printing" builds (BFl.print_builds ())

(* The next crossing of two curves that have just crossed: [first_root_after]
   of a quadratic at one of its own roots.  With the two roots' float
   enclosures apart, the filter names the successor (the larger root, or
   none after it) without exact arithmetic, for [p] and for [-p] — the
   engine forms difference curves both ways round. *)
let test_own_root_successor () =
  let poly cs = Moq_poly.Qpoly.of_list cs in
  let neg = Moq_poly.Qpoly.neg in
  let qs a b = Q.of_ints a b in
  let show pp i = Format.asprintf "%a" pp i in
  let agree what ex fl =
    match ex, fl with
    | None, None -> ()
    | Some ex, Some fl ->
      Alcotest.(check int) (what ^ ": value") 0 (A.compare ex (BFl.to_algnum fl));
      Alcotest.(check string) (what ^ ": bytes") (show BX.pp_instant ex) (show BFl.pp_instant fl)
    | _ -> Alcotest.failf "%s: backends disagree on whether a root follows" what
  in
  (* [first_root_after p i] on Filtered beside Exact, with the filter's
     verdict: [true] when it was a hit *)
  let successor what p (fl_i : BFl.instant) =
    BFl.reset_filter_stats ();
    let fl = BFl.first_root_after p fl_i in
    let s = BFl.filter_stats () in
    Alcotest.(check int) (what ^ ": one decision") 1 s.BFl.decisions;
    agree what (BX.first_root_after p (BFl.to_algnum fl_i)) fl;
    s.BFl.hits = 1
  in
  let separated =
    [ ("irrational", poly [ q (-2); q 0; q 1 ], q (-10), q 0);
      ("irrational distance curve", poly [ q (-11); q 3; q 2 ], q (-10), q 0);
      ("rational", poly [ qs 5 3; qs (-16) 3; q 1 ], q (-10), q 1) (* (t - 1/3)(t - 5) *);
      ("far from the origin", poly [ q 1_000_001; q (-2001); q 1 ], q 0, q 1001);
      ("close roots", poly [ qs 1 100; q (-1); q 1 ], q (-1), qs 1 2) ]
  in
  List.iter
    (fun (name, p, below, between) ->
      List.iter
        (fun (made, asked) ->
          let what = Printf.sprintf "%s (%s, asked of %s)" name made asked in
          let p_made = if made = "p" then p else neg p in
          let p_asked = if asked = "p" then p else neg p in
          (* the roots as the sweep gets them: certified by the filter,
             each knowing the polynomial it is a root of *)
          let smaller = Option.get (BFl.first_root_after p_made (BFl.instant_of_scalar below)) in
          let larger = Option.get (BFl.first_root_at_or_after p_made between) in
          Alcotest.(check bool) (what ^ ": smaller -> larger is a hit") true
            (successor (what ^ " at the smaller root") p_asked smaller);
          (match BFl.first_root_after p_asked smaller with
           | Some r -> Alcotest.(check int) (what ^ ": successor") 0 (BFl.compare_instant r larger)
           | None -> Alcotest.failf "%s: no successor of the smaller root" what);
          Alcotest.(check bool) (what ^ ": larger -> none is a hit") true
            (successor (what ^ " at the larger root") p_asked larger);
          Alcotest.(check bool) (what ^ ": none after the larger root") true
            (BFl.first_root_after p_asked larger = None))
        [ ("p", "p"); ("p", "-p"); ("-p", "p"); ("-p", "-p") ])
    separated;
  (* (t - 1/3)(t - 1/3 - 2^-70): float intervals cannot tell the two
     roots apart, so both successors fall back to exact arithmetic, and
     still agree with Exact *)
  let a = qs 1 3 in
  let b = Q.add a (Q.div Q.one (Q.of_bigint (Moq_numeric.Bigint.shift_left Moq_numeric.Bigint.one 70))) in
  let near_double = poly [ Q.mul a b; Q.neg (Q.add a b); q 1 ] in
  List.iter
    (fun p ->
      let r0 = Option.get (BFl.first_root_after p (BFl.instant_of_scalar (q 0))) in
      Alcotest.(check bool) "near-double: smaller -> larger falls back" false
        (successor "near-double at the smaller root" p r0);
      let r1 = Option.get (BFl.first_root_after p r0) in
      Alcotest.(check bool) "near-double: larger -> none falls back" false
        (successor "near-double at the larger root" p r1))
    [ near_double; neg near_double ]

(* A crossing the filter proves is scheduled without exact arithmetic and
   certified on its first exact read, whichever read that is.  Against
   Exact's root: the same value, the same bytes, the same nearest float,
   over quadratics with irrational roots and with dyadic ones (an
   enclosure may end on a dyadic root), both signs, from thresholds below
   both roots and between them. *)
let test_deferred_crossing_prop =
  let gen =
    let open QCheck.Gen in
    let irrational =
      map3
        (fun c0 c1 c2 -> Moq_poly.Qpoly.of_list [ Q.of_ints (- c0) 7; Q.of_ints c1 3; Q.of_ints c2 11 ])
        (int_range 1 100_000) (int_range (-400) 400) (int_range 1 90)
    in
    let dyadic =
      map3
        (fun k0 gap j ->
          let r k = Q.div (q k) (Q.of_bigint (Moq_numeric.Bigint.shift_left Moq_numeric.Bigint.one j)) in
          let r0 = r k0 and r1 = r (k0 + gap) in
          Moq_poly.Qpoly.of_list [ Q.mul r0 r1; Q.neg (Q.add r0 r1); Q.one ])
        (int_range (-5000) 5000) (int_range 1 300) (int_range 0 30)
    in
    quad (frequency [ (1, irrational); (1, dyadic) ]) bool (int_range (-2) 1) (int_bound 2)
  in
  let print (p, neg, _, _) = (if neg then "-" else "") ^ Moq_poly.Qpoly.to_string p in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"deferred crossing = Exact's root"
       (QCheck.make ~print gen)
       (fun (p, neg, shift, first_read) ->
         let p = if neg then Moq_poly.Qpoly.neg p else p in
         let ex_roots = A.roots p in
         (* below both roots, or between them *)
         let s =
           match ex_roots with
           | [ a; b ] when shift >= 0 -> A.rational_between a b
           | a :: _ -> Q.add (A.rational_below a) (q shift)
           | [] -> q 0
         in
         let agree ex fl =
           match ex, fl with
           | None, None -> true
           | Some ex, Some fl ->
             let reads =
               [ (fun () -> A.compare ex (BFl.to_algnum fl) = 0);
                 (fun () ->
                   Format.asprintf "%a" BX.pp_instant ex = Format.asprintf "%a" BFl.pp_instant fl);
                 (fun () ->
                   Int64.equal (Int64.bits_of_float (BX.instant_to_float ex))
                     (Int64.bits_of_float (BFl.instant_to_float fl))) ]
             in
             (* start with a different read each time: each one forces *)
             let rot = List.filteri (fun i _ -> i >= first_read) reads
                       @ List.filteri (fun i _ -> i < first_read) reads in
             List.for_all (fun r -> r ()) rot
           | _ -> false
         in
         (* A root found through a polynomial entry point is tagged with
            its polynomial: read through the piece operations on views of
            [p] and zero, both ways round, before any exact read of it *)
         let curve p = BFl.PW.view (Moq_poly.Piecewise.Qpiece.of_poly ~start:(q 0) p) in
         let vp = curve p and vz = curve Moq_poly.Qpoly.zero in
         let on_pieces ex fl =
           match ex, fl with
           | Some ex, Some fl ->
             List.for_all
               (fun (va, vb, d) ->
                 BFl.diff_sign_at va 0 vb 0 fl = BX.sign_at_instant d ex
                 && BFl.diff_sign_after va 0 vb 0 fl = BX.sign_after_instant d ex
                 &&
                 match BX.first_root_after d ex, BFl.diff_root_after va 0 vb 0 fl with
                 | None, None -> true
                 | Some a, Some b -> A.compare a (BFl.to_algnum b) = 0
                 | _ -> false)
               [ (vp, vz, p); (vz, vp, Moq_poly.Qpoly.neg p) ]
           | _ -> true
         in
         let ex_after = BX.first_root_after p (A.of_rat s)
         and fl_after = BFl.first_root_after p (BFl.instant_of_scalar s)
         and ex_from = BX.first_root_at_or_after p s
         and fl_from = BFl.first_root_at_or_after p s in
         on_pieces ex_after fl_after && on_pieces ex_from fl_from
         && agree ex_after fl_after && agree ex_from fl_from))

(* ------------------------------------------------------------------ *)
(* The engine's per-instant memo: Filtered = Exact step by step          *)
(* ------------------------------------------------------------------ *)

module DB = Moq_mod.Mobdb
module U = Moq_mod.Update
module QP = Moq_poly.Qpoly
module Qpiece = Moq_poly.Piecewise.Qpiece

(* One engine under an update stream, logged at every step the sweep
   emits and after every update: the step with its instants as canonical
   text, the 2-NN answer read there, the order and the comparison count.
   The engine's invariants are checked after every update. *)
module Drive (B : Core.Backend.S) = struct
  module R = Core.Reader.Make (B)
  module E = R.E

  let labels eng = List.map (fun e -> Format.asprintf "%a" E.pp_label (E.label e)) (E.order eng)

  let run ~db ~gdist ~lo ~hi ~updates =
    let curve tr = B.curve_of_qpiece (Gdist.curve gdist tr) in
    let s = B.scalar_of_rat in
    let eng =
      E.create ~start:(s lo) ~horizon:(s hi)
        (List.map (fun (o, tr) -> (E.Obj (o, 0), curve tr)) (DB.objects db))
    in
    let log = ref [] in
    let on_step step =
      let what =
        match step with
        | E.Span (a, b) -> "span " ^ B.instant_to_string a ^ " " ^ B.instant_to_string b
        | E.Point i -> "at " ^ B.instant_to_string i
      in
      let answer = Oid.Set.elements (R.answer eng (Core.Reader.Knn 2) step) in
      log := (what, answer, labels eng, (E.stats eng).E.comparisons) :: !log
    in
    on_step (E.Point (E.now eng));
    ignore
      (List.fold_left
         (fun db u ->
           let tau = U.time u in
           if Q.compare tau hi > 0 then db
           else begin
             E.advance eng ~upto:(s tau) ~emit:on_step;
             let db = DB.apply_exn db u in
             let lbl = E.Obj (U.oid u, 0) in
             (match DB.find db (U.oid u), E.find eng lbl with
              | Some tr, Some _ -> E.replace_curve eng ~at:(s tau) lbl (curve tr)
              | Some tr, None when T.defined_at tr tau -> E.insert eng ~at:(s tau) lbl (curve tr)
              | _ -> ());
             E.check_invariants eng;
             on_step (E.Point (E.now eng));
             db
           end)
         db updates);
    E.advance eng ~upto:(s hi) ~emit:on_step;
    (List.rev !log, E.stats eng)
end

module DX = Drive (BX)
module DFl = Drive (BFl)

let same_drive name ~db ~gdist ~lo ~hi ~updates =
  let lx, sx = DX.run ~db ~gdist ~lo ~hi ~updates
  and lf, sf = DFl.run ~db ~gdist ~lo ~hi ~updates in
  if List.length lx <> List.length lf then
    QCheck.Test.fail_reportf "%s: %d steps on Exact, %d on Filtered" name (List.length lx)
      (List.length lf);
  List.iteri
    (fun k ((wx, ax, ox, cx), (wf, af, off, cf)) ->
      if wx <> wf || ax <> af || ox <> off || cx <> cf then
        QCheck.Test.fail_reportf
          "%s, step %d: Exact %s {%s} [%s] %d comparisons; Filtered %s {%s} [%s] %d" name k wx
          (String.concat "," (List.map string_of_int ax)) (String.concat " " ox) cx wf
          (String.concat "," (List.map string_of_int af)) (String.concat " " off) cf)
    (List.combine lx lf);
  if sx.DX.E.jumps <> sf.DFl.E.jumps || sx.DX.E.swaps <> sf.DFl.E.swaps then
    QCheck.Test.fail_reportf "%s: jumps %d/%d, swaps %d/%d" name sx.DX.E.jumps sf.DFl.E.jumps
      sx.DX.E.swaps sf.DFl.E.swaps;
  sx

(* Two objects of [db] again under fresh OIDs: identical curves, tied
   on whole spans until an update separates them. *)
let with_twins db =
  List.fold_left
    (fun db (o, tr) -> if o <= 2 then DB.add_initial db (o + 100) tr else db)
    db (DB.objects db)

(* Random databases and update streams: uniform with new/terminate/chdir,
   engineered tangencies, a pencil whose common crossing falls on an
   update instant, and twins. *)
let test_memo_differential =
  let gen = QCheck.Gen.(triple (int_bound 3) (int_range 1 10_000) (int_range 3 7)) in
  let print (family, seed, n) = Printf.sprintf "family %d seed %d n %d" family seed n in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"memoised comparisons: Filtered engine = Exact engine"
       (QCheck.make ~print gen)
       (fun (family, seed, n) ->
         let name = print (family, seed, n) in
         let lo = q 0 and hi = q 12 in
         let db, gdist, updates =
           match family with
           | 0 ->
             let db = Gen.uniform_db ~seed ~n ~dim:2 ~extent:20 ~speed:3 () in
             (db, euclid_origin, Gen.mixed_stream ~seed ~db ~start:lo ~gap:(q 1) ~count:8 ~speed:3 ~extent:20 ())
           | 1 ->
             let db = Gen.tangency_db ~seed ~n:(2 * n) () in
             (db, euclid_origin, Gen.chdir_stream ~seed ~db ~start:lo ~gap:(Q.of_ints 3 2) ~count:5 ())
           | 2 ->
             (* every pair crosses at 5, and the third update lands there *)
             let db = Gen.pencil_db ~seed ~n ~at:(q 5) () in
             (db, coord0, Gen.chdir_stream ~seed ~db ~start:(q 2) ~gap:(q 1) ~count:6 ())
           | _ ->
             let db = with_twins (Gen.uniform_db ~seed ~n ~dim:2 ~extent:20 ~speed:3 ()) in
             (db, euclid_origin, Gen.chdir_stream ~seed ~db ~start:lo ~gap:(q 2) ~count:4 ~speed:3 ())
         in
         ignore (same_drive name ~db ~gdist ~lo ~hi ~updates);
         true))

(* A jump reposition: squared speed is piecewise constant, so every turn
   in the history and every live chdir is a value discontinuity, which
   re-inserts the entry at the jump instant. *)
let test_memo_jumps () =
  for seed = 1 to 15 do
    let db0 = Gen.uniform_db ~seed ~n:6 ~dim:2 ~extent:20 ~speed:3 () in
    let history = Gen.chdir_stream ~seed ~db:db0 ~start:(q 0) ~gap:(q 1) ~count:6 ~speed:3 () in
    let db = DB.apply_all_exn db0 history in
    let updates =
      Gen.chdir_stream ~seed:(seed + 50) ~db ~start:(q 6) ~gap:(q 1) ~count:4 ~speed:3 ()
    in
    let s =
      same_drive (Printf.sprintf "speed_sq seed %d" seed) ~db ~gdist:Gdist.speed_sq ~lo:(q 0)
        ~hi:(q 12) ~updates
    in
    Alcotest.(check bool) "jumps repositioned entries" true (s.DX.E.jumps > 0)
  done

module EFl = DFl.E

let line ~slope ~at0 = Qpiece.of_poly ~start:(q 0) (QP.of_list [ q at0; q slope ])

(* Two lines at time 0, o1 below o2; [create]'s sort fills both memos at
   the start instant [i0].  Removing o2 leaves o1 alone on the line, so
   no later comparison refills its memo: only the curve assignment itself
   can clear it. *)
let lone_after_sort () =
  let eng =
    EFl.create ~start:(q 0) ~horizon:(q 10)
      [ (EFl.Obj (1, 0), line ~slope:1 ~at0:0); (EFl.Obj (2, 0), line ~slope:(-1) ~at0:1) ]
  in
  let i0 = EFl.now eng in
  let e1 = Option.get (EFl.find eng (EFl.Obj (1, 0)))
  and e2 = Option.get (EFl.find eng (EFl.Obj (2, 0))) in
  Alcotest.(check int) "o1 below o2 at the start" (-1) (EFl.value_sign_at i0 e1 e2);
  EFl.remove eng ~at:(q 0) (EFl.Obj (2, 0));
  (eng, i0, e1, e2)

(* A curve replaced at an instant whose comparisons were just memoised
   must not be read through the memo. *)
let test_memo_replace_curve () =
  let eng, i0, e1, e2 = lone_after_sort () in
  EFl.replace_curve eng ~at:(q 0) (EFl.Obj (1, 0)) (line ~slope:0 ~at0:5);
  Alcotest.(check int) "o1 above o2 once replaced" 1 (EFl.value_sign_at i0 e1 e2);
  Alcotest.(check int) "the memo agrees with the curves"
    (EFl.C.diff_sign_at (EFl.curve e1) (EFl.curve e2) i0)
    (EFl.value_sign_at i0 e1 e2);
  EFl.check_invariants eng

(* Theorem 10's mass replacement clears every memo: through the monitor
   (Filtered = Exact after a query chdir at an update instant), and
   directly, with curves whose values move. *)
module MonX = Core.Monitor.Make (BX)
module MonFl = Core.Monitor.Make (BFl)

let test_memo_chdir_query () =
  for seed = 1 to 10 do
    let db = Gen.uniform_db ~seed ~n:8 ~dim:2 ~extent:20 ~speed:3 () in
    let updates = Gen.chdir_stream ~seed ~db ~start:(q 0) ~gap:(q 1) ~count:6 ~speed:3 () in
    let query = Core.Fof.nearest_q ~interval:(Core.Fof.Interval.closed (q 0) (q 20)) in
    let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
    let gdist' = Gdist.euclidean_sq ~gamma:(T.chdir gamma (q 3) (Qvec.of_list [ q 1; q 1 ])) in
    let mx = MonX.create ~db ~gdist:(Gdist.euclidean_sq ~gamma) ~query ()
    and mf = MonFl.create ~db ~gdist:(Gdist.euclidean_sq ~gamma) ~query () in
    List.iteri
      (fun k u ->
        MonX.apply_update_exn mx u;
        MonFl.apply_update_exn mf u;
        if k = 2 then begin
          MonX.chdir_query mx ~tau:(U.time u) ~gdist:gdist';
          MonFl.chdir_query mf ~tau:(U.time u) ~gdist:gdist'
        end)
      updates;
    Alcotest.(check string) (Printf.sprintf "seed %d: timelines" seed)
      (Format.asprintf "%a" MonX.TL.pp (MonX.finalize mx))
      (Format.asprintf "%a" MonFl.TL.pp (MonFl.finalize mf));
    Alcotest.(check int) (Printf.sprintf "seed %d: comparisons" seed)
      (MonX.stats mx).MonX.E.comparisons (MonFl.stats mf).MonFl.E.comparisons
  done;
  let eng, i0, e1, e2 = lone_after_sort () in
  EFl.replace_all_curves eng ~at:(q 0) (fun e ->
      if e == e1 then line ~slope:0 ~at0:5 else EFl.curve e);
  Alcotest.(check int) "mass replacement: o1 above o2" 1 (EFl.value_sign_at i0 e1 e2);
  EFl.check_invariants eng

(* ------------------------------------------------------------------ *)
(* Lazy crossing search = the eager segment scan                         *)
(* ------------------------------------------------------------------ *)

(* The crossing search as it was before the lazy walk: build every
   segment's difference, then scan them in order. *)
module Eager (B : Core.Backend.S) = struct
  module C = Core.Curves.Make (B)

  let first_crossing ~after ?horizon c1 c2 =
    let within_horizon i =
      match horizon with None -> true | Some h -> B.compare_instant_scalar i h <= 0
    in
    let rec scan = function
      | [] -> None
      | (s, d, e) :: rest ->
        let relevant =
          match e with Some e' -> B.compare_instant_scalar after e' < 0 | None -> true
        in
        if (match horizon with Some h -> B.P.F.compare s h > 0 | None -> false) then None
        else if (not relevant) || B.P.is_zero d then scan rest
        else begin
          let candidate =
            if B.compare_instant_scalar after s < 0 then B.first_root_at_or_after d s
            else B.first_root_after d after
          in
          match candidate with
          | Some r
            when (match e with Some e' -> B.compare_instant_scalar r e' <= 0 | None -> true) ->
            if within_horizon r then Some r else None
          | _ -> scan rest
        end
    in
    scan (C.diff_segments c1 c2)
end

module EagerX = Eager (BX)
module CX = Core.Curves.Make (BX)
module CFl = Core.Curves.Make (BFl)

(* Random piecewise quadratics with small integer coefficients on integer
   breakpoints (so segments share polynomials, touch and cross at
   breakpoints), searched from integer and irrational instants, with and
   without a horizon; on Exact against the eager scan, and on Filtered
   against Exact. *)
let test_lazy_crossing_prop =
  let open QCheck.Gen in
  let poly = map QP.of_list (list_size (1 -- 3) (map q (-3 -- 3))) in
  let curve =
    map3
      (fun start gaps polys ->
        let starts =
          List.rev (List.fold_left (fun acc g -> (List.hd acc + g) :: acc) [ start ] gaps)
        in
        let pieces = List.combine (List.map q starts) (List.filteri (fun i _ -> i <= List.length gaps) polys) in
        (pieces, List.nth starts (List.length starts - 1)))
      (-2 -- 2) (list_size (0 -- 3) (1 -- 3)) (list_repeat 4 poly)
  in
  let with_stop =
    map2
      (fun (pieces, last) stop ->
        match stop with Some d -> Qpiece.make ~stop:(q (last + d)) pieces | None -> Qpiece.make pieces)
      curve (opt (1 -- 4))
  in
  let gen = quad with_stop with_stop (-3 -- 8) (pair bool (opt (0 -- 12))) in
  let print (c1, c2, a, (irr, h)) =
    Format.asprintf "c1 = %a; c2 = %a; after %d%s; horizon %s" Qpiece.pp c1 Qpiece.pp c2 a
      (if irr then " + sqrt 2 / 4" else "")
      (match h with Some h -> string_of_int h | None -> "none")
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"lazy crossing search = eager segment scan"
       (QCheck.make ~print gen)
       (fun (c1, c2, a, (irr, h)) ->
         let lo = Q.max (Qpiece.start c1) (Qpiece.start c2) in
         let hi =
           match Qpiece.stop c1, Qpiece.stop c2 with
           | None, x | x, None -> x
           | Some x, Some y -> Some (Q.min x y)
         in
         QCheck.assume (match hi with Some e -> Q.compare lo e <= 0 | None -> true);
         let after =
           if irr then
             (* a + sqrt 2 / 4, the larger root of 8t^2 - 16at + 8a^2 - 1 *)
             let a = q a in
             List.nth (A.roots (QP.of_list [ Q.sub (Q.mul (q 8) (Q.mul a a)) Q.one; Q.mul (q (-16)) a; q 8 ])) 1
           else A.of_rat (q a)
         in
         let horizon = Option.map q h in
         let ex = CX.first_crossing ~after ?horizon c1 c2 in
         let eager = EagerX.first_crossing ~after ?horizon c1 c2 in
         let fl = CFl.first_crossing ~after:(BFl.of_algnum after) ?horizon c1 c2 in
         let same a b =
           match a, b with
           | None, None -> true
           | Some a, Some b -> A.compare a b = 0
           | _ -> false
         in
         same ex eager && same ex (Option.map BFl.to_algnum fl)))

(* ------------------------------------------------------------------ *)
(* Float-shadowed curves: the hit path reads only the curves' views     *)
(* ------------------------------------------------------------------ *)

(* Raw curves swept from [lo] to [hi], one engine per backend, logged at
   every step: the step with its instants as canonical text, the order
   and the comparison count. *)
module Sweep_curves (B : Core.Backend.S) = struct
  module E = Core.Engine.Make (B)

  let run ~lo ~hi curves =
    let s = B.scalar_of_rat in
    let eng =
      E.create ~start:(s lo) ~horizon:(s hi)
        (List.mapi (fun j c -> (E.Obj (j + 1, 0), B.curve_of_qpiece c)) curves)
    in
    let log = ref [] in
    let on_step step =
      let what =
        match step with
        | E.Span (a, b) -> "span " ^ B.instant_to_string a ^ " " ^ B.instant_to_string b
        | E.Point i -> "at " ^ B.instant_to_string i
      in
      let order = List.map (fun e -> Format.asprintf "%a" E.pp_label (E.label e)) (E.order eng) in
      log := (what, String.concat " " order, (E.stats eng).E.comparisons) :: !log
    in
    on_step (E.Point (E.now eng));
    E.advance eng ~upto:(s hi) ~emit:on_step;
    E.check_invariants eng;
    (List.rev !log, E.stats eng)
end

module SX = Sweep_curves (BX)
module SFl = Sweep_curves (BFl)

let same_sweep name ~lo ~hi curves =
  let lx, sx = SX.run ~lo ~hi curves and lf, sf = SFl.run ~lo ~hi curves in
  if List.length lx <> List.length lf then
    QCheck.Test.fail_reportf "%s: %d steps on Exact, %d on Filtered" name (List.length lx)
      (List.length lf);
  List.iteri
    (fun k ((wx, ox, cx), (wf, off, cf)) ->
      if wx <> wf || ox <> off || cx <> cf then
        QCheck.Test.fail_reportf "%s, step %d: Exact %s [%s] %d comparisons; Filtered %s [%s] %d"
          name k wx ox cx wf off cf)
    (List.combine lx lf);
  if sx.SX.E.jumps <> sf.SFl.E.jumps || sx.SX.E.swaps <> sf.SFl.E.swaps
     || sx.SX.E.crossings <> sf.SFl.E.crossings
  then QCheck.Test.fail_reportf "%s: jumps, swaps or crossings differ" name;
  true

(* Past windows over long histories: every curve has several pieces and
   the window spans many breakpoints; a few live chdirs follow. *)
let test_multi_piece_prop =
  let gen = QCheck.Gen.(triple (int_range 1 10_000) (int_range 3 7) (int_range 4 16)) in
  let print (seed, n, hist) = Printf.sprintf "seed %d n %d history %d" seed n hist in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"shadowed Filtered = Exact: multi-piece curves"
       (QCheck.make ~print gen)
       (fun (seed, n, hist) ->
         let db0 = Gen.uniform_db ~seed ~n ~dim:2 ~extent:20 ~speed:3 () in
         let history =
           Gen.chdir_stream ~seed ~db:db0 ~start:(q 0) ~gap:(Q.of_ints 1 2) ~count:hist ~speed:3 ()
         in
         let db = DB.apply_all_exn db0 history in
         let last = DB.last_update db in
         let updates =
           Gen.chdir_stream ~seed:(seed + 7) ~db ~start:last ~gap:(Q.of_ints 2 3) ~count:3 ~speed:3 ()
         in
         ignore
           (same_drive (print (seed, n, hist)) ~db ~gdist:euclid_origin ~lo:(q 1)
              ~hi:(Q.add last (q 3)) ~updates);
         true))

(* Every object passes through one point [p] at [at] and turns or stops
   there (some also turn later), so every pair of distance curves meets
   exactly at a breakpoint or the stop of both; equal velocities make
   pairs that coincide up to [at] or after it. *)
let test_breakpoint_crossing_prop =
  let gen = QCheck.Gen.(triple (int_range 1 10_000) (int_range 3 7) (int_range 2 8)) in
  let print (seed, n, at) = Printf.sprintf "seed %d n %d at %d" seed n at in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"shadowed Filtered = Exact: crossings at breakpoints"
       (QCheck.make ~print gen)
       (fun (seed, n, at) ->
         let st = Moq_workload.Prng.create seed in
         let r lo hi = lo + Moq_workload.Prng.int st (hi - lo + 1) in
         let at = q at in
         let p = Qvec.of_list [ q (r (-5) 5); q (r (-5) 5) ] in
         let vel () = Qvec.of_list [ q (r (-2) 2); q (r (-2) 2) ] in
         (* the piece from [start] with velocity [a], at [x] at time [t] *)
         let through ?start t x a =
           { T.start = Option.value start ~default:t; a; b = Qvec.sub x (Qvec.scale t a) }
         in
         let db =
           List.fold_left
             (fun db o ->
               let before = through ~start:(q 0) at p (vel ()) in
               let v = vel () in
               let after = through at p v in
               let tr =
                 match r 0 2 with
                 | 0 -> T.of_pieces [ before; after ]
                 | 1 -> T.of_pieces ~death:at [ before ]
                 | _ ->
                   let t2 = Q.add at (Q.of_ints (r 1 9) 3) in
                   let x2 = Qvec.add (Qvec.scale t2 v) after.T.b in
                   T.of_pieces [ before; after; through t2 x2 (vel ()) ]
               in
               DB.add_initial db o tr)
             (DB.empty ~dim:2 ~tau:(q 0)) (List.init n (fun o -> o + 1))
         in
         let curves = List.map (fun (_, tr) -> Gdist.curve euclid_origin tr) (DB.objects db) in
         same_sweep (print (seed, 0, 0)) ~lo:(q 0) ~hi:(q 12) curves))

(* Twins and physically shared pieces: the same curve value under two
   labels, equal curves built apart, and curves that share a prefix of
   piece values ([extend_last_from]) and then part, with a jump or
   continuously in opposite directions (the later label below, so the
   parting is a crossing the sweep must find). *)
let test_shared_pieces_prop =
  let gen = QCheck.Gen.(triple (int_range 1 10_000) (int_range 2 5) (int_range 1 9)) in
  let print (seed, n, tau) = Printf.sprintf "seed %d n %d tau %d" seed n tau in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"shadowed Filtered = Exact: twins and shared pieces"
       (QCheck.make ~print gen)
       (fun (seed, n, tau) ->
         let db0 = Gen.uniform_db ~seed ~n ~dim:2 ~extent:20 ~speed:3 () in
         let db =
           DB.apply_all_exn db0
             (Gen.chdir_stream ~seed ~db:db0 ~start:(q 0) ~gap:(q 1) ~count:(2 * n) ~speed:3 ())
         in
         let curves = List.map (fun (_, tr) -> Gdist.curve euclid_origin tr) (DB.objects db) in
         let c0 = List.hd curves in
         let tau = Q.of_ints tau 2 in
         let st = Moq_workload.Prng.create seed in
         let coef () = Q.of_ints (Moq_workload.Prng.int st 41 - 20) (1 + Moq_workload.Prng.int st 3) in
         let parted () = Qpiece.extend_last_from c0 tau (QP.of_list [ coef (); coef (); Q.one ]) () in
         let continued slope =
           (* parts from [c0] at [tau] without a jump *)
           let p, _ = Qpiece.piece_covering c0 tau in
           Qpiece.extend_last_from c0 tau (QP.add p (QP.scale slope (QP.of_list [ Q.neg tau; Q.one ]))) ()
         in
         let slope = Q.of_ints (1 + Moq_workload.Prng.int st 20) (1 + Moq_workload.Prng.int st 3) in
         let twin = Gdist.curve euclid_origin (snd (List.hd (DB.objects db))) in
         same_sweep (print (seed, n, 0)) ~lo:(q 0) ~hi:(q 12)
           (curves @ [ c0; twin; parted (); parted (); continued slope; continued (Q.neg slope) ])))

(* Tangencies and near-tangencies: parabolas touching a level and each
   other at one rational instant (double roots: an [Unsure]
   discriminant), and the same lifted or lowered by a tiny amount
   (grazing passes and roots closer than a float can tell). *)
let test_tangency_prop =
  let gen = QCheck.Gen.(quad (int_range 1 10_000) (int_range (-50) 50) (int_range 1 97) (int_range 0 4)) in
  let print (seed, rn, rd, e) = Printf.sprintf "seed %d r %d/%d eps %d" seed rn rd e in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"shadowed Filtered = Exact: tangencies"
       (QCheck.make ~print gen)
       (fun (seed, rn, rd, e) ->
         let st = Moq_workload.Prng.create seed in
         let r = Q.of_ints (rn + (5 * rd)) rd (* in (0, 10] mostly *) in
         let k = q (Moq_workload.Prng.int st 5) in
         let eps = [| Q.zero; Q.of_ints 1 1_000_000; Q.of_ints (-1) 1_000_000;
                      Q.div Q.one (Q.of_bigint (Moq_numeric.Bigint.shift_left Moq_numeric.Bigint.one 60));
                      Q.of_ints (-1) 3 |].(e) in
         let parabola a lift =
           (* a (t - r)^2 + k + lift *)
           QP.of_list [ Q.add (Q.add (Q.mul a (Q.mul r r)) k) lift; Q.mul (q (-2)) (Q.mul a r); a ]
         in
         let a () = Q.of_ints (1 + Moq_workload.Prng.int st 4) (1 + Moq_workload.Prng.int st 3) in
         let curves =
           List.map (Qpiece.of_poly ~start:(q 0))
             [ QP.constant k; parabola (a ()) Q.zero; parabola (a ()) eps; parabola (a ()) (Q.neg eps);
               QP.neg (parabola (a ()) (Q.neg (Q.mul (q 2) k))) ]
         in
         same_sweep (print (seed, rn, rd, e)) ~lo:(q 0) ~hi:(q 12) curves))

(* speed_sq is piecewise constant: every turn is a jump, found once per
   curve in its view. *)
let test_jump_prop =
  let gen = QCheck.Gen.(triple (int_range 1 10_000) (int_range 3 7) (int_range 2 8)) in
  let print (seed, n, hist) = Printf.sprintf "seed %d n %d history %d" seed n hist in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"shadowed Filtered = Exact: speed_sq jumps"
       (QCheck.make ~print gen)
       (fun (seed, n, hist) ->
         let db0 = Gen.uniform_db ~seed ~n ~dim:2 ~extent:20 ~speed:3 () in
         let history = Gen.chdir_stream ~seed ~db:db0 ~start:(q 0) ~gap:(q 1) ~count:hist ~speed:3 () in
         let db = DB.apply_all_exn db0 history in
         let updates =
           Gen.chdir_stream ~seed:(seed + 50) ~db ~start:(q hist) ~gap:(q 1) ~count:3 ~speed:3 ()
         in
         ignore
           (same_drive (print (seed, n, hist)) ~db ~gdist:Gdist.speed_sq ~lo:(q 0)
              ~hi:(q (hist + 4)) ~updates);
         true))

(* Rationals that floats hold exactly (integers and dyadics) and ones
   they cannot (denominators up to 10^6), some with numerators past
   2^53: a difference of two exact floats need not be one. *)
let hard_rat =
  QCheck.Gen.(
    map3
      (fun n d big ->
        let n = if big then Q.mul (q n) (Q.of_bigint (Moq_numeric.Bigint.shift_left Moq_numeric.Bigint.one 70)) else q n in
        Q.div n (q d))
      (int_range (-1_000_000) 1_000_000)
      (frequency [ (1, return 1); (1, map (fun k -> 1 lsl k) (0 -- 20)); (1, 1 -- 1_000_000) ])
      (map (fun k -> k = 0) (int_bound 3)))

let hard_curve =
  QCheck.Gen.(
    map3
      (fun start gaps polys ->
        let starts = List.rev (List.fold_left (fun acc g -> Q.add (List.hd acc) g :: acc) [ start ] gaps) in
        Qpiece.make (List.combine starts (List.filteri (fun i _ -> i <= List.length gaps) polys)))
      hard_rat
      (list_size (0 -- 3) (map (fun k -> Q.of_ints k 7) (1 -- 40)))
      (list_repeat 4 (map QP.of_list (list_size (0 -- 3) hard_rat))))

(* Every knot, coefficient, piece value and difference coefficient the
   views hold encloses its exact value. *)
let test_shadow_encloses_prop =
  let print (c1, c2, s) =
    Format.asprintf "c1 = %a; c2 = %a; s = %s" Qpiece.pp c1 Qpiece.pp c2 (Q.to_string s)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"view shadows enclose their exact values"
       (QCheck.make ~print QCheck.Gen.(triple hard_curve hard_curve hard_rat))
       (fun (c1, c2, s) ->
         let module IV = Moq_numeric.Fintval in
         let v1 = BFl.PW.view c1 and v2 = BFl.PW.view c2 in
         let ok = ref true in
         let check what enc x =
           if not (IV.contains_rat enc x) then begin
             ok := false;
             Format.eprintf "%s: %a misses %s@." what IV.pp enc (Q.to_string x)
           end
         in
         List.iter
           (fun (v : BFl.PW.view) ->
             Array.iteri (fun j x -> check "knot" (IV.get v.bounds (2 * j)) x) v.starts;
             Array.iteri
               (fun k p ->
                 List.iteri (fun i x -> check "coefficient" (IV.get v.coefs (v.coef_at.(k) + (2 * i))) x) (QP.to_list p);
                 check "piece value" (BFl.enclose v k (BFl.instant_of_scalar s)) (QP.eval p s))
               v.polys)
           [ v1; v2 ];
         Array.iteri
           (fun k1 p1 ->
             Array.iteri
               (fun k2 p2 ->
                 let d = BFl.diff_shadow v1 k1 v2 k2 in
                 for i = 0 to (Array.length d / 2) - 1 do
                   check "difference coefficient" (IV.get d (2 * i)) (QP.coeff (QP.sub p1 p2) i)
                 done)
               v2.polys)
           v1.polys;
         (* the jumps are the breakpoints where the exact values differ *)
         let jumps =
           List.filteri (fun k _ -> k > 0)
             (List.mapi
                (fun k (b, p) -> if k = 0 then None else
                  let prev = snd (List.nth (Qpiece.pieces c1) (k - 1)) in
                  if Q.equal (QP.eval prev b) (QP.eval p b) then None else Some b)
                (Qpiece.pieces c1))
           |> List.filter_map Fun.id
         in
         !ok && List.length jumps = List.length v1.jumps && List.for_all2 Q.equal jumps v1.jumps))

(* At a crossing the shadows found, the sign just after it is read off
   the root's index and the difference's leading sign, for both orders
   of the two pieces: Exact's jet of the exact difference. *)
let test_sign_after_prop =
  let gen =
    QCheck.Gen.(
      let coef = map2 (fun n d -> Q.of_ints n d) (int_range (-60) 60) (int_range 1 9) in
      let poly = map QP.of_list (list_size (1 -- 3) coef) in
      triple poly poly (map2 (fun n d -> Q.of_ints n d) (int_range (-40) 40) (int_range 1 5)))
  in
  let print (p1, p2, s) = Printf.sprintf "p1 = %s; p2 = %s; from %s" (QP.to_string p1) (QP.to_string p2) (Q.to_string s) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"structural sign after a crossing = Exact's jet"
       (QCheck.make ~print gen)
       (fun (p1, p2, s) ->
         QCheck.assume (not (QP.equal p1 p2));
         let v1 = BFl.PW.view (Qpiece.of_poly ~start:(q (-100)) p1)
         and v2 = BFl.PW.view (Qpiece.of_poly ~start:(q (-100)) p2)
         and vs = BFl.PW.view (Qpiece.of_poly ~start:s QP.zero) in
         let d = QP.sub p1 p2 in
         let rec walk r n =
           match r with
           | None -> BX.first_root_after d (A.of_rat (q 1_000)) = None || n = 0
           | Some r ->
             let x = BFl.to_algnum r in
             let at = BFl.diff_sign_at v1 0 v2 0 r = 0 && BFl.diff_sign_at v2 0 v1 0 r = 0 in
             let after =
               BFl.diff_sign_after v1 0 v2 0 r = BX.sign_after_instant d x
               && BFl.diff_sign_after v2 0 v1 0 r = BX.sign_after_instant (QP.neg d) x
             in
             let next = BFl.diff_root_after v1 0 v2 0 r in
             let same_next =
               match BX.first_root_after d x, next with
               | None, None -> true
               | Some a, Some b -> A.compare a (BFl.to_algnum b) = 0
               | _ -> false
             in
             at && after && same_next && walk next (n - 1)
         in
         let first = BFl.diff_root_from v1 0 v2 0 vs 0 in
         let same_first =
           match BX.first_root_at_or_after d s, first with
           | None, None -> true
           | Some a, Some b -> A.compare a (BFl.to_algnum b) = 0
           | _ -> false
         in
         same_first && walk first 3))

(* ------------------------------------------------------------------ *)
(* Crossing certificates and per-entry attribution                       *)
(* ------------------------------------------------------------------ *)

(* An entry reuses its last right-pair search while its partner and both
   curves are physically the same and the result still lies after the
   clock.  Whatever the engine reused, each adjacent pair's pending
   crossing must be the one a fresh search finds: checked after every
   batch (at the next [Span], when the batch is fully processed), every
   update, every rebuild and every Theorem 10 mass replacement.  Inside
   every [Span] and [Point] callback the engine's audit must be clean.  The
   comparison and swap counts the entries keep for attribution are
   checked here too. *)
module Cert (B : Core.Backend.S) = struct
  module E = Core.Engine.Make (B)
  module Mon = Core.Monitor.Make (B)
  module Knn = Core.Knn.Make (B)
  module Shard = Core.Shard.Make (B)

  let show = function None -> "none" | Some i -> B.instant_to_string i

  (* A pending crossing exactly at the clock is legal only where the clock
     was moved to an update time ([~at_update]): an unrelated pair may
     cross there, and its event waits for the next advance.  Right after
     a batch every event at the clock has been popped. *)
  let check ~what ~at_update ~horizon eng =
    let now = E.now eng in
    let rec go = function
      | l :: (r :: _ as rest) ->
        let pending = E.pending_crossing l in
        let fresh = E.C.first_crossing ~after:now ~horizon (E.curve l) (E.curve r) in
        let same =
          match pending, fresh with
          | None, None -> true
          | Some a, Some b -> B.compare_instant a b = 0
          | _ -> false
        in
        let due_now =
          at_update
          && match pending with Some a -> B.compare_instant a now = 0 | None -> false
        in
        if not (same || due_now) then
          QCheck.Test.fail_reportf "%s, clock %s: pair (%a, %a) pending %s, a fresh search %s"
            what (B.instant_to_string now) E.pp_label (E.label l) E.pp_label (E.label r)
            (show pending) (show fresh);
        go rest
      | _ -> ()
    in
    go (E.order eng)

  (* A sweep that stops making progress (an event re-served at the clock
     would be popped again and again) fails instead of hanging. *)
  let step_limit = 100_000

  (* The engine alone under [updates] (insert, remove, replace_curve), with
     a rebuild after every third update. *)
  let drive name ~db ~gdist ~lo ~hi ~updates =
    let curve tr = B.curve_of_qpiece (Gdist.curve gdist tr) in
    let s = B.scalar_of_rat in
    let horizon = s hi in
    let eng =
      E.create ~start:(s lo) ~horizon
        (List.map (fun (o, tr) -> (E.Obj (o, 0), curve tr)) (DB.objects db))
    in
    let steps = ref 0 in
    let on_step step =
      incr steps;
      if !steps > step_limit then QCheck.Test.fail_reportf "%s: no progress" name;
      (* the engine is whole inside both callbacks *)
      (match E.audit eng with
       | [] -> ()
       | found ->
         QCheck.Test.fail_reportf "%s, audit inside a %s callback at clock %s: %s" name
           (match step with E.Span _ -> "span" | E.Point _ -> "point")
           (B.instant_to_string (E.now eng)) (String.concat "; " found));
      match step with
      | E.Span _ -> check ~what:(name ^ ", after a batch") ~at_update:false ~horizon eng
      | E.Point _ -> ()
    in
    check ~what:(name ^ ", created") ~at_update:false ~horizon eng;
    ignore
      (List.fold_left
         (fun (db, k) u ->
           let tau = U.time u in
           if Q.compare tau hi > 0 then (db, k)
           else begin
             E.advance eng ~upto:(s tau) ~emit:on_step;
             let db = DB.apply_exn db u in
             let lbl = E.Obj (U.oid u, 0) in
             (match DB.find db (U.oid u), E.find eng lbl with
              | Some tr, Some _ -> E.replace_curve eng ~at:(s tau) lbl (curve tr)
              | Some tr, None when T.defined_at tr tau -> E.insert eng ~at:(s tau) lbl (curve tr)
              | _ -> ());
             let what = Printf.sprintf "%s, update %d" name k in
             check ~what ~at_update:true ~horizon eng;
             if k mod 3 = 2 then begin
               E.rebuild eng;
               check ~what:(what ^ ", rebuilt") ~at_update:true ~horizon eng
             end;
             (db, k + 1)
           end)
         (db, 0) updates);
    E.advance eng ~upto:horizon ~emit:on_step;
    check ~what:(name ^ ", at the end") ~at_update:false ~horizon eng

  (* A nearest-neighbour monitor under [updates], with Theorem 10's query
     chdir at the third update. *)
  let monitor name ~db ~gamma ~lo ~hi ~updates =
    let horizon = B.scalar_of_rat hi in
    let query = Core.Fof.nearest_q ~interval:(Core.Fof.Interval.closed lo hi) in
    let m = Mon.create ~db ~gdist:(Gdist.euclidean_sq ~gamma) ~query () in
    let eng = Mon.engine m in
    List.iteri
      (fun k u ->
        Mon.apply_update_exn m u;
        let what = Printf.sprintf "%s, monitor update %d" name k in
        check ~what ~at_update:true ~horizon eng;
        if k = 2 then begin
          let tau = U.time u in
          let gamma' = T.chdir gamma tau (Qvec.of_list [ q 1; q (-1) ]) in
          Mon.chdir_query m ~tau ~gdist:(Gdist.euclidean_sq ~gamma:gamma');
          check ~what:(what ^ ", query chdir") ~at_update:true ~horizon eng
        end)
      updates;
    ignore (Mon.finalize m);
    check ~what:(name ^ ", monitor finalized") ~at_update:false ~horizon eng

  (* Attribution is conserved: each comparison bumps both participants
     and each swap both swapped entries, so the per-object sums are twice
     the engine's counts less what constant curves took part in. *)
  let sums hot =
    List.fold_left (fun (c, s) h -> (c + h.E.h_comparisons, s + h.E.h_swaps)) (0, 0) hot

  let conserved what ?(cst = (0, 0)) (st : E.stats) hot =
    let hc, hs = sums hot and cc, cs = cst in
    Alcotest.(check (pair int int)) (what ^ ": attributed comparisons and swaps")
      ((2 * st.E.comparisons) - cc, (2 * st.E.swaps) - cs)
      (hc, hs)

  (* the participations of the constant curves on the line *)
  let cst_participations eng =
    List.fold_left
      (fun (c, s) e ->
        match E.label e with
        | E.Cst _ ->
          let c', s' = E.participations e in
          (c + c', s + s')
        | E.Obj _ -> (c, s))
      (0, 0) (E.order eng)

  let attribution seed =
    let what = Printf.sprintf "%s seed %d" B.name seed in
    let lo = q 0 and hi = q 12 in
    let db = Gen.uniform_db ~seed ~n:8 ~dim:2 ~extent:20 ~speed:3 () in
    let r = Knn.run ~db ~gdist:euclid_origin ~k:2 ~lo ~hi in
    conserved (what ^ ", knn") r.Knn.stats r.Knn.hot;
    let sh = Shard.run ~db ~gamma:(origin 2) ~k:2 ~lo ~hi ~cell:8. () in
    conserved (what ^ ", sharded") sh.Shard.stats sh.Shard.hot;
    (* a within monitor (constant curves) under new, terminate and chdir *)
    let updates = Gen.mixed_stream ~seed ~db ~start:lo ~gap:(q 1) ~count:8 ~speed:3 ~extent:20 () in
    let query = Core.Fof.within_q ~bound:(q 100) ~interval:(Core.Fof.Interval.closed lo hi) in
    let m = Mon.create ~db ~gdist:euclid_origin ~query () in
    List.iter (Mon.apply_update_exn m) updates;
    ignore (Mon.finalize m);
    let cst = cst_participations (Mon.engine m) in
    Alcotest.(check bool) (what ^ ": the bound's curve was compared") true (fst cst > 0);
    conserved (what ^ ", within monitor") ~cst (Mon.stats m) (Mon.hot_objects m)

  (* A label removed and inserted again keeps what it was charged before. *)
  let reinserted () =
    let line ~slope ~at0 =
      B.curve_of_qpiece (Qpiece.of_poly ~start:(q 0) (QP.of_list [ q at0; q slope ]))
    in
    let s = B.scalar_of_rat in
    let eng =
      E.create ~start:(s (q 0)) ~horizon:(s (q 20))
        (List.init 5 (fun j -> (E.Obj (j + 1, 0), line ~slope:(2 - j) ~at0:(3 * j))))
    in
    let ignore_step _ = () in
    E.advance eng ~upto:(s (q 2)) ~emit:ignore_step;
    let before = E.participations (Option.get (E.find eng (E.Obj (3, 0)))) in
    E.remove eng ~at:(s (q 2)) (E.Obj (3, 0));
    E.advance eng ~upto:(s (q 4)) ~emit:ignore_step;
    E.insert eng ~at:(s (q 4)) (E.Obj (3, 0)) (line ~slope:(-1) ~at0:8);
    E.replace_curve eng ~at:(s (q 4)) (E.Obj (1, 0)) (line ~slope:3 ~at0:(-4));
    E.advance eng ~upto:(s (q 20)) ~emit:ignore_step;
    let h3 = List.find (fun h -> h.E.h_oid = 3) (E.hot_objects eng) in
    let after = E.participations (Option.get (E.find eng (E.Obj (3, 0)))) in
    Alcotest.(check bool) (B.name ^ ": the first life was charged") true (fst before > 0);
    Alcotest.(check (pair int int)) (B.name ^ ": oid 3 = its entry, both lives")
      after (h3.E.h_comparisons, h3.E.h_swaps);
    Alcotest.(check bool) (B.name ^ ": the second life added to the first") true
      (fst after > fst before);
    conserved (B.name ^ ", re-inserted label") (E.stats eng) (E.hot_objects eng)
end

module CertX = Cert (BX)
module CertFl = Cert (BFl)

let test_certificate_prop =
  let gen = QCheck.Gen.(triple (int_bound 3) (int_range 1 10_000) (int_range 3 7)) in
  let print (family, seed, n) = Printf.sprintf "family %d seed %d n %d" family seed n in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"pending crossings = fresh searches"
       (QCheck.make ~print gen)
       (fun (family, seed, n) ->
         let name = print (family, seed, n) in
         let lo = q 0 and hi = q 12 in
         let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
         let db, gdist, updates =
           match family with
           | 0 ->
             let db = Gen.uniform_db ~seed ~n ~dim:2 ~extent:20 ~speed:3 () in
             (db, euclid_origin,
              Gen.mixed_stream ~seed ~db ~start:lo ~gap:(q 1) ~count:8 ~speed:3 ~extent:20 ())
           | 1 ->
             let db = Gen.tangency_db ~seed ~n:(2 * n) () in
             (db, euclid_origin, Gen.chdir_stream ~seed ~db ~start:lo ~gap:(Q.of_ints 3 2) ~count:5 ())
           | 2 ->
             (* every pair crosses at 5, and the third update lands there *)
             let db = Gen.pencil_db ~seed ~n ~at:(q 5) () in
             (db, coord0, Gen.chdir_stream ~seed ~db ~start:(q 2) ~gap:(q 1) ~count:6 ())
           | _ ->
             (* speed_sq jumps at every turn of a history and every chdir *)
             let db0 = Gen.uniform_db ~seed ~n ~dim:2 ~extent:20 ~speed:3 () in
             let db =
               DB.apply_all_exn db0
                 (Gen.chdir_stream ~seed ~db:db0 ~start:(q 0) ~gap:(q 1) ~count:6 ~speed:3 ())
             in
             (db, Gdist.speed_sq,
              Gen.chdir_stream ~seed:(seed + 50) ~db ~start:(q 6) ~gap:(q 1) ~count:4 ~speed:3 ())
         in
         CertX.drive name ~db ~gdist ~lo ~hi ~updates;
         CertFl.drive name ~db ~gdist ~lo ~hi ~updates;
         if family <= 1 then begin
           CertX.monitor name ~db ~gamma ~lo ~hi ~updates;
           CertFl.monitor name ~db ~gamma ~lo ~hi ~updates
         end;
         true))

let test_attribution_conserved () =
  for seed = 1 to 8 do
    CertX.attribution seed;
    CertFl.attribution seed
  done;
  CertX.reinserted ();
  CertFl.reinserted ()

(* ------------------------------------------------------------------ *)
(* Count gate: minor words per comparison on a mixed-shaped past query *)
(* ------------------------------------------------------------------ *)

(* perfbench mixed's read shape: two discs of 100 objects 10^4 apart, 40
   time units of history with a chdir every fifth of a unit, a Filtered
   knn 8 past query over a half-unit window through a warm curve store,
   as the server's queries run.  Before the float-shadowed views the
   query allocated 470,705 minor words over 3,060 comparisons: 153.8
   words per comparison.  The gate is half of that.  The comparison
   count is pinned because the ratio means nothing if it moves: a change
   that moves it measures the words before the change again.

   The same query gates its crossing searches (Lemma 9: one intersection
   computation per pair that becomes adjacent): at most N - 1 for the
   initial order, 3 per crossing (the pairs a swap makes), 2 per birth
   or jump and 1 per death.  Searching around every disturbed entry made
   604 searches
   (bound 352); crossing certificates make 351. *)
let words_per_comparison_before_views = 153.8

let test_count_gate () =
  let st = Moq_workload.Prng.create 3 in
  let heading () =
    let phi = Moq_workload.Prng.float st (2. *. Float.pi) in
    let c x = q (Float.to_int (Float.round (5. *. x))) in
    Qvec.of_list [ c (cos phi); c (sin phi) ]
  in
  let disc db ~first ~cx =
    let db = ref db in
    for j = 0 to 99 do
      let r = 200. *. (float_of_int j +. 0.5) /. 100. in
      let th = Moq_workload.Prng.float st (2. *. Float.pi) in
      let at x = Float.to_int (Float.round (r *. x)) in
      let b = Qvec.of_list [ q (cx + at (cos th)); q (at (sin th)) ] in
      db := DB.add_initial !db (first + j) (T.linear ~start:(q 0) ~a:(heading ()) ~b)
    done;
    !db
  in
  let db = disc (disc (DB.empty ~dim:2 ~tau:(q 0)) ~first:1 ~cx:0) ~first:101 ~cx:10_000 in
  let turn i = U.Chdir { oid = (i mod 200) + 1; tau = Q.of_ints (i + 1) 5; a = heading () } in
  let db = DB.apply_all_exn db (List.init 200 turn) in
  let store = Core.Curve_store.create (Gdist.euclidean_sq ~gamma:(T.stationary ~start:(q 0) (Qvec.zero 2))) in
  let run () = KnnFl.run_store ~sink:Sink.noop ~store ~db ~k:8 ~lo:(q 20) ~hi:(Q.of_ints 41 2) in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. w0 in
  let st = r.KnnFl.stats in
  let cmp = st.KnnFl.E.comparisons in
  Alcotest.(check int) "comparisons, as before the views" 3060 cmp;
  let bound =
    199 + (3 * st.KnnFl.E.crossings) + (2 * (st.KnnFl.E.births + st.KnnFl.E.jumps))
    + st.KnnFl.E.deaths
  in
  if st.KnnFl.E.searches > bound then
    Alcotest.failf "%d crossing searches; the gate is %d" st.KnnFl.E.searches bound;
  let per = words /. float_of_int cmp in
  if per > words_per_comparison_before_views /. 2.0 then
    Alcotest.failf "%.1f minor words per comparison (%.0f words, %d comparisons); the gate is %.1f"
      per words cmp (words_per_comparison_before_views /. 2.0)

let () =
  Alcotest.run "filtered-backend"
    [
      ( "filtered-vs-exact",
        [
          Alcotest.test_case "≥200 seeded workloads identical" `Slow
            test_filtered_equals_exact;
          Alcotest.test_case "publish counter names" `Quick test_publish;
          Alcotest.test_case "tangency forces exact fallback" `Quick
            test_tangency_forces_fallback;
          Alcotest.test_case "pp_instant bytes equal Exact's" `Quick
            test_pp_instant_bytes;
          Alcotest.test_case "own-root successor of a quadratic" `Quick
            test_own_root_successor;
          test_deferred_crossing_prop;
        ] );
      ( "memo",
        [
          test_memo_differential;
          Alcotest.test_case "jump repositions on speed_sq" `Quick test_memo_jumps;
          Alcotest.test_case "replace_curve at a memoised instant" `Quick
            test_memo_replace_curve;
          Alcotest.test_case "chdir_query and replace_all_curves" `Quick
            test_memo_chdir_query;
          test_lazy_crossing_prop;
        ] );
      ( "shadows",
        [
          test_multi_piece_prop;
          test_breakpoint_crossing_prop;
          test_shared_pieces_prop;
          test_tangency_prop;
          test_jump_prop;
          test_shadow_encloses_prop;
          test_sign_after_prop;
          Alcotest.test_case "count gate: minor words per comparison" `Quick test_count_gate;
        ] );
      ( "certificates",
        [
          test_certificate_prop;
          Alcotest.test_case "attribution conserved" `Quick test_attribution_conserved;
        ] );
    ]
