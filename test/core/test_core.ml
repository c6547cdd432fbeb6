module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module QP = Moq_poly.Qpoly
module Qpiece = Moq_poly.Piecewise.Qpiece
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid

module Core = Moq_core
module BX = Core.Backend.Exact
module BF = Core.Backend.Approx
module EX = Core.Engine.Make (BX)
module SwX = Core.Sweep.Make (BX)
module TLX = SwX.TL
module KnnX = Core.Knn.Make (BX)
module RangeX = Core.Range_query.Make (BX)
module MonX = Core.Monitor.Make (BX)
module KnnF = Core.Knn.Make (BF)
module Fof = Core.Fof
module Gdist = Core.Gdist
module Classify = Core.Classify

let q = Q.of_int
let qs = Q.of_string
let vec l = Qvec.of_list (List.map Q.of_int l)
let poly l = QP.of_list (List.map Q.of_int l)
let qpoly l = QP.of_list (List.map Q.of_string l)
let set l = Oid.Set.of_list l

let check_set msg expected actual =
  Alcotest.(check (list int)) msg (List.sort compare expected) (Oid.Set.elements actual)

let prop ?(count = 60) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ------------------------------------------------------------------ *)
(* Engine basics: two lines crossing                                    *)
(* ------------------------------------------------------------------ *)

let line ~start a b = Qpiece.of_poly ~start (qpoly [ b; a ])
(* curve a*t + b from [start] *)

let test_engine_two_lines () =
  (* o1 = 10 - t/2, o2 = 2 + t/2: cross at t = 8 *)
  let c1 = line ~start:(q 0) "-1/2" "10" and c2 = line ~start:(q 0) "1/2" "2" in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 20)
      [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2) ]
  in
  Alcotest.(check int) "o2 first" 0
    (match EX.order eng with
     | [ a; _ ] -> (match EX.label a with EX.Obj (2, 0) -> 0 | _ -> 1)
     | _ -> 2);
  let points = ref [] in
  EX.advance eng ~upto:(q 20) ~emit:(function
    | EX.Point i -> points := BX.instant_to_float i :: !points
    | EX.Span _ -> ());
  Alcotest.(check (list (float 1e-9))) "one crossing at 8" [ 8.0 ] (List.rev !points);
  Alcotest.(check int) "o1 now first" 0
    (match EX.order eng with
     | [ a; _ ] -> (match EX.label a with EX.Obj (1, 0) -> 0 | _ -> 1)
     | _ -> 2);
  Alcotest.(check int) "one swap" 1 (EX.stats eng).EX.swaps;
  EX.check_invariants eng

let test_engine_touching_curves () =
  (* o1 = (t-5)^2 + 1 touches o2 = 1 at t=5 without crossing *)
  let c1 = Qpiece.of_poly ~start:(q 0) (poly [ 26; -10; 1 ]) in
  let c2 = Qpiece.constant ~start:(q 0) (q 1) in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 10) [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2) ]
  in
  let points = ref [] in
  EX.advance eng ~upto:(q 10) ~emit:(function
    | EX.Point i -> points := BX.instant_to_float i :: !points
    | EX.Span _ -> ());
  Alcotest.(check (list (float 1e-9))) "touch event at 5" [ 5.0 ] (List.rev !points);
  Alcotest.(check int) "no swap" 0 (EX.stats eng).EX.swaps;
  EX.check_invariants eng

let test_engine_irrational_crossing () =
  (* o1 = t^2, o2 = 2: cross at sqrt 2 (irrational, exact backend) *)
  let c1 = Qpiece.of_poly ~start:(q 0) (poly [ 0; 0; 1 ]) in
  let c2 = Qpiece.constant ~start:(q 0) (q 2) in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 10) [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2) ]
  in
  let points = ref [] in
  EX.advance eng ~upto:(q 10) ~emit:(function
    | EX.Point i -> points := BX.instant_to_float i :: !points
    | EX.Span _ -> ());
  (match !points with
   | [ p ] -> Alcotest.(check (float 1e-9)) "sqrt 2" (sqrt 2.0) p
   | _ -> Alcotest.fail "expected exactly one event");
  EX.check_invariants eng

let test_engine_simultaneous_crossings () =
  (* three lines all meeting at t = 5: order reverses *)
  let c1 = line ~start:(q 0) "1" "0" (* t *) in
  let c2 = Qpiece.constant ~start:(q 0) (q 5) in
  let c3 = line ~start:(q 0) "-1" "10" (* 10 - t *) in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 10)
      [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2); (EX.Obj (3, 0), c3) ]
  in
  let labels () =
    List.map (fun e -> match EX.label e with EX.Obj (o, _) -> o | _ -> -1) (EX.order eng)
  in
  Alcotest.(check (list int)) "initial order" [ 1; 2; 3 ] (labels ());
  EX.advance eng ~upto:(q 10) ~emit:(fun _ -> ());
  Alcotest.(check (list int)) "reversed" [ 3; 2; 1 ] (labels ());
  Alcotest.(check int) "one batch" 1 (EX.stats eng).EX.batches;
  EX.check_invariants eng

let test_engine_birth_death () =
  (* o1 on [0,20]; o2 lives on [5, 12] below o1 *)
  let c1 = Qpiece.constant ~start:(q 0) (q 10) in
  let c2 = Qpiece.make ~stop:(q 12) [ (q 5, poly [ 3 ]) ] in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 20) [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2) ]
  in
  Alcotest.(check int) "one alive at start" 1 (EX.size eng);
  EX.advance eng ~upto:(q 8) ~emit:(fun _ -> ());
  Alcotest.(check int) "two alive at 8" 2 (EX.size eng);
  Alcotest.(check int) "o2 first" 0 (EX.rank_of eng (Option.get (EX.find eng (EX.Obj (2, 0)))));
  EX.advance eng ~upto:(q 20) ~emit:(fun _ -> ());
  Alcotest.(check int) "one alive after death" 1 (EX.size eng);
  let s = EX.stats eng in
  Alcotest.(check int) "births" 1 s.EX.births;
  Alcotest.(check int) "deaths" 1 s.EX.deaths;
  EX.check_invariants eng

(* ------------------------------------------------------------------ *)
(* Figure 2: updates redirect expected crossings                        *)
(* ------------------------------------------------------------------ *)

let test_figure2 () =
  (* o2 closer; curves expected to cross at D = 8.  chdir on o1 at A = 3
     cancels it; chdir on o2 at B = 5 re-creates it earlier, at C = 7. *)
  let c1 = line ~start:(q 0) "-1/2" "10" and c2 = line ~start:(q 0) "1/2" "2" in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 20) [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2) ]
  in
  let points = ref [] in
  let emit = function
    | EX.Point i -> points := BX.instant_to_float i :: !points
    | EX.Span _ -> ()
  in
  (* update at A = 3: o1 turns away -- slope +1/2 from value 8.5 *)
  EX.advance eng ~upto:(q 3) ~emit;
  let c1' = Qpiece.extend_last_from c1 (q 3) (qpoly [ "7"; "1/2" ]) () in
  (* 7 + t/2 passes through (3, 8.5) *)
  EX.replace_curve eng ~at:(q 3) (EX.Obj (1, 0)) c1';
  Alcotest.(check (list (float 1e-9))) "no event before A" [] (List.rev !points);
  (* update at B = 5: o2 accelerates upward -- slope 3 from value 4.5 *)
  EX.advance eng ~upto:(q 5) ~emit;
  let c2' = Qpiece.extend_last_from c2 (q 5) (qpoly [ "-21/2"; "3" ]) () in
  (* 3t - 10.5 passes through (5, 4.5) *)
  EX.replace_curve eng ~at:(q 5) (EX.Obj (2, 0)) c2';
  EX.advance eng ~upto:(q 20) ~emit;
  Alcotest.(check (list (float 1e-9))) "crossing at C = 7 only" [ 7.0 ] (List.rev !points);
  Alcotest.(check int) "o1 closer after C" 0
    (EX.rank_of eng (Option.get (EX.find eng (EX.Obj (1, 0)))));
  EX.check_invariants eng

(* ------------------------------------------------------------------ *)
(* Example 12 / Figure 3: 2-NN with four objects                        *)
(* ------------------------------------------------------------------ *)

(* Curves engineered to the paper's event times (see DESIGN.md, F3):
   o3(t) = 10
   o4(t) = 10 - (t-8)(t-17)/34                 (crosses o3 at 8 and 17)
   o2(t) = 14 - 4t/31                          (crosses o3 at 31)
   o1: 20 - 113t/155 until 12, then slope -97/930 (crosses o2 at 10,
       heading to cross o3 at 24); chdir at 20 to slope -97/465 crosses
       o3 at 22 instead. *)
let example12_curves () =
  let o3 = Qpiece.constant ~start:(q 0) (q 10) in
  let o4 =
    (* 10 - (t^2 - 25t + 136)/34 = -t^2/34 + 25t/34 + (340-136)/34 *)
    Qpiece.of_poly ~start:(q 0) (qpoly [ "204/34"; "25/34"; "-1/34" ])
  in
  let o2 = Qpiece.of_poly ~start:(q 0) (qpoly [ "14"; "-4/31" ]) in
  let o1 =
    Qpiece.make
      [ (q 0, qpoly [ "20"; "-113/155" ]);
        (q 12, qpoly [ "10" (* placeholder replaced below *); "0" ]);
      ]
  in
  ignore o1;
  (* piece 2 of o1: value 1744/155 at t=12, slope -97/930:
     p(t) = 1744/155 - 97/930 (t - 12) = 1744/155 + 97*12/930 - 97t/930 *)
  let o1 =
    Qpiece.make
      [ (q 0, qpoly [ "20"; "-113/155" ]);
        (q 12, QP.add (qpoly [ "1744/155" ]) (QP.mul (qpoly [ "-97/930" ]) (qpoly [ "-12"; "1" ])));
      ]
  in
  (o1, o2, o3, o4)

let o1_after_chdir o1 =
  (* from (20, 4844/465) with slope -97/465: crosses o3 = 10 at t = 22 *)
  Qpiece.extend_last_from o1 (q 20)
    (QP.add (qpoly [ "4844/465" ]) (QP.mul (qpoly [ "-97/465" ]) (qpoly [ "-20"; "1" ])))
    ()

let test_example12_trace () =
  let o1, o2, o3, o4 = example12_curves () in
  Alcotest.(check bool) "o1 continuous" true (Qpiece.is_continuous o1);
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 40)
      [ (EX.Obj (1, 0), o1); (EX.Obj (2, 0), o2); (EX.Obj (3, 0), o3); (EX.Obj (4, 0), o4) ]
  in
  let labels () =
    List.map (fun e -> match EX.label e with EX.Obj (o, _) -> o | _ -> -1) (EX.order eng)
  in
  (* paper: "the ordering is o4 < o3 < o2 < o1" *)
  Alcotest.(check (list int)) "initial order" [ 4; 3; 2; 1 ] (labels ());
  let twonn t = KnnX.R.answer eng (Core.Reader.Knn 2) (EX.Point (BX.instant_of_scalar (q t))) in
  check_set "answer up to current time 3 is {o3, o4}" [ 3; 4 ] (twonn 3);
  let points = ref [] in
  let emit = function
    | EX.Point i -> points := BX.instant_to_float i :: !points
    | EX.Span _ -> ()
  in
  (* "We will process all events before 20 and then perform the update" *)
  EX.advance eng ~upto:(q 20) ~emit;
  Alcotest.(check (list (float 1e-9))) "events 8, 10, 17" [ 8.0; 10.0; 17.0 ] (List.rev !points);
  Alcotest.(check (list int)) "order after 17" [ 4; 3; 1; 2 ] (labels ());
  check_set "2-NN after 17" [ 3; 4 ] (twonn 20);
  (* update: chdir on o1; the crossing expected at 24 moves earlier, to 22 *)
  EX.replace_curve eng ~at:(q 20) (EX.Obj (1, 0)) (o1_after_chdir o1);
  points := [];
  EX.advance eng ~upto:(q 40) ~emit;
  Alcotest.(check (list (float 1e-9))) "then 22 (moved from 24), 31" [ 22.0; 31.0 ]
    (List.rev !points);
  Alcotest.(check (list int)) "final order" [ 4; 1; 2; 3 ] (labels ());
  check_set "final 2-NN is {o4, o1}" [ 1; 4 ] (twonn 35);
  EX.check_invariants eng

let test_example12_without_update () =
  (* without the chdir, the o1/o3 crossing happens at 24 as initially
     expected *)
  let o1, o2, o3, o4 = example12_curves () in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 40)
      [ (EX.Obj (1, 0), o1); (EX.Obj (2, 0), o2); (EX.Obj (3, 0), o3); (EX.Obj (4, 0), o4) ]
  in
  let points = ref [] in
  EX.advance eng ~upto:(q 40) ~emit:(function
    | EX.Point i -> points := BX.instant_to_float i :: !points
    | EX.Span _ -> ());
  Alcotest.(check (list (float 1e-9))) "events" [ 8.0; 10.0; 17.0; 24.0; 31.0 ]
    (List.rev !points)

(* ------------------------------------------------------------------ *)
(* Past sweep (generic FO(f)) on trajectories                           *)
(* ------------------------------------------------------------------ *)

(* 1-d MOD: objects move on a line; the query object sits at the origin. *)
let line_db specs =
  (* specs: (oid, x0 : Q.t, v : Q.t) *)
  let db = DB.empty ~dim:1 ~tau:(q 0) in
  List.fold_left
    (fun db (o, x0, v) ->
      DB.add_initial db o
        (T.linear ~start:(q 0) ~a:(Qvec.of_list [ v ]) ~b:(Qvec.of_list [ x0 ])))
    db specs

let origin_gdist () = Gdist.distance_sq_to_point (vec [ 0 ])

let test_sweep_nearest () =
  (* o1 at 1 moving away (v=1); o2 at 10 moving in (v=-1).
     d1 = (1+t)^2, d2 = (10-t)^2: equal when 1+t = 10-t -> t = 4.5 *)
  let db = line_db [ (1, q 1, q 1); (2, q 10, q (-1)) ] in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 8)) in
  let r = SwX.run ~db ~gdist:(origin_gdist ()) ~query in
  (match r.SwX.timeline with
   | [ TLX.At (_, s0); TLX.Span (_, _, s1); TLX.At (m, s2); TLX.Span (_, _, s3); TLX.At (_, s4) ] ->
     check_set "start" [ 1 ] s0;
     check_set "before crossing" [ 1 ] s1;
     Alcotest.(check (float 1e-9)) "crossing at 4.5" 4.5 (BX.instant_to_float m);
     check_set "tie at crossing" [ 1; 2 ] s2;
     check_set "after" [ 2 ] s3;
     check_set "end" [ 2 ] s4
   | tl -> Alcotest.failf "unexpected timeline shape (%d pieces)" (List.length tl));
  Alcotest.(check int) "one support change" 1 r.SwX.support_changes

let test_sweep_existential_universal () =
  let db = line_db [ (1, q 1, q 1); (2, q 10, q (-1)) ] in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 8)) in
  let r = SwX.run ~db ~gdist:(origin_gdist ()) ~query in
  check_set "existential = both" [ 1; 2 ] (TLX.existential r.SwX.timeline);
  check_set "universal = none" [] (TLX.universal r.SwX.timeline)

let test_sweep_universal_restricted () =
  let db = line_db [ (1, q 1, q 1); (2, q 10, q (-1)) ] in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 4)) in
  let r = SwX.run ~db ~gdist:(origin_gdist ()) ~query in
  check_set "universal = o1" [ 1 ] (TLX.universal r.SwX.timeline)

let test_sweep_within () =
  (* objects within distance 5 of origin: d^2 <= 25 *)
  let db = line_db [ (1, q 1, q 1); (2, q 10, q (-1)) ] in
  let query = Fof.within_q ~bound:(q 25) ~interval:(Fof.Interval.closed (q 0) (q 8)) in
  let r = SwX.run ~db ~gdist:(origin_gdist ()) ~query in
  (* o1: (1+t)^2 <= 25 until t = 4; o2: (10-t)^2 <= 25 from t = 5 *)
  let at t = TLX.find_at r.SwX.timeline (BX.instant_of_scalar t) in
  check_set "t=2: o1" [ 1 ] (Option.get (at (q 2)));
  check_set "t=4: o1 on boundary" [ 1 ] (Option.get (at (q 4)));
  check_set "t=4.5: none" [] (Option.get (at (qs "9/2")));
  check_set "t=6: o2" [ 2 ] (Option.get (at (q 6)));
  (* specialized operator agrees *)
  let rr = RangeX.run ~db ~gdist:(origin_gdist ()) ~bound:(q 25) ~lo:(q 0) ~hi:(q 8) in
  List.iter
    (fun t ->
      let a = Option.get (TLX.find_at r.SwX.timeline (BX.instant_of_scalar t)) in
      let b = Option.get (TLX.find_at rr.RangeX.timeline (BX.instant_of_scalar t)) in
      check_set "range matches generic" (Oid.Set.elements a) b)
    [ q 1; q 3; q 4; qs "9/2"; q 5; q 7 ]

let test_sweep_with_time_term () =
  (* f(y, t+2): query about a shifted time -- o1 nearest when (1+(t+2))^2
     < (10-(t+2))^2, i.e. t+2 < 4.5, t < 2.5 *)
  let db = line_db [ (1, q 1, q 1); (2, q 10, q (-1)) ] in
  let tt = Fof.affine ~scale:Q.one ~offset:(q 2) in
  let query =
    { Fof.y = "y";
      interval = Fof.Interval.closed (q 0) (q 6);
      phi = Fof.Forall ("z", Fof.Cmp (Fof.Le, Fof.Dist ("y", tt), Fof.Dist ("z", tt))) }
  in
  let r = SwX.run ~db ~gdist:(origin_gdist ()) ~query in
  let at t = Option.get (TLX.find_at r.SwX.timeline (BX.instant_of_scalar t)) in
  check_set "t=1" [ 1 ] (at (q 1));
  check_set "t=2.5 tie" [ 1; 2 ] (at (qs "5/2"));
  check_set "t=3" [ 2 ] (at (q 3))

(* ------------------------------------------------------------------ *)
(* k-NN operator vs. generic evaluation, random workloads               *)
(* ------------------------------------------------------------------ *)

let arb_specs =
  QCheck.list_of_size (QCheck.Gen.int_range 2 7)
    (QCheck.pair (QCheck.int_range (-20) 20) (QCheck.int_range (-3) 3))

let specs_to_db specs =
  List.mapi (fun i (x0, v) -> (i + 1, q x0, q v)) specs |> line_db

(* brute-force k-NN at rational time: sort by squared distance, take k with
   ties *)
let brute_knn specs k (t : Q.t) =
  let d (x0, v) =
    let open Q.Infix in
    let p = q x0 +/ (q v */ t) in
    p */ p
  in
  let ds = List.mapi (fun i s -> (i + 1, d s)) specs in
  let sorted = List.sort (fun (_, a) (_, b) -> Q.compare a b) ds in
  if List.length sorted <= k then set (List.map fst sorted)
  else begin
    let kth = snd (List.nth sorted (k - 1)) in
    set (List.map fst (List.filter (fun (_, d) -> Q.compare d kth <= 0) sorted))
  end

let knn_matches_brute (specs, k) =
  let k = 1 + (abs k mod 3) in
  let db = specs_to_db specs in
  let r = KnnX.run ~db ~gdist:(origin_gdist ()) ~k ~lo:(q 0) ~hi:(q 10) in
  (* check at a grid of sample times *)
  List.for_all
    (fun num ->
      let t = Q.div (q num) (q 4) in
      match TLX.find_at r.KnnX.timeline (BX.instant_of_scalar t) with
      | None -> false
      | Some answer ->
        let brute = brute_knn specs k t in
        (* on spans the answer has exactly k elements (ties broken); the
           brute answer includes all ties: sweep answer must be a subset
           with the same distance multiset, so compare by distances *)
        let dist o =
          let x0, v = List.nth specs (o - 1) in
          let open Q.Infix in
          let p = q x0 +/ (q v */ t) in
          p */ p
        in
        let dists s = List.sort Q.compare (List.map dist (Oid.Set.elements s)) in
        (match List.length (Oid.Set.elements answer) = min k (List.length specs) with
         | true ->
           let da = dists answer and db_ = dists brute in
           let rec prefix a b =
             match a, b with
             | [], _ -> true
             | x :: a', y :: b' -> Q.equal x y && prefix a' b'
             | _ -> false
           in
           prefix da db_
         | false -> Oid.Set.equal answer brute))
    (List.init 41 (fun i -> i))

let knn_exact_matches_float (specs, k) =
  let k = 1 + (abs k mod 3) in
  let db = specs_to_db specs in
  let rx = KnnX.run ~db ~gdist:(origin_gdist ()) ~k ~lo:(q 0) ~hi:(q 10) in
  let rf = KnnF.run ~db ~gdist:(origin_gdist ()) ~k ~lo:(q 0) ~hi:(q 10) in
  (* same number of support changes and same answers at integer times *)
  rx.KnnX.stats.KnnX.E.crossings = rf.KnnF.stats.KnnF.E.crossings
  && List.for_all
       (fun i ->
         let t = q i in
         match
           ( TLX.find_at rx.KnnX.timeline (BX.instant_of_scalar t),
             KnnF.TL.find_at rf.KnnF.timeline (BF.instant_of_scalar (Q.to_float t)) )
         with
         | Some a, Some b -> Oid.Set.equal a b
         | _ -> false)
       (* avoid integer times where ties might resolve differently in float:
          sample at thirds *)
       []
  |> fun base ->
  base
  && List.for_all
       (fun i ->
         let t = Q.div (q (3 * i + 1)) (q 3) in
         match
           ( TLX.find_at rx.KnnX.timeline (BX.instant_of_scalar t),
             KnnF.TL.find_at rf.KnnF.timeline (BF.instant_of_scalar (Q.to_float t)) )
         with
         | Some a, Some b -> Oid.Set.equal a b
         | _ -> false)
       (List.init 9 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Monitor: future queries with updates                                 *)
(* ------------------------------------------------------------------ *)

let test_monitor_basic () =
  (* query [0, 20]; db last update 0; updates arrive at 5 and 12 *)
  let db = line_db [ (1, q 1, q 1); (2, q 10, q (-1)) ] in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 20)) in
  let m = MonX.create ~db ~gdist:(origin_gdist ()) ~query () in
  Alcotest.(check bool) "classified continuing/future" true
    (Classify.classify db query <> Classify.Past);
  (* before any update, nothing beyond time 0 is valid *)
  (* o2 turns around at 4 (before reaching the crossing at 4.5):
     chdir(2, 4, +1): o2 at 4 is 6, moving away again *)
  MonX.apply_update_exn m (U.Chdir { oid = 2; tau = q 4; a = vec [ 1 ] });
  (* now o1 stays nearest forever: finalize and check *)
  let tl = MonX.finalize m in
  let at t = Option.get (MonX.TL.find_at tl (BX.instant_of_scalar t)) in
  check_set "t=2" [ 1 ] (at (q 2));
  check_set "t=10" [ 1 ] (at (q 10));
  check_set "t=20" [ 1 ] (at (q 20));
  check_set "universal = o1" [ 1 ] (MonX.TL.universal tl)

let test_monitor_matches_lazy_sweep () =
  (* eager monitor result must equal a lazy past sweep over the final db *)
  let db = line_db [ (1, q 1, q 1); (2, q 10, q (-1)); (3, q (-20), q 2) ] in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 20)) in
  let m = MonX.create ~db ~gdist:(origin_gdist ()) ~query () in
  let updates =
    [ U.Chdir { oid = 2; tau = q 3; a = vec [ 0 ] };
      U.New { oid = 4; tau = q 6; a = vec [ -1 ]; b = vec [ 2 ] };
      U.Terminate { oid = 1; tau = q 9 };
      U.Chdir { oid = 4; tau = q 15; a = vec [ 3 ] };
    ]
  in
  List.iter (MonX.apply_update_exn m) updates;
  let tl_eager = MonX.finalize m in
  let final_db = DB.apply_all_exn db updates in
  let r_lazy = SwX.run ~db:final_db ~gdist:(origin_gdist ()) ~query in
  (* compare answers on a dense rational grid *)
  List.iter
    (fun i ->
      let t = Q.div (q i) (q 2) in
      let a = TLX.find_at tl_eager (BX.instant_of_scalar t) in
      let b = TLX.find_at r_lazy.SwX.timeline (BX.instant_of_scalar t) in
      match a, b with
      | Some a, Some b ->
        check_set (Printf.sprintf "t=%d/2" i) (Oid.Set.elements b) a
      | _ -> Alcotest.failf "timeline gap at %d/2" i)
    (List.init 41 (fun i -> i))

let test_monitor_insert_and_remove () =
  let db = line_db [ (1, q 5, q 0) ] in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 10)) in
  let m = MonX.create ~db ~gdist:(origin_gdist ()) ~query () in
  (* new object at 2, closer *)
  MonX.apply_update_exn m (U.New { oid = 2; tau = q 2; a = vec [ 0 ]; b = vec [ 1 ] });
  (* it terminates at 6 *)
  MonX.apply_update_exn m (U.Terminate { oid = 2; tau = q 6 });
  let tl = MonX.finalize m in
  let at t = Option.get (MonX.TL.find_at tl (BX.instant_of_scalar t)) in
  check_set "before birth" [ 1 ] (at (q 1));
  check_set "while o2 lives" [ 2 ] (at (q 4));
  check_set "after o2 death" [ 1 ] (at (q 8))

let test_monitor_theorem10_chdir_query () =
  (* the query object itself turns: replace the g-distance wholesale *)
  let db = line_db [ (1, q 0, q 0); (2, q 8, q 0) ] in
  (* gamma starts at 2 moving +1: d1 grows, d2 shrinks; cross when
     gamma = midpoint 4 -> t = 2... distances: |2+t-0| vs |2+t-8|:
     equal when 2+t = 4 -> t = 2 *)
  let gamma = T.linear ~start:(q 0) ~a:(vec [ 1 ]) ~b:(vec [ 2 ]) in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 10)) in
  let m = MonX.create ~db ~gdist:(Gdist.euclidean_sq ~gamma) ~query () in
  (* at tau=1 gamma reverses: chdir query trajectory *)
  let gamma' = T.chdir gamma (q 1) (vec [ -1 ]) in
  MonX.chdir_query m ~tau:(q 1) ~gdist:(Gdist.euclidean_sq ~gamma:gamma');
  let tl = MonX.finalize m in
  let at t = Option.get (MonX.TL.find_at tl (BX.instant_of_scalar t)) in
  (* gamma heads back toward 0: o1 stays nearest forever *)
  check_set "t=0.5" [ 1 ] (at (qs "1/2"));
  check_set "t=5" [ 1 ] (at (q 5));
  check_set "universal" [ 1 ] (MonX.TL.universal tl)

let test_monitor_theorem10_vs_sweep () =
  (* Theorem 10 under load: interleave object updates with a chdir of the
     query trajectory itself, then check the O(N)-rebuilt monitor against
     a from-scratch lazy sweep over the final database with the same
     piecewise gamma *)
  let db = line_db [ (1, q 0, q 1); (2, q 12, q (-2)); (3, q (-6), q 0) ] in
  let gamma = T.linear ~start:(q 0) ~a:(vec [ 2 ]) ~b:(vec [ 1 ]) in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 16)) in
  let m = MonX.create ~db ~gdist:(Gdist.euclidean_sq ~gamma) ~query () in
  let before = [ U.Chdir { oid = 2; tau = q 2; a = vec [ 1 ] } ] in
  let after =
    [ U.New { oid = 4; tau = q 7; a = vec [ 0 ]; b = vec [ -2 ] };
      U.Terminate { oid = 3; tau = q 11 } ]
  in
  List.iter (MonX.apply_update_exn m) before;
  let gamma' = T.chdir gamma (q 5) (vec [ -1 ]) in
  MonX.chdir_query m ~tau:(q 5) ~gdist:(Gdist.euclidean_sq ~gamma:gamma');
  Alcotest.(check (list string)) "audit clean after the O(N) rebuild" []
    (MonX.audit m);
  List.iter (MonX.apply_update_exn m) after;
  let tl_eager = MonX.finalize m in
  let final_db = DB.apply_all_exn db (before @ after) in
  let r_lazy =
    SwX.run ~db:final_db ~gdist:(Gdist.euclidean_sq ~gamma:gamma') ~query
  in
  List.iter
    (fun i ->
      let t = Q.div (q i) (q 2) in
      match
        ( TLX.find_at tl_eager (BX.instant_of_scalar t),
          TLX.find_at r_lazy.SwX.timeline (BX.instant_of_scalar t) )
      with
      | Some a, Some b ->
        check_set (Printf.sprintf "t=%d/2" i) (Oid.Set.elements b) a
      | _ -> Alcotest.failf "timeline gap at %d/2" i)
    (List.init 33 (fun i -> i))

(* A live subscription drains its monitor after every update.  The drains,
   concatenated, must be exactly the validated stream one drain at the end
   returns, and a drain right after a drain is empty. *)
let test_monitor_drains_concatenate () =
  let module Gen = Moq_workload.Gen in
  let db = Gen.uniform_db ~seed:17 ~n:10 ~dim:2 ~extent:100 ~speed:5 () in
  let updates = Gen.chdir_stream ~seed:18 ~db ~start:(q 0) ~gap:(qs "1/4") ~count:240 ~speed:5 () in
  Alcotest.(check bool) "at least 200 updates" true (List.length updates >= 200);
  let query = Fof.knn_q ~k:2 ~interval:(Fof.Interval.closed (q 0) (q 80)) in
  let gdist = Gdist.distance_sq_to_point (vec [ 0; 0 ]) in
  let show piece =
    let s = String.concat "," (List.map string_of_int (Oid.Set.elements (MonX.TL.set_of piece))) in
    match piece with
    | MonX.TL.Span (a, b, _) -> Format.asprintf "(%a, %a): %s" BX.pp_instant a BX.pp_instant b s
    | MonX.TL.At (a, _) -> Format.asprintf "[%a]: %s" BX.pp_instant a s
  in
  let live = MonX.create ~db ~gdist ~query () and once = MonX.create ~db ~gdist ~query () in
  let drained = ref (MonX.drain_valid live) in
  List.iter
    (fun u ->
      MonX.apply_update_exn live u;
      MonX.apply_update_exn once u;
      drained := List.rev_append (MonX.drain_valid live) !drained;
      Alcotest.(check int) "drain after drain" 0 (List.length (MonX.drain_valid live)))
    updates;
  let stream = List.map show (MonX.drain_valid once) in
  Alcotest.(check bool) "the updates validated pieces" true (List.length stream > List.length updates);
  Alcotest.(check (list string)) "drains concatenate to the stream" stream
    (List.rev_map show !drained)

(* ------------------------------------------------------------------ *)
(* Classification                                                       *)
(* ------------------------------------------------------------------ *)

let test_classify () =
  let db = line_db [ (1, q 0, q 1) ] in
  (* last update = 0 *)
  let mk lo hi = Fof.nearest_q ~interval:(Fof.Interval.closed lo hi) in
  Alcotest.(check bool) "past" true (Classify.classify db (mk (q (-10)) (q 0)) = Classify.Past);
  Alcotest.(check bool) "future" true (Classify.classify db (mk (q 1) (q 5)) = Classify.Future);
  Alcotest.(check bool) "continuing" true
    (Classify.classify db (mk (q (-5)) (q 5)) = Classify.Continuing);
  (* a time term reaching into the future makes a past-looking interval not past *)
  let tt = Fof.affine ~scale:Q.one ~offset:(q 100) in
  let shifted =
    { Fof.y = "y";
      interval = Fof.Interval.closed (q (-10)) (q 0);
      phi = Fof.Forall ("z", Fof.Cmp (Fof.Le, Fof.Dist ("y", tt), Fof.Dist ("z", tt))) }
  in
  Alcotest.(check bool) "shifted is not past" true
    (Classify.classify db shifted <> Classify.Past)

let () =
  Alcotest.run "core"
    [ ("engine", [
        Alcotest.test_case "two lines" `Quick test_engine_two_lines;
        Alcotest.test_case "touching curves" `Quick test_engine_touching_curves;
        Alcotest.test_case "irrational crossing (exact)" `Quick test_engine_irrational_crossing;
        Alcotest.test_case "simultaneous crossings" `Quick test_engine_simultaneous_crossings;
        Alcotest.test_case "birth and death" `Quick test_engine_birth_death;
      ]);
      ("figure-2", [ Alcotest.test_case "redirections" `Quick test_figure2 ]);
      ("example-12", [
        Alcotest.test_case "paper trace with update" `Quick test_example12_trace;
        Alcotest.test_case "without update: crossing at 24" `Quick test_example12_without_update;
      ]);
      ("sweep", [
        Alcotest.test_case "1-NN timeline" `Quick test_sweep_nearest;
        Alcotest.test_case "existential/universal" `Quick test_sweep_existential_universal;
        Alcotest.test_case "universal on restricted interval" `Quick test_sweep_universal_restricted;
        Alcotest.test_case "within distance" `Quick test_sweep_within;
        Alcotest.test_case "affine time term" `Quick test_sweep_with_time_term;
      ]);
      ("knn-props", [
        prop "knn matches brute force on grid" (QCheck.pair arb_specs QCheck.small_int)
          knn_matches_brute;
        prop "exact and float backends agree" (QCheck.pair arb_specs QCheck.small_int)
          knn_exact_matches_float;
      ]);
      ("monitor", [
        Alcotest.test_case "basic" `Quick test_monitor_basic;
        Alcotest.test_case "eager matches lazy" `Quick test_monitor_matches_lazy_sweep;
        Alcotest.test_case "insert and remove" `Quick test_monitor_insert_and_remove;
        Alcotest.test_case "theorem 10 chdir query" `Quick test_monitor_theorem10_chdir_query;
        Alcotest.test_case "theorem 10 vs lazy sweep" `Quick test_monitor_theorem10_vs_sweep;
        Alcotest.test_case "drains concatenate to the stream" `Quick test_monitor_drains_concatenate;
      ]);
      ("classify", [ Alcotest.test_case "past/future/continuing" `Quick test_classify ]);
    ]
