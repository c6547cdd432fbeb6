(* Edge cases and adversarial scenarios for the sweep engine, the FO(f)
   semantics, and the monitor. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module QP = Moq_poly.Qpoly
module Qpiece = Moq_poly.Piecewise.Qpiece
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid
module BX = Moq_core.Backend.Exact
module EX = Moq_core.Engine.Make (BX)
module SwX = Moq_core.Sweep.Make (BX)
module TLX = SwX.TL
module KnnX = Moq_core.Knn.Make (BX)
module MonX = Moq_core.Monitor.Make (BX)
module SupX = Moq_core.Support.Make (BX)
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist
module Gen = Moq_workload.Gen
module CS = Moq_core.Curve_store

let q = Q.of_int
let qs = Q.of_string

let check_set msg expected actual =
  Alcotest.(check (list int)) msg (List.sort compare expected) (Oid.Set.elements actual)

let prop ?(count = 40) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let line_db specs =
  List.fold_left
    (fun db (o, x0, v) ->
      DB.add_initial db o
        (T.linear ~start:(q 0) ~a:(Qvec.of_list [ q v ]) ~b:(Qvec.of_list [ q x0 ])))
    (DB.empty ~dim:1 ~tau:(q 0))
    specs

let origin = Gdist.distance_sq_to_point (Qvec.of_list [ q 0 ])

(* ------------------------------------------------------------------ *)
(* Degenerate databases and intervals                                   *)
(* ------------------------------------------------------------------ *)

let test_empty_db () =
  let db = DB.empty ~dim:1 ~tau:(q 0) in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 10)) in
  let r = SwX.run ~db ~gdist:origin ~query in
  check_set "no answers ever" [] (TLX.existential r.SwX.timeline);
  Alcotest.(check int) "no events" 0 r.SwX.support_changes

let test_single_object () =
  let db = line_db [ (1, 3, 1) ] in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 10)) in
  let r = SwX.run ~db ~gdist:origin ~query in
  check_set "alone and nearest" [ 1 ] (TLX.universal r.SwX.timeline)

let test_point_interval () =
  let db = line_db [ (1, 1, 0); (2, 5, 0) ] in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 3) (q 3)) in
  let r = SwX.run ~db ~gdist:origin ~query in
  (match r.SwX.timeline with
   | [ TLX.At (i, s) ] ->
     Alcotest.(check (float 1e-9)) "instant" 3.0 (BX.instant_to_float i);
     check_set "answer" [ 1 ] s
   | _ -> Alcotest.fail "expected a single At piece");
  check_set "universal = existential" [ 1 ] (TLX.universal r.SwX.timeline)

let test_everyone_dead_in_interval () =
  (* object's life ends before the query interval begins *)
  let tr = T.terminate (T.linear ~start:(q 0) ~a:(Qvec.of_list [ q 1 ]) ~b:(Qvec.of_list [ q 0 ])) (q 2) in
  let db = DB.add_initial (DB.empty ~dim:1 ~tau:(q 0)) 1 tr in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 5) (q 10)) in
  let r = SwX.run ~db ~gdist:origin ~query in
  check_set "dead objects answer nothing" [] (TLX.existential r.SwX.timeline)

let test_born_and_dying_inside_interval () =
  (* o2 exists only on [3, 6]; o1 always; o2 closer while alive *)
  let tr2 =
    T.terminate
      (T.linear ~start:(q 3) ~a:(Qvec.of_list [ q 0 ]) ~b:(Qvec.of_list [ q 1 ]))
      (q 6)
  in
  let db = DB.add_initial (line_db [ (1, 5, 0) ]) 2 tr2 in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 10)) in
  let r = SwX.run ~db ~gdist:origin ~query in
  let at t = Option.get (TLX.find_at r.SwX.timeline (BX.instant_of_scalar t)) in
  check_set "before birth" [ 1 ] (at (q 1));
  check_set "while alive" [ 2 ] (at (q 4));
  check_set "at death (closed lifetime)" [ 2 ] (at (q 6));
  check_set "after death" [ 1 ] (at (q 8))

(* ------------------------------------------------------------------ *)
(* Identical curves and exact ties                                      *)
(* ------------------------------------------------------------------ *)

let test_identical_objects () =
  (* two objects with identical trajectories: permanent tie, no events *)
  let db = line_db [ (1, 4, 1); (2, 4, 1); (3, 50, 0) ] in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 10)) in
  let r = SwX.run ~db ~gdist:origin ~query in
  check_set "both tied objects always nearest" [ 1; 2 ] (TLX.universal r.SwX.timeline);
  Alcotest.(check int) "no support changes" 0 r.SwX.support_changes

let test_knn_identical_ties_on_spans () =
  (* objects 1 and 2 stand still together at x = 3; object 3 comes in from
     x = 10 and passes them at t = 7 *)
  let db = line_db [ (1, 3, 0); (2, 3, 0); (3, 10, -1) ] in
  let r = KnnX.run ~db ~gdist:origin ~k:1 ~lo:(q 0) ~hi:(q 10) in
  let at t = Option.get (TLX.find_at r.KnnX.timeline (BX.instant_of_scalar t)) in
  check_set "co-located pair on the open span" [ 1; 2 ] (at (q 3));
  check_set "all three as 3 passes" [ 1; 2; 3 ] (at (q 7));
  check_set "3 alone after" [ 3 ] (at (q 9));
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 10)) in
  let s = SwX.run ~db ~gdist:origin ~query in
  let pp tl = Format.asprintf "%a" TLX.pp tl in
  Alcotest.(check string) "Knn.run = Sweep over nearest_q" (pp s.SwX.timeline)
    (pp r.KnnX.timeline)

let test_tangent_curves_knn () =
  (* curves touch without crossing: 1-NN answer includes both at the touch *)
  let c1 = Qpiece.of_poly ~start:(q 0) (QP.of_list [ q 26; q (-10); q 1 ]) in
  let c2 = Qpiece.constant ~start:(q 0) (q 1) in
  let eng = EX.create ~start:(q 0) ~horizon:(q 10) [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2) ] in
  EX.advance eng ~upto:(q 5) ~emit:(fun _ -> ());
  (* no event strictly before 5 *)
  Alcotest.(check int) "no crossings yet" 0 (EX.stats eng).EX.crossings;
  let touch = ref None in
  EX.advance eng ~upto:(q 10) ~emit:(function
    | EX.Point _ as p -> touch := Some (KnnX.R.answer eng (Moq_core.Reader.Knn 1) p)
    | EX.Span _ -> ());
  (match !touch with
   | Some s -> check_set "tie at tangency" [ 1; 2 ] s
   | None -> Alcotest.fail "expected the touch event");
  check_set "separate after" [ 2 ]
    (KnnX.R.answer eng (Moq_core.Reader.Knn 1) (EX.Point (BX.instant_of_scalar (q 7))))

(* ------------------------------------------------------------------ *)
(* FO(f) formula corners                                                *)
(* ------------------------------------------------------------------ *)

let test_same_atom () =
  (* "nearest object other than itself": ∀z (z == y ∨ f(y,t) ≤ f(z,t)) is
     just 1-NN; the dual ∃z (¬(z == y) ∧ f(z,t) < f(y,t)) is "not nearest" *)
  let db = line_db [ (1, 1, 0); (2, 5, 0) ] in
  let not_nearest =
    { Fof.y = "y";
      interval = Fof.Interval.closed (q 0) (q 4);
      phi =
        Fof.Exists
          ( "z",
            Fof.And
              ( Fof.Not (Fof.Same ("z", "y")),
                Fof.Cmp (Fof.Lt, Fof.Dist ("z", Fof.t_var), Fof.Dist ("y", Fof.t_var)) ) ) }
  in
  let r = SwX.run ~db ~gdist:origin ~query:not_nearest in
  check_set "o2 is never nearest" [ 2 ] (TLX.universal r.SwX.timeline)

let test_beyond_query () =
  let db = line_db [ (1, 1, 0); (2, 10, 0) ] in
  let query = Fof.beyond_q ~bound:(q 25) ~interval:(Fof.Interval.closed (q 0) (q 4)) in
  let r = SwX.run ~db ~gdist:origin ~query in
  check_set "only the far one beyond 5" [ 2 ] (TLX.universal r.SwX.timeline)

let test_constant_time_term () =
  (* f(y, 2): compare distances as they were at the fixed instant 2 *)
  let db = line_db [ (1, 1, 1); (2, 10, -4) ] in
  (* at t=2: o1 at 3 (d²=9), o2 at 2 (d²=4): o2 closer at that frozen time *)
  let tt = Fof.at_time (q 2) in
  let query =
    { Fof.y = "y";
      interval = Fof.Interval.closed (q 0) (q 8);
      phi = Fof.Forall ("z", Fof.Cmp (Fof.Le, Fof.Dist ("y", tt), Fof.Dist ("z", tt))) }
  in
  let r = SwX.run ~db ~gdist:origin ~query in
  check_set "frozen-time nearest is o2, always" [ 2 ] (TLX.universal r.SwX.timeline);
  Alcotest.(check int) "constant curves never cross" 0 r.SwX.support_changes

let test_ne_and_eq_atoms () =
  let db = line_db [ (1, 2, 1); (2, 10, -1) ] in
  (* equidistant exactly when 2+t = 10-t (t=4) *)
  let eq_query =
    { Fof.y = "y";
      interval = Fof.Interval.closed (q 0) (q 8);
      phi =
        Fof.Exists
          ("z", Fof.And (Fof.Not (Fof.Same ("z", "y")),
                         Fof.Cmp (Fof.Eq, Fof.Dist ("y", Fof.t_var), Fof.Dist ("z", Fof.t_var)))) }
  in
  let r = SwX.run ~db ~gdist:origin ~query:eq_query in
  let at t = Option.get (TLX.find_at r.SwX.timeline (BX.instant_of_scalar t)) in
  check_set "not equidistant at 1" [] (at (q 1));
  check_set "equidistant at 4" [ 1; 2 ] (at (q 4));
  check_set "not after" [] (at (q 6))

let prop_knn_formula_matches_operator =
  prop ~count:25 "knn_q formula = Knn operator (k = 1..3)"
    (QCheck.pair (QCheck.int_range 0 10000) (QCheck.int_range 1 3))
    (fun (seed, k) ->
      let db = Gen.uniform_db ~seed ~n:5 ~extent:25 ~speed:3 () in
      let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
      let gdist = Gdist.euclidean_sq ~gamma in
      let interval = Fof.Interval.closed (q 0) (q 12) in
      let generic = SwX.run ~db ~gdist ~query:(Fof.knn_q ~k ~interval) in
      let op = KnnX.run ~db ~gdist ~k ~lo:(q 0) ~hi:(q 12) in
      List.for_all
        (fun j ->
          let t = Q.div (q (4 * j + 1)) (q 3) in
          match
            ( TLX.find_at generic.SwX.timeline (BX.instant_of_scalar t),
              TLX.find_at op.KnnX.timeline (BX.instant_of_scalar t) )
          with
          | Some a, Some b ->
            (* the formula is tie-inclusive everywhere; the operator breaks
               span ties by label, so compare by distance multiset *)
            let dist o =
              let tr = Option.get (DB.find db o) in
              Moq_poly.Piecewise.Qpiece.eval (Gdist.curve gdist tr) t
            in
            let key s = List.sort Q.compare (List.map dist (Oid.Set.elements s)) in
            let ka = key a and kb = key b in
            let rec prefix a b =
              match a, b with
              | [], _ -> true
              | x :: a', y :: b' -> Q.equal x y && prefix a' b'
              | _ -> false
            in
            (* operator answer ⊆ formula answer, matching distances *)
            prefix kb ka && List.length ka >= List.length kb
          | _ -> false)
        (List.init 9 (fun j -> j)))

(* ------------------------------------------------------------------ *)
(* Support extraction                                                   *)
(* ------------------------------------------------------------------ *)

let test_support_relation () =
  let db = line_db [ (1, 1, 1); (2, 10, -1) ] in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 10)
      (List.map
         (fun (o, tr) -> (EX.Obj (o, 0), BX.curve_of_qpiece (Gdist.curve origin tr)))
         (DB.objects db))
  in
  let s0 = SupX.current eng (BX.instant_of_scalar (q 0)) in
  Alcotest.(check int) "one adjacent atom" 1 (List.length s0);
  (match s0 with
   | [ a ] ->
     Alcotest.(check bool) "o1 below o2" true
       (EX.compare_label a.SupX.left (EX.Obj (1, 0)) = 0 && a.SupX.rel = SupX.Below)
   | _ -> ());
  (* equality at the meeting instant 4.5: (1+t)² = (10-t)² *)
  EX.advance eng ~upto:(q 10) ~emit:(fun _ -> ());
  let s1 = SupX.current eng (BX.instant_of_scalar (qs "9/2")) in
  (match s1 with
   | [ a ] -> Alcotest.(check bool) "equal at crossing" true (a.SupX.rel = SupX.Equal)
   | _ -> Alcotest.fail "one atom expected")

(* ------------------------------------------------------------------ *)
(* Monitor corner cases                                                 *)
(* ------------------------------------------------------------------ *)

let test_update_beyond_horizon () =
  (* updates after the query interval end must not disturb the answer *)
  let db = line_db [ (1, 1, 0); (2, 5, 0) ] in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 10)) in
  let m = MonX.create ~db ~gdist:origin ~query () in
  MonX.apply_update_exn m (U.Chdir { oid = 2; tau = q 50; a = Qvec.of_list [ q (-10) ] });
  let tl = MonX.finalize m in
  check_set "o1 nearest throughout" [ 1 ] (TLX.universal tl)

let test_update_exactly_at_event_time () =
  (* o2 overtakes o1 at t = 2; an update arrives exactly at t = 2 *)
  let db = line_db [ (1, 3, 0); (2, 7, -2) ] in
  (* d1 = 9; d2 = (7-2t)^2 = 9 at t = 2 (and t = 5) *)
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 10)) in
  let m = MonX.create ~db ~gdist:origin ~query () in
  (* freeze o2 exactly at the crossing instant, at distance 3 = |o1| *)
  MonX.apply_update_exn m (U.Chdir { oid = 2; tau = q 2; a = Qvec.of_list [ q 0 ] });
  let tl = MonX.finalize m in
  let at t = Option.get (TLX.find_at tl (BX.instant_of_scalar t)) in
  check_set "before: o1" [ 1 ] (at (q 1));
  (* both at distance 3 from t = 2 on: permanent tie *)
  check_set "after: tie" [ 1; 2 ] (at (q 7))

let test_monitor_on_past_interval () =
  (* query entirely in the past: monitor validates immediately *)
  let db = line_db [ (1, 1, 1); (2, 10, -1) ] in
  let db = DB.apply_exn db (U.Chdir { oid = 1; tau = q 20; a = Qvec.of_list [ q 0 ] }) in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 8)) in
  Alcotest.(check bool) "classified past" true
    (Moq_core.Classify.classify db query = Moq_core.Classify.Past);
  let m = MonX.create ~db ~gdist:origin ~query () in
  let tl = MonX.valid_timeline m in
  let r = SwX.run ~db ~gdist:origin ~query in
  List.iter
    (fun j ->
      let t = Q.div (q j) (q 2) in
      match TLX.find_at tl (BX.instant_of_scalar t), TLX.find_at r.SwX.timeline (BX.instant_of_scalar t) with
      | Some a, Some b -> check_set "monitor = sweep on past" (Oid.Set.elements b) a
      | _ -> Alcotest.fail "gap")
    (List.init 17 (fun j -> j))

(* ------------------------------------------------------------------ *)
(* Curve store                                                          *)
(* ------------------------------------------------------------------ *)

(* An entry is reused while the trajectory is physically the same, and
   a changed trajectory gets the curve Gdist.curve builds. *)
let test_curve_store_validity () =
  let db = line_db [ (1, 1, 1); (2, 10, -1); (3, -4, 2) ] in
  let s = CS.create origin in
  let read db = CS.curves s db (fun o tr c -> (o, tr, c)) in
  let first = read db in
  Alcotest.(check int) "one entry per object" 3 (CS.size s);
  List.iter2
    (fun (o, _, c) (o', _, c') ->
      Alcotest.(check bool) "warm read reuses the curve" true (o = o' && c == c'))
    first (read db);
  let db' = DB.apply_exn db (U.Chdir { oid = 2; tau = q 3; a = Qvec.of_list [ q 1 ] }) in
  let second = read db' in
  List.iter2
    (fun (o, tr, c) (_, _, c') ->
      Alcotest.(check bool) "= Gdist.curve" true (Qpiece.equal c (Gdist.curve origin tr));
      Alcotest.(check bool) "rebuilt iff the trajectory changed" (o = 2) (c != c'))
    second first;
  let _, tr2, c2 = List.nth second 1 in
  Alcotest.(check bool) "one-object read hits" true (CS.curve s 2 tr2 == c2);
  (* a whole-MOD read of a smaller MOD trims the store to its objects *)
  ignore (read (line_db [ (1, 1, 1) ]));
  Alcotest.(check int) "trimmed to the MOD served" 1 (CS.size s);
  CS.clear s;
  Alcotest.(check int) "cleared" 0 (CS.size s)

(* Monitors over one store and one committed MOD share an updated
   object's curve, hand the identity time term the base curve itself,
   and answer as a monitor without a store does. *)
let test_curve_store_monitors () =
  let db = line_db [ (1, 1, 1); (2, 10, -1); (3, -4, 2) ] in
  let s = CS.create origin in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 20)) in
  let shared () = MonX.create ~curves:s ~db ~gdist:origin ~query () in
  let m1 = shared () and m2 = shared () and plain = MonX.create ~db ~gdist:origin ~query () in
  let base m o = Option.get (Oid.Map.find o m.MonX.problem.MonX.P.curves).(0) in
  Alcotest.(check bool) "identity time term keeps the base curve" true
    (base m1 1 == CS.curve s 1 (Option.get (DB.find db 1)));
  let db = ref db in
  List.iter
    (fun u ->
      db := DB.apply_exn !db u;
      MonX.apply_update_exn plain u;
      List.iter
        (fun m ->
          match MonX.apply_update ~committed:!db m u with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%a" DB.pp_error e)
        [ m1; m2 ];
      let o = U.oid u in
      Alcotest.(check bool) "one curve for both monitors" true (base m1 o == base m2 o))
    [ U.Chdir { oid = 2; tau = q 3; a = Qvec.of_list [ q 1 ] };
      U.New { oid = 4; tau = q 5; a = Qvec.of_list [ q 0 ]; b = Qvec.of_list [ q 2 ] };
      U.Terminate { oid = 1; tau = q 8 } ];
  Alcotest.(check int) "one entry per object" 4 (CS.size s);
  let want = MonX.finalize plain in
  Alcotest.(check bool) "= monitor without a store" true
    (MonX.finalize m1 = want && MonX.finalize m2 = want)

(* ------------------------------------------------------------------ *)
(* Discontinuous g-distances (the paper's Section 5 relaxation)         *)
(* ------------------------------------------------------------------ *)

let test_jump_reorders () =
  (* o1 = 10 until t = 5, then drops to 1 (no crossing root exists);
     o2 = 4 constant.  The order must flip exactly at the jump. *)
  let c1 = Qpiece.make [ (q 0, QP.constant (q 10)); (q 5, QP.constant (q 1)) ] in
  let c2 = Qpiece.constant ~start:(q 0) (q 4) in
  Alcotest.(check bool) "c1 really discontinuous" false (Qpiece.is_continuous c1);
  let eng = EX.create ~start:(q 0) ~horizon:(q 10) [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2) ] in
  let first () =
    match EX.first_n eng 1 with
    | [ e ] -> (match EX.label e with EX.Obj (o, _) -> o | _ -> -1)
    | _ -> -1
  in
  Alcotest.(check int) "o2 nearest initially" 2 (first ());
  let points = ref [] in
  EX.advance eng ~upto:(q 10) ~emit:(function
    | EX.Point i -> points := BX.instant_to_float i :: !points
    | EX.Span _ -> ());
  Alcotest.(check (list (float 1e-9))) "one event, at the jump" [ 5.0 ] (List.rev !points);
  Alcotest.(check int) "o1 nearest after the jump" 1 (first ());
  Alcotest.(check int) "counted as a jump" 1 (EX.stats eng).EX.jumps;
  Alcotest.(check int) "no crossings" 0 (EX.stats eng).EX.crossings;
  EX.check_invariants eng

let test_jump_then_crossing () =
  (* a discontinuous curve interacting with an ordinary crossing:
     o1 = t (rising); o2 = 6 until 4, then 1 + t/2 (jump down below o1 at 4,
     then o1 crosses o2 again at t = 2 after the jump? o1(4)=4, o2(4+)=3:
     o2 below; then o1 = t vs o2 = 1 + t/2: equal at t = 2 < 4 -- already
     passed; after 4 they never meet again?  o1 - o2 = t/2 - 1 > 0 for
     t > 2: o2 stays below.  Add a third phase: o2 jumps back up at 8. *)
  let c1 = Qpiece.of_poly ~start:(q 0) (QP.var) in
  let c2 =
    Qpiece.make
      [ (q 0, QP.constant (q 6));
        (q 4, QP.add (QP.constant (q 1)) (QP.scale (qs "1/2") QP.var));
        (q 8, QP.constant (q 20));
      ]
  in
  let eng = EX.create ~start:(q 0) ~horizon:(q 12) [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2) ] in
  let events = ref [] in
  EX.advance eng ~upto:(q 12) ~emit:(function
    | EX.Point i -> events := BX.instant_to_float i :: !events
    | EX.Span _ -> ());
  (* crossing of o1 = t with o2 = 6 at t = 6? no: o2 jumps at 4 before that.
     expected events: jump at 4 (o2 below o1), jump at 8 (o2 above o1) *)
  Alcotest.(check (list (float 1e-9))) "jump events" [ 4.0; 8.0 ] (List.rev !events);
  let s = EX.stats eng in
  Alcotest.(check int) "two jumps" 2 s.EX.jumps;
  EX.check_invariants eng

let test_jump_monitor_chdir () =
  (* chdir on an entry with pending jumps: stale jump events are harmless *)
  let c1 = Qpiece.make [ (q 0, QP.constant (q 10)); (q 5, QP.constant (q 1)) ] in
  let c2 = Qpiece.constant ~start:(q 0) (q 4) in
  let eng = EX.create ~start:(q 0) ~horizon:(q 10) [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2) ] in
  EX.advance eng ~upto:(q 3) ~emit:(fun _ -> ());
  (* replace o1 before its jump: continuous from value 10 now *)
  EX.replace_curve eng ~at:(q 3) (EX.Obj (1, 0)) (Qpiece.constant ~start:(q 0) (q 10));
  let points = ref [] in
  EX.advance eng ~upto:(q 10) ~emit:(function
    | EX.Point i -> points := BX.instant_to_float i :: !points
    | EX.Span _ -> ());
  (* the stale jump event at 5 fires but repositions to the same place *)
  let first () =
    match EX.first_n eng 1 with
    | [ e ] -> (match EX.label e with EX.Obj (o, _) -> o | _ -> -1)
    | _ -> -1
  in
  Alcotest.(check int) "o2 still nearest" 2 (first ());
  EX.check_invariants eng

(* ------------------------------------------------------------------ *)
(* Timeline algebra                                                     *)
(* ------------------------------------------------------------------ *)

let test_timeline_simplify () =
  let i n = BX.instant_of_scalar (q n) in
  let s l = Oid.Set.of_list l in
  let tl =
    [ TLX.At (i 0, s [ 1 ]);
      TLX.Span (i 0, i 2, s [ 1 ]);
      TLX.At (i 2, s [ 1 ]);
      TLX.Span (i 2, i 5, s [ 1 ]);
      TLX.At (i 5, s [ 1; 2 ]);
      TLX.Span (i 5, i 9, s [ 2 ]);
      TLX.At (i 9, s [ 2 ]);
    ]
  in
  let simplified = TLX.simplify tl in
  (* the touch-free event at 2 merges; the genuine change at 5 stays *)
  Alcotest.(check int) "pieces after simplify" 5 (List.length simplified);
  check_set "find mid-merged-span" [ 1 ] (Option.get (TLX.find_at simplified (i 1)));
  check_set "find at change" [ 1; 2 ] (Option.get (TLX.find_at simplified (i 5)));
  Alcotest.(check bool) "outside" true (TLX.find_at simplified (i 11) = None);
  check_set "existential" [ 1; 2 ] (TLX.existential simplified);
  check_set "universal" [] (TLX.universal simplified);
  Alcotest.(check int) "o1's membership pieces" 5 (List.length (TLX.when_member tl 1))

let test_all_crossings () =
  let module C = EX.C in
  (* sin-like wiggle: (t-1)(t-3)(t-5) vs 0 -- three crossings *)
  let p = QP.mul (QP.mul (QP.of_list [ q (-1); Q.one ]) (QP.of_list [ q (-3); Q.one ]))
            (QP.of_list [ q (-5); Q.one ]) in
  let c1 = Qpiece.of_poly ~start:(q 0) p in
  let c2 = Qpiece.constant ~start:(q 0) Q.zero in
  let xs = C.all_crossings ~after:(BX.instant_of_scalar (q 0)) ~horizon:(q 10) c1 c2 in
  Alcotest.(check (list (float 1e-9))) "three crossings" [ 1.0; 3.0; 5.0 ]
    (List.map BX.instant_to_float xs);
  let xs2 = C.all_crossings ~after:(BX.instant_of_scalar (q 3)) ~horizon:(q 4) c1 c2 in
  Alcotest.(check (list (float 1e-9))) "windowed" [] (List.map BX.instant_to_float xs2
                                                      |> List.filter (fun t -> t > 4.0));
  Alcotest.(check int) "only t=4-window crossings" 0 (List.length xs2)

let test_time_scaled_gdist () =
  (* two stationary cars at distances 3 and 4; from t = 5 the nearer one's
     route is congested (factor 4): effective cost 36 vs 16 -- 1-NN flips at
     the discontinuity *)
  let db = line_db [ (1, 3, 0); (2, 4, 0) ] in
  let base = origin in
  let congested = Gdist.time_scaled base [ (q 5, q 4) ] in
  (* only o1 is congested: build per-object curves on the engine *)
  let tr o = Option.get (DB.find db o) in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 10)
      [ (EX.Obj (1, 0), BX.curve_of_qpiece (Gdist.curve congested (tr 1)));
        (EX.Obj (2, 0), BX.curve_of_qpiece (Gdist.curve base (tr 2)));
      ]
  in
  let first () =
    match EX.first_n eng 1 with
    | [ e ] -> (match EX.label e with EX.Obj (o, _) -> o | _ -> -1)
    | _ -> -1
  in
  Alcotest.(check int) "o1 nearest before congestion" 1 (first ());
  let points = ref [] in
  EX.advance eng ~upto:(q 10) ~emit:(function
    | EX.Point i -> points := BX.instant_to_float i :: !points
    | EX.Span _ -> ());
  Alcotest.(check (list (float 1e-9))) "flip at the schedule boundary" [ 5.0 ] (List.rev !points);
  Alcotest.(check int) "o2 nearest under congestion" 2 (first ());
  EX.check_invariants eng

(* ------------------------------------------------------------------ *)
(* Random stress: invariants + timeline sanity                          *)
(* ------------------------------------------------------------------ *)

let prop_engine_invariants_under_updates =
  prop "engine invariants under random update streams" (QCheck.int_range 0 100000)
    (fun seed ->
      let db = Gen.uniform_db ~seed ~n:8 ~extent:40 ~speed:5 () in
      let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
      let gdist = Gdist.euclidean_sq ~gamma in
      let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 40)) in
      let m = MonX.create ~db ~gdist ~query () in
      let updates = Gen.mixed_stream ~seed:(seed + 7) ~db ~start:(q 0) ~gap:(q 5) ~count:6 () in
      List.iter
        (fun u ->
          MonX.apply_update_exn m u;
          EX.check_invariants (MonX.engine m))
        updates;
      ignore (MonX.finalize m);
      EX.check_invariants (MonX.engine m);
      true)

let prop_timeline_well_formed =
  prop "timelines are chronological and gap-free" (QCheck.int_range 0 100000) (fun seed ->
      let db = Gen.uniform_db ~seed ~n:7 ~extent:40 ~speed:5 () in
      let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
      let gdist = Gdist.euclidean_sq ~gamma in
      let r = KnnX.run ~db ~gdist ~k:2 ~lo:(q 0) ~hi:(q 20) in
      let rec chrono = function
        | TLX.At (a, _) :: (TLX.Span (b, _, _) :: _ as rest) ->
          BX.compare_instant a b = 0 && chrono rest
        | TLX.Span (_, a, _) :: (TLX.At (b, _) :: _ as rest) ->
          BX.compare_instant a b = 0 && chrono rest
        | [ _ ] -> true
        | [] -> false
        | _ -> false
      in
      chrono r.KnnX.timeline)

let () =
  Alcotest.run "core-edge"
    [ ("degenerate", [
        Alcotest.test_case "empty database" `Quick test_empty_db;
        Alcotest.test_case "single object" `Quick test_single_object;
        Alcotest.test_case "point interval" `Quick test_point_interval;
        Alcotest.test_case "everyone dead" `Quick test_everyone_dead_in_interval;
        Alcotest.test_case "birth and death inside" `Quick test_born_and_dying_inside_interval;
      ]);
      ("ties", [
        Alcotest.test_case "identical objects" `Quick test_identical_objects;
        Alcotest.test_case "tangent curves" `Quick test_tangent_curves_knn;
        Alcotest.test_case "k-NN keeps identical ties on spans" `Quick
          test_knn_identical_ties_on_spans;
      ]);
      ("formulas", [
        Alcotest.test_case "Same atom" `Quick test_same_atom;
        Alcotest.test_case "beyond" `Quick test_beyond_query;
        Alcotest.test_case "constant time term" `Quick test_constant_time_term;
        Alcotest.test_case "Eq/Ne atoms" `Quick test_ne_and_eq_atoms;
        prop_knn_formula_matches_operator;
      ]);
      ("support", [ Alcotest.test_case "relation extraction" `Quick test_support_relation ]);
      ("monitor-edges", [
        Alcotest.test_case "update beyond horizon" `Quick test_update_beyond_horizon;
        Alcotest.test_case "update at event time" `Quick test_update_exactly_at_event_time;
        Alcotest.test_case "past interval" `Quick test_monitor_on_past_interval;
      ]);
      ("curve-store", [
        Alcotest.test_case "validity, trim and clear" `Quick test_curve_store_validity;
        Alcotest.test_case "monitors share curves" `Quick test_curve_store_monitors;
      ]);
      ("timeline", [
        Alcotest.test_case "simplify/membership/find" `Quick test_timeline_simplify;
        Alcotest.test_case "all_crossings enumeration" `Quick test_all_crossings;
      ]);
      ("discontinuous", [
        Alcotest.test_case "jump reorders without a root" `Quick test_jump_reorders;
        Alcotest.test_case "jumps mixed with crossings" `Quick test_jump_then_crossing;
        Alcotest.test_case "stale jumps after chdir" `Quick test_jump_monitor_chdir;
        Alcotest.test_case "time-scaled (congestion) g-distance" `Quick test_time_scaled_gdist;
      ]);
      ("stress", [ prop_engine_invariants_under_updates; prop_timeline_well_formed ]);
    ]
