module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Qpiece = Moq_poly.Piecewise.Qpiece

let q = Q.of_int
let _qs = Q.of_string
let vec l = Qvec.of_list (List.map Q.of_int l)
let vecs l = Qvec.of_list (List.map Q.of_string l)

let check_vec msg expected actual =
  Alcotest.(check bool)
    (Format.asprintf "%s: expected %a got %a" msg Qvec.pp expected Qvec.pp actual)
    true (Qvec.equal expected actual)

(* The airplane of the paper's Example 1:
   x = (2,-1,0) t + (-40,23,30)    for 0  <= t <= 21
   x = (0,-1,-5) t + (2,23,135)    for 21 <= t <= 22
   x = (0.5,0,-1) t + (-9,1,47)    for 22 <= t *)
let example1 () =
  T.of_pieces
    [ { start = q 0; a = vec [ 2; -1; 0 ]; b = vec [ -40; 23; 30 ] };
      { start = q 21; a = vec [ 0; -1; -5 ]; b = vec [ 2; 23; 135 ] };
      { start = q 22; a = vecs [ "1/2"; "0"; "-1" ]; b = vec [ -9; 1; 47 ] };
    ]

let test_example1_positions () =
  let tr = example1 () in
  (* the paper: turned at time 21 at position (2,2,30); at 22 at (2,1,25) *)
  check_vec "turn 1" (vec [ 2; 2; 30 ]) (T.position_exn tr (q 21));
  check_vec "turn 2" (vec [ 2; 1; 25 ]) (T.position_exn tr (q 22));
  check_vec "start" (vec [ -40; 23; 30 ]) (T.position_exn tr (q 0));
  Alcotest.(check bool) "before birth" true (T.position tr (q (-1)) = None);
  Alcotest.(check (list string)) "turns" [ "21"; "22" ] (List.map Q.to_string (T.turns tr))

let test_example2_chdir () =
  (* Example 2: chdir(o, 47, (0,0,0)) lands the plane at (14.5, 1, 0) *)
  let tr = example1 () in
  let tr' = T.chdir tr (q 47) (vec [ 0; 0; 0 ]) in
  check_vec "landing position" (vecs [ "29/2"; "1"; "0" ]) (T.position_exn tr' (q 47));
  check_vec "stays put" (vecs [ "29/2"; "1"; "0" ]) (T.position_exn tr' (q 100));
  Alcotest.(check int) "4 pieces" 4 (List.length (T.pieces tr'));
  Alcotest.(check (list string)) "turns" [ "21"; "22"; "47" ] (List.map Q.to_string (T.turns tr'))

let test_terminate () =
  let tr = example1 () in
  let tr' = T.terminate tr (q 30) in
  Alcotest.(check bool) "death set" true (T.death tr' = Some (q 30));
  Alcotest.(check bool) "defined at 30" true (T.defined_at tr' (q 30));
  Alcotest.(check bool) "not defined at 31" false (T.defined_at tr' (q 31));
  check_vec "position still valid" (T.position_exn tr (q 25)) (T.position_exn tr' (q 25));
  (* terminating mid-piece drops later pieces *)
  let tr'' = T.terminate tr (q 10) in
  Alcotest.(check int) "single piece" 1 (List.length (T.pieces tr''))

let test_chdir_continuity () =
  let tr = T.linear ~start:(q 0) ~a:(vec [ 1; 1 ]) ~b:(vec [ 0; 0 ]) in
  let tr' = T.chdir tr (q 5) (vec [ -2; 0 ]) in
  check_vec "at tau" (vec [ 5; 5 ]) (T.position_exn tr' (q 5));
  check_vec "after" (vec [ 3; 5 ]) (T.position_exn tr' (q 6));
  check_vec "before unchanged" (vec [ 2; 2 ]) (T.position_exn tr' (q 2));
  (* velocity function (paper's vel) *)
  (match T.velocity_after tr' (q 6) with
   | Some v -> check_vec "vel" (vec [ -2; 0 ]) v
   | None -> Alcotest.fail "vel");
  (match T.velocity_after tr' (q 2) with
   | Some v -> check_vec "vel before" (vec [ 1; 1 ]) v
   | None -> Alcotest.fail "vel")

let test_coord_piecewise () =
  let tr = example1 () in
  let c0 = T.coord tr 0 in
  Alcotest.(check string) "x(10)" "-20" (Q.to_string (Qpiece.eval c0 (q 10)));
  Alcotest.(check string) "x(21)" "2" (Q.to_string (Qpiece.eval c0 (q 21)));
  Alcotest.(check string) "x(24)" "3" (Q.to_string (Qpiece.eval c0 (q 24)));
  Alcotest.(check bool) "continuous" true (Qpiece.is_continuous c0);
  let c2 = T.coord tr 2 in
  Alcotest.(check string) "z(22)" "25" (Q.to_string (Qpiece.eval c2 (q 22)))

let test_discontinuous_rejected () =
  Alcotest.check_raises "discontinuous" (Invalid_argument "Trajectory: discontinuous") (fun () ->
      ignore
        (T.of_pieces
           [ { start = q 0; a = vec [ 1 ]; b = vec [ 0 ] };
             { start = q 1; a = vec [ 1 ]; b = vec [ 5 ] };
           ]))

let test_stationary () =
  let tr = T.stationary ~start:(q 0) (vec [ 3; 4 ]) in
  check_vec "always there" (vec [ 3; 4 ]) (T.position_exn tr (q 100))

(* ------------------------------------------------------------------ *)
(* MOD + updates                                                        *)
(* ------------------------------------------------------------------ *)

let test_mod_updates () =
  let db = DB.empty ~dim:2 ~tau:(q 0) in
  let db = DB.apply_exn db (U.New { oid = 1; tau = q 1; a = vec [ 1; 0 ]; b = vec [ 0; 0 ] }) in
  let db = DB.apply_exn db (U.New { oid = 2; tau = q 2; a = vec [ 0; 1 ]; b = vec [ 5; 0 ] }) in
  Alcotest.(check int) "two objects" 2 (DB.cardinal db);
  Alcotest.(check string) "clock" "2" (Q.to_string (DB.last_update db));
  let db = DB.apply_exn db (U.Chdir { oid = 1; tau = q 3; a = vec [ 0; 0 ] }) in
  let tr1 = Option.get (DB.find db 1) in
  check_vec "frozen" (vec [ 3; 0 ]) (T.position_exn tr1 (q 10));
  let db = DB.apply_exn db (U.Terminate { oid = 2; tau = q 4 }) in
  (* Definition 3: terminate keeps the object in O, clipping its trajectory *)
  Alcotest.(check int) "O unchanged" 2 (DB.cardinal db);
  Alcotest.(check bool) "terminated still in O" true (DB.mem db 2);
  Alcotest.(check bool) "trajectory kept for past" true (DB.find db 2 <> None);
  Alcotest.(check int) "live at 3" 2 (List.length (DB.live db (q 3)));
  Alcotest.(check int) "live at 5" 1 (List.length (DB.live db (q 5)))

let test_mod_errors () =
  let db = DB.empty ~dim:2 ~tau:(q 10) in
  let check_err name u expected =
    match DB.apply db u with
    | Error e -> Alcotest.(check string) name expected (Format.asprintf "%a" DB.pp_error e)
    | Ok _ -> Alcotest.failf "%s: expected error" name
  in
  check_err "stale" (U.New { oid = 1; tau = q 5; a = vec [ 1; 0 ]; b = vec [ 0; 0 ] })
    "update at 5 not after last update 10";
  check_err "equal time also stale" (U.New { oid = 1; tau = q 10; a = vec [ 1; 0 ]; b = vec [ 0; 0 ] })
    "update at 10 not after last update 10";
  check_err "unknown" (U.Terminate { oid = 9; tau = q 11 }) "object o9 does not exist";
  let db1 = DB.apply_exn db (U.New { oid = 1; tau = q 11; a = vec [ 1; 0 ]; b = vec [ 0; 0 ] }) in
  (match DB.apply db1 (U.New { oid = 1; tau = q 12; a = vec [ 1; 0 ]; b = vec [ 0; 0 ] }) with
   | Error (DB.Duplicate_oid 1) -> ()
   | _ -> Alcotest.fail "duplicate expected");
  (match DB.apply db1 (U.New { oid = 2; tau = q 12; a = vec [ 1 ]; b = vec [ 0 ] }) with
   | Error DB.Dimension_mismatch -> ()
   | _ -> Alcotest.fail "dimension mismatch expected");
  (* updates after termination fail because the trajectory ends at death *)
  let db2 = DB.apply_exn db1 (U.Terminate { oid = 1; tau = q 13 }) in
  (match DB.apply db2 (U.Chdir { oid = 1; tau = q 14; a = vec [ 0; 0 ] }) with
   | Error (DB.Not_defined_at (1, _)) -> ()
   | _ -> Alcotest.fail "chdir on terminated should fail");
  (match DB.apply db2 (U.Terminate { oid = 1; tau = q 14 }) with
   | Error (DB.Not_defined_at (1, _)) -> ()
   | _ -> Alcotest.fail "double terminate should fail")

let test_example2_via_updates () =
  (* replay Example 1 + 2 through the update interface *)
  let db = DB.empty ~dim:3 ~tau:(q (-1)) in
  let db = DB.apply_exn db (U.New { oid = 7; tau = q 0; a = vec [ 2; -1; 0 ]; b = vec [ -40; 23; 30 ] }) in
  let db = DB.apply_exn db (U.Chdir { oid = 7; tau = q 21; a = vec [ 0; -1; -5 ] }) in
  let db = DB.apply_exn db (U.Chdir { oid = 7; tau = q 22; a = vecs [ "1/2"; "0"; "-1" ] }) in
  let db = DB.apply_exn db (U.Chdir { oid = 7; tau = q 47; a = vec [ 0; 0; 0 ] }) in
  let tr = Option.get (DB.find db 7) in
  Alcotest.(check bool) "matches example 1+2" true (T.equal tr (T.chdir (example1 ()) (q 47) (vec [ 0; 0; 0 ])))

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

module IO = Moq_mod.Mod_io

let test_io_roundtrip () =
  let db = DB.empty ~dim:3 ~tau:(q (-1)) in
  let db = DB.add_initial db 7 (example1 ()) in
  let db = DB.apply_exn db (U.New { oid = 2; tau = q 0; a = vecs [ "1/2"; "0"; "-3" ]; b = vec [ 1; 2; 3 ] }) in
  let db = DB.apply_exn db (U.Terminate { oid = 2; tau = q 9 }) in
  let s = IO.db_to_string db in
  (match IO.db_of_string s with
   | Ok db' ->
     Alcotest.(check int) "dim" (DB.dim db) (DB.dim db');
     Alcotest.(check string) "tau" (Q.to_string (DB.last_update db)) (Q.to_string (DB.last_update db'));
     List.iter2
       (fun (o, tr) (o', tr') ->
         Alcotest.(check int) "oid" o o';
         Alcotest.(check bool) "trajectory equal" true (T.equal tr tr'))
       (DB.objects db) (DB.objects db')
   | Error e -> Alcotest.failf "parse failed: %s" e)

let test_io_updates_roundtrip () =
  let us =
    [ U.New { oid = 1; tau = q 1; a = vec [ 1; 0 ]; b = vecs [ "1/3"; "-5" ] };
      U.Chdir { oid = 1; tau = q 2; a = vec [ 0; -2 ] };
      U.Terminate { oid = 1; tau = q 3 };
    ]
  in
  match IO.updates_of_string (IO.updates_to_string ~dim:2 us) with
  | Ok us' ->
    Alcotest.(check int) "count" 3 (List.length us');
    List.iter2
      (fun u u' ->
        Alcotest.(check string) "update" (Format.asprintf "%a" U.pp u)
          (Format.asprintf "%a" U.pp u'))
      us us'
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_io_errors () =
  let check_err name s =
    match IO.db_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected parse error" name
  in
  check_err "empty" "";
  check_err "bad header" "nonsense 1 2\n";
  check_err "no pieces" "moddb 1 2 0\nobject 1\n";
  check_err "bad arity" "moddb 1 2 0\nobject 1\npiece 0 1 2 3\n";
  check_err "bad rational" "moddb 1 1 0\nobject 1\npiece zero 1 2\n";
  check_err "discontinuous" "moddb 1 1 0\nobject 1\npiece 0 1 0\npiece 1 1 5\n";
  check_err "empty vectors" "moddb 1 0 0\nobject 1\npiece 0\n";
  check_err "duplicate piece start" "moddb 1 1 0\nobject 1\npiece 0 1 0\npiece 0 1 0\n";
  check_err "out-of-order piece start" "moddb 1 1 0\nobject 1\npiece 3 1 3\npiece 1 1 1\n"

(* Random update sequences keep trajectories continuous and clock monotone. *)
let arb_update_seq =
  let open QCheck in
  list_of_size (Gen.int_range 1 60)
    (triple (int_range 0 5) (int_range 1 8) (pair (int_range (-9) 9) (int_range (-9) 9)))

(* Interpret a random op list as a chronological update stream; returns the
   resulting database and the accepted updates, oldest first. *)
let replay_ops ops =
  let db = ref (DB.empty ~dim:2 ~tau:(q 0)) in
  let accepted = ref [] in
  let time = ref 0 in
  List.iter
    (fun (kind, o, (ax, ay)) ->
      incr time;
      let tau = q !time in
      let u =
        if kind <= 2 || not (DB.mem !db o) then
          U.New { oid = o + (!time * 100); tau; a = vec [ ax; ay ]; b = vec [ 0; 0 ] }
        else if kind = 3 then U.Terminate { oid = o; tau }
        else U.Chdir { oid = o; tau; a = vec [ ax; ay ] }
      in
      match DB.apply !db u with
      | Ok db' ->
        db := db';
        accepted := u :: !accepted
      | Error _ -> ())
    ops;
  (!db, List.rev !accepted)

let prop_updates_continuous =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"random updates: continuity & monotone clock" arb_update_seq
       (fun ops ->
         let db, _ = replay_ops ops in
         List.for_all
           (fun (_, tr) ->
             (* each coordinate curve must be continuous *)
             List.for_all (fun i -> Moq_poly.Piecewise.Qpiece.is_continuous (T.coord tr i)) [ 0; 1 ])
           (DB.objects db)
         && Q.compare (DB.last_update db) (q 0) >= 0))

let db_equal a b =
  DB.dim a = DB.dim b
  && Q.compare (DB.last_update a) (DB.last_update b) = 0
  && List.length (DB.objects a) = List.length (DB.objects b)
  && List.for_all2
       (fun (o, tr) (o', tr') -> o = o' && T.equal tr tr')
       (DB.objects a) (DB.objects b)

let prop_db_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"random db: db_to_string/db_of_string roundtrip"
       arb_update_seq
       (fun ops ->
         let db, _ = replay_ops ops in
         match IO.db_of_string (IO.db_to_string db) with
         | Ok db' -> db_equal db db'
         | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e))

let prop_updates_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"random updates: serialization roundtrip" arb_update_seq
       (fun ops ->
         let _, us = replay_ops ops in
         let pp u = Format.asprintf "%a" U.pp u in
         (* batch format *)
         (match IO.updates_of_string (IO.updates_to_string ~dim:2 us) with
          | Ok us' -> List.map pp us = List.map pp us'
          | Error e -> QCheck.Test.fail_reportf "batch parse failed: %s" e)
         (* single-line codec, as used by the write-ahead log *)
         && List.for_all
              (fun u ->
                match IO.update_of_line ~dim:2 (IO.update_to_line u) with
                | Ok u' -> pp u = pp u'
                | Error e -> QCheck.Test.fail_reportf "line parse failed: %s" e)
              us))

(* Update lines as the [Printf]/[string_of_int] renderer printed them
   before the decimal writer replaced it: small, past-2^62, negative,
   fractional and [min_int] values, in every field.  A write-ahead log is
   read back by CRC, so these bytes must not move. *)
let golden_update_lines =
  let qs = Q.of_string in
  let v l = Qvec.of_list l in
  [ ( U.New { oid = 0; tau = Q.zero; a = v [ Q.zero; Q.zero ]; b = v [ Q.zero; Q.zero ] },
      "new 0 0 0 0 0 0" );
    ( U.New
        { oid = 42; tau = qs "7/3"; a = v [ qs "-1/2"; q 5 ];
          b = v [ q (-17); q 1000000007 ] },
      "new 42 7/3 -1/2 5 -17 1000000007" );
    ( U.New
        { oid = max_int; tau = qs "4611686018427387904";
          a = v [ q min_int; q max_int ];
          b = v [ qs "123456789012345678901234567890/7"; qs "-1/18446744073709551616" ] },
      "new 4611686018427387903 4611686018427387904 -4611686018427387904 \
       4611686018427387903 17636684144620811271604938270 -1/18446744073709551616" );
    ( U.Chdir { oid = 3; tau = qs "-9/4"; a = v [ Q.of_ints min_int 3; Q.of_ints 1 min_int ] },
      "chdir 3 -9/4 -4611686018427387904/3 -1/4611686018427387904" );
    ( U.Chdir
        { oid = min_int; tau = q min_int;
          a = v [ qs "-10"; qs "99/100"; qs "1000000000000000000000" ] },
      "chdir -4611686018427387904 -4611686018427387904 -10 99/100 1000000000000000000000" );
    ( U.Chdir { oid = 7; tau = qs "12.75"; a = v [ qs "-4611686018427387905"; q 9 ] },
      "chdir 7 51/4 -4611686018427387905 9" );
    ( U.Terminate { oid = 9; tau = qs "-123456789012345678901234567890/11" },
      "terminate 9 -123456789012345678901234567890/11" );
    (U.Terminate { oid = -1; tau = q max_int }, "terminate -1 4611686018427387903");
    (U.Terminate { oid = 10; tau = qs "1/3" }, "terminate 10 1/3") ]

let test_update_lines_golden () =
  List.iter
    (fun (u, line) -> Alcotest.(check string) line line (IO.update_to_line u))
    golden_update_lines

(* The decimal writer against [string_of_int] / [Q.to_string] on random
   values, Small and Big, through the one public entry point. *)
let prop_decimal_writer =
  let arb =
    QCheck.(
      quad int int
        (oneofl [ 1; 2; 3; 7; 10; 1000000007; max_int; min_int ])
        (int_range 0 3))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"decimal writer = string_of_int / Q.to_string" arb
       (fun (oid, n, d, scale) ->
         (* [scale] pushes the numerator past 2^62 into [Big] *)
         let num = Q.mul (q n) (Q.of_string ("1" ^ String.make (9 * scale) '0')) in
         let tau = Q.div num (q d) in
         IO.update_to_line (U.Terminate { oid; tau })
         = "terminate " ^ string_of_int oid ^ " " ^ Q.to_string tau))

let () =
  Alcotest.run "mod"
    [ ("trajectory", [
        Alcotest.test_case "example 1 positions" `Quick test_example1_positions;
        Alcotest.test_case "example 2 chdir" `Quick test_example2_chdir;
        Alcotest.test_case "terminate" `Quick test_terminate;
        Alcotest.test_case "chdir continuity" `Quick test_chdir_continuity;
        Alcotest.test_case "coord piecewise" `Quick test_coord_piecewise;
        Alcotest.test_case "discontinuous rejected" `Quick test_discontinuous_rejected;
        Alcotest.test_case "stationary" `Quick test_stationary;
      ]);
      ("mobdb", [
        Alcotest.test_case "updates" `Quick test_mod_updates;
        Alcotest.test_case "error cases" `Quick test_mod_errors;
        Alcotest.test_case "example 2 via updates" `Quick test_example2_via_updates;
        prop_updates_continuous;
      ]);
      ("serialization", [
        Alcotest.test_case "db roundtrip" `Quick test_io_roundtrip;
        Alcotest.test_case "updates roundtrip" `Quick test_io_updates_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_io_errors;
        Alcotest.test_case "update lines pinned" `Quick test_update_lines_golden;
        prop_decimal_writer;
        prop_db_roundtrip;
        prop_updates_roundtrip;
      ]);
    ]
