module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module U = Moq_mod.Update
module Ingest = Moq_ingest.Ingest
module IO = Moq_mod.Mod_io

let q = Q.of_int
let qs = Q.of_string
let v2 x y = Qvec.of_list [ x; y ]
let s oid t pos = { Ingest.oid; t; pos }

let apply updates =
  let tau =
    match updates with [] -> Q.zero | u :: _ -> Q.sub (U.time u) Q.one
  in
  DB.apply_all_exn (DB.empty ~dim:2 ~tau) updates

let check_q name expected got =
  Alcotest.(check string) name (Q.to_string expected) (Q.to_string got)

let check_pos name expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %s got %s" name
       (String.concat "," (List.map Q.to_string (Qvec.to_list expected)))
       (String.concat "," (List.map Q.to_string (Qvec.to_list got))))
    true (Qvec.equal expected got)

(* ------------------------------------------------------------------ *)
(* Segmentation contract *)

(* Moving samples are passed through exactly: the reconstructed
   trajectory goes through every sample whose displacement clears the
   quantisation threshold. *)
let test_moving_exact () =
  let samples =
    [ s 1 (q 0) (v2 (q 0) (q 0));
      s 1 (q 1) (v2 (q 3) (q 4));
      s 1 (q 2) (v2 (q 3) (q 10));
      s 1 (q 5) (v2 (qs "-6") (q 10)) ]
  in
  let us = Ingest.segment samples in
  let db = apply us in
  let tr = Option.get (DB.find db 1) in
  List.iter
    (fun { Ingest.t; pos; _ } ->
      check_pos (Printf.sprintf "through sample at t=%s" (Q.to_string t))
        pos (T.position_exn tr t))
    samples;
  (* no spurious velocity changes between samples: the first leg is the
     straight line between its endpoints *)
  check_pos "midpoint of first leg" (v2 (qs "3/2") (q 2))
    (T.position_exn tr (qs "1/2"))

(* Sub-threshold jitter is absorbed: the object parks at its first
   position and never integrates the noise. *)
let test_jitter_absorbed () =
  let eps = qs "1/100" in
  let samples =
    [ s 7 (q 0) (v2 (q 5) (q 5));
      s 7 (q 1) (v2 (Q.add (q 5) eps) (q 5));
      s 7 (q 2) (v2 (q 5) (Q.sub (q 5) eps));
      s 7 (q 3) (v2 (Q.sub (q 5) eps) (Q.add (q 5) eps)) ]
  in
  let us = Ingest.segment samples in
  let db = apply us in
  let tr = Option.get (DB.find db 7) in
  List.iter
    (fun t -> check_pos "parked" (v2 (q 5) (q 5)) (T.position_exn tr t))
    [ q 0; q 1; q 2; q 3 ];
  let st = Ingest.segment_stats samples in
  Alcotest.(check int) "no moving segments" 0 st.Ingest.moving_segments;
  Alcotest.(check int) "three stationary segments" 3
    st.Ingest.stationary_segments

(* The same displacement above the threshold moves; drift never exceeds
   quant because each moving leg re-aims at the true sample. *)
let test_threshold_boundary () =
  let quant = q 1 in
  let below = [ s 1 (q 0) (v2 (q 0) (q 0)); s 1 (q 1) (v2 (q 1) (q 0)) ] in
  let above =
    [ s 1 (q 0) (v2 (q 0) (q 0)); s 1 (q 1) (v2 (qs "101/100") (q 0)) ]
  in
  let stb = Ingest.segment_stats ~quant below in
  Alcotest.(check int) "displacement = quant parks" 0 stb.Ingest.moving_segments;
  let sta = Ingest.segment_stats ~quant above in
  Alcotest.(check int) "displacement > quant moves" 1 sta.Ingest.moving_segments;
  (* after parking once, the next moving leg starts from the *model*
     position (the park spot), not the noisy sample, and still lands
     exactly on the next sample *)
  let samples =
    [ s 1 (q 0) (v2 (q 0) (q 0));
      s 1 (q 1) (v2 (qs "1/2") (q 0));
      (* parked: model stays at origin *)
      s 1 (q 2) (v2 (q 4) (q 0)) ]
  in
  let db = apply (Ingest.segment ~quant samples) in
  let tr = Option.get (DB.find db 1) in
  check_pos "still parked at t=1" (v2 (q 0) (q 0)) (T.position_exn tr (q 1));
  check_pos "lands on sample at t=2" (v2 (q 4) (q 0)) (T.position_exn tr (q 2));
  (* the leg t=1..2 covers the whole distance from the park spot *)
  check_pos "re-aimed leg midpoint" (v2 (q 2) (q 0))
    (T.position_exn tr (qs "3/2"))

(* Equal-time samples across objects are serialized into strictly
   increasing update times the MOD accepts, and moving samples are still
   hit exactly. *)
let test_collision_serialization () =
  let samples =
    List.concat_map
      (fun oid ->
        [ s oid (q 0) (v2 (q oid) (q 0));
          s oid (q 10) (v2 (q oid) (q 10));
          s oid (q 20) (v2 (q (oid + 5)) (q 10)) ])
      [ 1; 2; 3; 4 ]
  in
  let us = Ingest.segment samples in
  (* strictly increasing times *)
  let rec check_mono = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "strictly increasing: %s < %s"
             (Q.to_string (U.time a)) (Q.to_string (U.time b)))
          true
          (Q.compare (U.time a) (U.time b) < 0);
        check_mono rest
    | _ -> ()
  in
  check_mono us;
  let db = apply us in
  Alcotest.(check int) "all four objects live" 4 (DB.cardinal db);
  (* deferred moving events are re-aimed: every non-final sample is hit
     exactly despite the serialization *)
  List.iter
    (fun oid ->
      let tr = Option.get (DB.find db oid) in
      check_pos "sample t=10 exact" (v2 (q oid) (q 10))
        (T.position_exn tr (q 10));
      check_pos "sample t=20 exact" (v2 (q (oid + 5)) (q 10))
        (T.position_exn tr (q 20)))
    [ 1; 2; 3; 4 ]

let test_lone_sample_and_terminate () =
  let us = Ingest.segment [ s 9 (q 4) (v2 (q 1) (q 2)) ] in
  let db = apply us in
  let tr = Option.get (DB.find db 9) in
  check_pos "lone sample parks" (v2 (q 1) (q 2)) (T.position_exn tr (q 100));
  let samples =
    [ s 1 (q 0) (v2 (q 0) (q 0)); s 1 (q 2) (v2 (q 8) (q 0)) ]
  in
  (match List.rev (Ingest.segment samples) with
  | U.Chdir { a; tau; _ } :: _ ->
      check_q "parking chdir at last sample" (q 2) tau;
      Alcotest.(check bool) "velocity zero" true
        (List.for_all (fun c -> Q.equal c Q.zero) (Qvec.to_list a))
  | _ -> Alcotest.fail "default tail must be a parking Chdir");
  (match List.rev (Ingest.segment ~terminate:true samples) with
  | U.Terminate { tau; _ } :: _ -> check_q "terminate at last sample" (q 2) tau
  | _ -> Alcotest.fail "terminate:true tail must be a Terminate")

let test_duplicate_and_order () =
  (* rows may arrive in any order; an object+time repeat keeps the first *)
  let shuffled =
    [ s 1 (q 2) (v2 (q 6) (q 0));
      s 1 (q 0) (v2 (q 0) (q 0));
      s 1 (q 1) (v2 (q 3) (q 0));
      s 1 (q 1) (v2 (q 99) (q 99)) ]
  in
  let db = apply (Ingest.segment shuffled) in
  let tr = Option.get (DB.find db 1) in
  check_pos "first occurrence wins" (v2 (q 3) (q 0)) (T.position_exn tr (q 1));
  check_pos "sorted before segmenting" (v2 (q 6) (q 0))
    (T.position_exn tr (q 2))

(* ------------------------------------------------------------------ *)
(* CSV parsing *)

let test_parse_line () =
  let ok = function Ok x -> x | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "blank" true (ok (Ingest.parse_line ~dim:2 "  ") = None);
  Alcotest.(check bool) "comment" true
    (ok (Ingest.parse_line ~dim:2 "# comment") = None);
  Alcotest.(check bool) "header" true
    (ok (Ingest.parse_line ~dim:2 "oid,t,x,y") = None);
  (match ok (Ingest.parse_line ~dim:2 "3, 7/2, 1.5, -2") with
  | Some { Ingest.oid; t; pos } ->
      Alcotest.(check int) "oid" 3 oid;
      check_q "rational time" (qs "7/2") t;
      check_pos "decimal + negative coords" (v2 (qs "3/2") (qs "-2")) pos
  | None -> Alcotest.fail "expected a sample");
  (match Ingest.parse_line ~dim:2 "3,1,2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong arity must fail");
  (match Ingest.parse_line ~dim:2 "x,1,2,3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-integer oid must fail");
  (match Ingest.parse_line ~dim:2 "1,zzz,2,3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad time must fail")

let test_parse_csv_errors () =
  match Ingest.parse_csv "oid,t,x,y\n1,0,0,0\n\n1,1,bogus,0\n" with
  | Ok _ -> Alcotest.fail "bad row must fail"
  | Error e ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error cites line 4: %s" e)
        true (contains e "line 4")

let test_csv_roundtrip () =
  let csv =
    "oid,t,x,y\n\
     # two objects, one parked\n\
     1,0,0,0\n\
     1,1,10,0\n\
     1,2,10,10\n\
     2,0,50,50\n\
     2,1,50.01,50\n\
     2,2,50,50.01\n"
  in
  match Ingest.csv_to_updates csv with
  | Error e -> Alcotest.fail e
  | Ok (us, st) ->
      Alcotest.(check int) "samples" 6 st.Ingest.samples;
      Alcotest.(check int) "objects" 2 st.Ingest.objects;
      Alcotest.(check int) "updates" (List.length us) st.Ingest.updates;
      Alcotest.(check int) "moving" 2 st.Ingest.moving_segments;
      Alcotest.(check int) "stationary" 2 st.Ingest.stationary_segments;
      let db = apply us in
      let tr1 = Option.get (DB.find db 1) in
      check_pos "o1 corner" (v2 (q 10) (q 0)) (T.position_exn tr1 (q 1));
      check_pos "o1 end" (v2 (q 10) (q 10)) (T.position_exn tr1 (q 2));
      let tr2 = Option.get (DB.find db 2) in
      check_pos "o2 parked through jitter" (v2 (q 50) (q 50))
        (T.position_exn tr2 (q 2))

(* Property: for a single-object trace (no collision groups, so no
   serialization slack), segmentation at quant 0 followed by MOD
   reconstruction passes through every sample exactly. *)
let prop_roundtrip =
  let gen =
    QCheck.make
      ~print:(fun (seed, steps) -> Printf.sprintf "seed=%d steps=%d" seed steps)
      QCheck.Gen.(pair (int_bound 1000) (int_range 4 12))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"segment passes through every sample" gen
       (fun (seed, steps) ->
         let module Gen = Moq_workload.Gen in
         let rows = Gen.trace_like ~seed ~n:1 ~steps () in
         let samples =
           List.map (fun (oid, t, pos) -> { Ingest.oid; t; pos }) rows
         in
         let us = Ingest.segment ~quant:Q.zero samples in
         let db = apply us in
         List.for_all
           (fun { Ingest.oid; t; pos } ->
             match DB.find db oid with
             | None -> false
             | Some tr -> Qvec.equal pos (T.position_exn tr t))
           samples))

(* ------------------------------------------------------------------ *)
(* Byte mutations *)

(* The files [moq] reads — a trace CSV, a [.mod] and an update stream —
   are untrusted: each parser must answer [Ok] or [Error] on any bytes,
   never raise.  The inputs are valid renderings of a sampled trace, and
   of the MOD and updates segmented from it, with one to four bytes
   overwritten (by an arbitrary byte or one of the grammars' own) and cut
   short one time in four.  Seeded, so every run tries the same files. *)
let mutant valid =
  let open QCheck.Gen in
  let* s = valid in
  let n = String.length s in
  let grammar = List.of_seq (String.to_seq " \n,#/-.0129e") in
  let* edits =
    list_size (int_range 1 4) (pair (int_bound (max 0 (n - 1))) (frequency [ (1, char); (2, oneofl grammar) ]))
  in
  let* cut = frequency [ (3, return n); (1, int_bound n) ] in
  let b = Bytes.of_string s in
  List.iter (fun (i, c) -> if i < n then Bytes.set b i c) edits;
  return (Bytes.sub_string b 0 cut)

let never_raises ~name render parse =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 37 |])
    (QCheck.Test.make ~name ~count:1000
       (QCheck.make ~print:String.escaped
          (mutant
             QCheck.Gen.(
               map2
                 (fun seed n -> render (Moq_workload.Gen.trace_like ~seed ~n ~steps:6 ()))
                 (int_bound 1000) (int_range 1 3))))
       (fun s -> match parse s with Ok () | Error _ -> true))

let csv_of_rows rows =
  String.concat ""
    ("oid,t,x,y\n"
    :: List.map
         (fun (oid, t, pos) ->
           String.concat "," (string_of_int oid :: List.map Q.to_string (t :: Qvec.to_list pos))
           ^ "\n")
         rows)

let updates_of_rows rows =
  Ingest.segment (List.map (fun (oid, t, pos) -> { Ingest.oid; t; pos }) rows)

let prop_mutated_csv =
  never_raises ~name:"mutated trace CSV: Ok or Error, never raise" csv_of_rows (fun s ->
      Result.map ignore (Ingest.parse_csv s))

let prop_mutated_mod =
  never_raises ~name:"mutated .mod: Ok or Error, never raise"
    (fun rows -> IO.db_to_string (apply (updates_of_rows rows)))
    (fun s -> Result.map ignore (IO.db_of_string s))

let prop_mutated_updates =
  never_raises ~name:"mutated updates: Ok or Error, never raise"
    (fun rows -> IO.updates_to_string ~dim:2 (updates_of_rows rows))
    (fun s -> Result.map ignore (IO.updates_of_string s))

let () =
  Alcotest.run "ingest"
    [ ("segment", [
        Alcotest.test_case "moving samples hit exactly" `Quick test_moving_exact;
        Alcotest.test_case "sub-threshold jitter absorbed" `Quick
          test_jitter_absorbed;
        Alcotest.test_case "threshold boundary + re-aim" `Quick
          test_threshold_boundary;
        Alcotest.test_case "equal-time collision groups serialized" `Quick
          test_collision_serialization;
        Alcotest.test_case "lone sample / terminate tail" `Quick
          test_lone_sample_and_terminate;
        Alcotest.test_case "row order and duplicates" `Quick
          test_duplicate_and_order;
        prop_roundtrip;
      ]);
      ("csv", [
        Alcotest.test_case "parse_line accepts and rejects" `Quick
          test_parse_line;
        Alcotest.test_case "parse errors cite line numbers" `Quick
          test_parse_csv_errors;
        Alcotest.test_case "csv -> updates roundtrip" `Quick test_csv_roundtrip;
      ]);
      ("fuzz", [ prop_mutated_csv; prop_mutated_mod; prop_mutated_updates ]);
    ]
