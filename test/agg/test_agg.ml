(* The aggregation subsystem's two exactness contracts:

   1. incremental ≡ rescan: the per-POI monitors fed update-by-update,
      with grid-pruned lazy admission, produce row-for-row bit-identical
      aggregates to a full per-window per-POI sweep of the final database;
   2. alibi exact ≡ filtered, and both are consistent with dense rational
      sampling of the inter-object distance (200-workload property suite,
      the acceptance gate of ISSUE 10). *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module DB = Moq_mod.Mobdb
module U = Moq_mod.Update
module T = Moq_mod.Trajectory
module A = Moq_poly.Algnum
module Gen = Moq_workload.Gen
module Prng = Moq_workload.Prng
module Ingest = Moq_ingest.Ingest

module BX = Moq_core.Backend.Exact
module BFl = Moq_core.Backend.Filtered
module AggX = Moq_agg.Agg.Make (BX)
module AggF = Moq_agg.Agg.Make (BFl)
module AlibiX = Moq_agg.Alibi.Make (BX)
module AlibiF = Moq_agg.Alibi.Make (BFl)

let q = Q.of_int

let pp_rows rows =
  Format.asprintf "@[<v>%a@]"
    (Format.pp_print_list Moq_agg.Agg.pp_row)
    rows

(* ---- incremental vs rescan ---- *)

let pois_near ~seed ~k (db : DB.t) =
  (* drop POIs near actual object birth positions so aggregates are
     non-trivial *)
  let st = Prng.create (seed * 7919) in
  let objs = Array.of_list (DB.objects db) in
  List.init k (fun _ ->
      let _, tr = objs.(Prng.int st (Array.length objs)) in
      let pos = T.position_exn tr (T.birth tr) in
      Qvec.add pos (Qvec.of_list [ q (Prng.int st 21 - 10); q (Prng.int st 21 - 10) ]))

let check_cont_vs_rescan ~seed ~n ~k ~d ~window ~lo ~hi ~updates () =
  let db = Gen.uniform_db ~seed ~n ~extent:100 ~speed:5 () in
  let stream =
    Gen.mixed_stream ~seed:(seed + 1) ~db ~start:lo
      ~gap:(Q.div (Q.sub hi lo) (q (updates + 1)))
      ~count:updates ~extent:100 ()
  in
  let pois = pois_near ~seed ~k db in
  let cont =
    AggX.Cont.create ~cell:32.0 ~db ~pois ~d ~window ~lo ~hi ()
  in
  List.iter (AggX.Cont.apply_update_exn cont) stream;
  let inc_rows = AggX.Cont.finalize cont in
  let final_db = DB.apply_all_exn db stream in
  let scan_rows = AggX.rescan ~db:final_db ~pois ~d ~window ~lo ~hi () in
  if not (AggX.equal_rows inc_rows scan_rows) then
    Alcotest.failf "seed %d: rows diverge@.incremental:@.%s@.rescan:@.%s" seed
      (pp_rows inc_rows) (pp_rows scan_rows);
  let st = AggX.Cont.stats cont in
  Alcotest.(check int) "row count" (k * st.Moq_agg.Agg.windows)
    (List.length inc_rows)

(* The server aggregates on the Filtered backend; its rows, float
   densities included, must be bit-identical to Exact's. *)
let test_cont_filtered_equals_exact () =
  for seed = 1 to 30 do
    let lo = q 0 and hi = q 30 and updates = 10 in
    let db = Gen.uniform_db ~seed ~n:15 ~extent:100 ~speed:5 () in
    let stream =
      Gen.mixed_stream ~seed:(seed + 1) ~db ~start:lo
        ~gap:(Q.div (Q.sub hi lo) (q (updates + 1)))
        ~count:updates ~extent:100 ()
    in
    let pois = pois_near ~seed ~k:2 db in
    let d = q 25 and window = q 8 in
    let cx = AggX.Cont.create ~cell:32.0 ~db ~pois ~d ~window ~lo ~hi () in
    let cf = AggF.Cont.create ~cell:32.0 ~db ~pois ~d ~window ~lo ~hi () in
    List.iter (AggX.Cont.apply_update_exn cx) stream;
    List.iter (AggF.Cont.apply_update_exn cf) stream;
    let rx = AggX.Cont.finalize cx and rf = AggF.Cont.finalize cf in
    if rx <> rf then
      Alcotest.failf "seed %d: rows diverge@.exact:@.%s@.filtered:@.%s" seed
        (pp_rows rx) (pp_rows rf)
  done

let test_cont_small () =
  check_cont_vs_rescan ~seed:3 ~n:20 ~k:3 ~d:(q 30) ~window:(q 10) ~lo:(q 0)
    ~hi:(q 40) ~updates:12 ()

let test_cont_sweep () =
  for seed = 1 to 12 do
    check_cont_vs_rescan ~seed ~n:15 ~k:2 ~d:(q 25) ~window:(q 8) ~lo:(q 0)
      ~hi:(q 30) ~updates:10 ()
  done

let test_cont_truncated_window () =
  (* (hi - lo) not a multiple of the window: last window is short *)
  check_cont_vs_rescan ~seed:5 ~n:12 ~k:2 ~d:(q 20) ~window:(q 7) ~lo:(q 2)
    ~hi:(q 25) ~updates:8 ()

let test_cont_no_updates () =
  check_cont_vs_rescan ~seed:8 ~n:18 ~k:3 ~d:(q 40) ~window:(q 5) ~lo:(q 0)
    ~hi:(q 20) ~updates:0 ()

let test_cont_ingested_trace () =
  (* the w1 pipeline in miniature: trace → segmentation → update stream *)
  let rows = Gen.trace_like ~seed:21 ~n:8 ~steps:12 ~extent:60 ~speed:4 () in
  let samples =
    List.map (fun (oid, t, pos) -> { Ingest.oid; t; pos }) rows
  in
  let stream = Ingest.segment samples in
  let news, rest =
    List.partition (function U.New _ -> true | _ -> false) stream
  in
  let db =
    List.fold_left
      (fun db u ->
        match u with
        | U.New { oid; tau; a; b } ->
          DB.add_initial db oid
            (T.of_pieces [ { T.start = tau; a; b } ])
        | _ -> db)
      (DB.empty ~dim:2 ~tau:Q.zero)
      news
  in
  let lo = q 0 and hi = q 11 in
  let pois = pois_near ~seed:21 ~k:2 db in
  let d = q 15 and window = q 3 in
  let cont = AggX.Cont.create ~cell:16.0 ~db ~pois ~d ~window ~lo ~hi () in
  List.iter (AggX.Cont.apply_update_exn cont) rest;
  let inc_rows = AggX.Cont.finalize cont in
  let final_db = DB.apply_all_exn db rest in
  let scan_rows = AggX.rescan ~db:final_db ~pois ~d ~window ~lo ~hi () in
  if not (AggX.equal_rows inc_rows scan_rows) then
    Alcotest.failf "ingested trace rows diverge@.incremental:@.%s@.rescan:@.%s"
      (pp_rows inc_rows) (pp_rows scan_rows)

let test_cont_prunes () =
  (* clustered db, POI at the origin: far clusters must be pruned *)
  let db = Gen.clustered_db ~seed:4 ~n:200 ~clusters:8 ~spacing:100_000 () in
  let pois = [ Qvec.of_list [ q 0; q 0 ] ] in
  let cont =
    AggX.Cont.create ~cell:512.0 ~db ~pois ~d:(q 300) ~window:(q 10)
      ~lo:(q 0) ~hi:(q 20) ()
  in
  let st = AggX.Cont.stats cont in
  if st.Moq_agg.Agg.admitted >= 100 then
    Alcotest.failf "expected heavy pruning, admitted %d of 200"
      st.Moq_agg.Agg.admitted;
  if st.Moq_agg.Agg.admitted = 0 then
    Alcotest.fail "origin cluster should be admitted";
  (* and pruning must not change answers *)
  let inc_rows = AggX.Cont.finalize cont in
  let scan_rows =
    AggX.rescan ~db ~pois ~d:(q 300) ~window:(q 10) ~lo:(q 0) ~hi:(q 20) ()
  in
  if not (AggX.equal_rows inc_rows scan_rows) then
    Alcotest.failf "pruned rows diverge@.incremental:@.%s@.rescan:@.%s"
      (pp_rows inc_rows) (pp_rows scan_rows)

(* A POI whose reach is 2 * 10^4 rings of a small cell: the watch-set
   search visits only the non-empty rings within it, so opening the
   subscription costs a few rings, not the 2 * 10^4 between. *)
let test_cont_wide_reach () =
  let still x = T.stationary ~start:(q 0) (Qvec.of_list [ q x; q 0 ]) in
  let db =
    List.fold_left
      (fun db (o, x) -> DB.add_initial db o (still x))
      (DB.empty ~dim:2 ~tau:(q 0))
      [ (1, 5); (2, 15_000); (3, -19_999); (4, 100_000) ]
  in
  let pois = [ Qvec.of_list [ q 0; q 0 ] ] and d = q 20_000 in
  let t0 = Sys.time () in
  let cont =
    AggX.Cont.create ~cell:1.0 ~db ~pois ~d ~window:(q 10) ~lo:(q 0) ~hi:(q 20) ()
  in
  let dt = Sys.time () -. t0 in
  if dt >= 1.0 then Alcotest.failf "opening took %.2f s of CPU" dt;
  Alcotest.(check int) "the three objects within d admitted" 3
    (AggX.Cont.stats cont).Moq_agg.Agg.admitted;
  let inc_rows = AggX.Cont.finalize cont in
  let scan_rows = AggX.rescan ~db ~pois ~d ~window:(q 10) ~lo:(q 0) ~hi:(q 20) () in
  if not (AggX.equal_rows inc_rows scan_rows) then
    Alcotest.failf "wide-reach rows diverge@.incremental:@.%s@.rescan:@.%s"
      (pp_rows inc_rows) (pp_rows scan_rows)

(* ---- alibi ---- *)

let random_traj st ~extent ~speed ~segments =
  let b = Qvec.of_list [ q (Prng.int st (2 * extent + 1) - extent);
                         q (Prng.int st (2 * extent + 1) - extent) ] in
  let a = Qvec.of_list [ q (Prng.int st (2 * speed + 1) - speed);
                         q (Prng.int st (2 * speed + 1) - speed) ] in
  let tr = T.linear ~start:(q 0) ~a ~b in
  let rec chdirs tr i =
    if i > segments then tr
    else begin
      let tau = q (i * 5) in
      let a = Qvec.of_list [ q (Prng.int st (2 * speed + 1) - speed);
                             q (Prng.int st (2 * speed + 1) - speed) ] in
      chdirs (T.chdir tr tau a) (i + 1)
    end
  in
  chdirs tr 1

let alibi_case seed =
  let st = Prng.create seed in
  let o1 = random_traj st ~extent:50 ~speed:6 ~segments:(Prng.int st 4) in
  let o2 = random_traj st ~extent:50 ~speed:6 ~segments:(Prng.int st 4) in
  let d = q (1 + Prng.int st 40) in
  let lo = q (Prng.int st 10) in
  let hi = Q.add lo (q (1 + Prng.int st 30)) in
  (o1, o2, d, lo, hi)

let test_alibi_exact_vs_filtered () =
  (* the 200-workload bit-identity property suite of the acceptance
     criteria: verdicts AND witnesses must agree exactly *)
  for seed = 1 to 200 do
    let o1, o2, d, lo, hi = alibi_case seed in
    let vx = AlibiX.decide ~o1 ~o2 ~d ~lo ~hi in
    let vf = AlibiF.decide ~o1 ~o2 ~d ~lo ~hi in
    match vx, vf with
    | AlibiX.No_meet, AlibiF.No_meet -> ()
    | AlibiX.Meet wx, AlibiF.Meet wf ->
      if A.compare wx (BFl.to_algnum wf) <> 0 then
        Alcotest.failf "seed %d: witness mismatch (%a vs %a)" seed A.pp wx
          A.pp (BFl.to_algnum wf)
    | AlibiX.Meet _, AlibiF.No_meet ->
      Alcotest.failf "seed %d: exact meets, filtered refutes" seed
    | AlibiX.No_meet, AlibiF.Meet _ ->
      Alcotest.failf "seed %d: filtered meets, exact refutes" seed
  done

let test_alibi_vs_sampling () =
  (* dense rational sampling can only ever agree with the exact verdict:
     a sample within distance refutes No_meet and must not precede the
     earliest witness *)
  for seed = 1 to 200 do
    let o1, o2, d, lo, hi = alibi_case seed in
    let v = AlibiX.decide ~o1 ~o2 ~d ~lo ~hi in
    let steps = 64 in
    let step = Q.div (Q.sub hi lo) (q steps) in
    for i = 0 to steps do
      let t = Q.add lo (Q.mul (q i) step) in
      if AlibiX.sample_within ~o1 ~o2 ~d t then begin
        match v with
        | AlibiX.No_meet ->
          Alcotest.failf "seed %d: sample at %a within %a but verdict No_meet"
            seed Q.pp t Q.pp d
        | AlibiX.Meet w ->
          if BX.compare_instant_scalar w t > 0 then
            Alcotest.failf
              "seed %d: witness %a later than in-range sample %a" seed A.pp w
              Q.pp t
      end
    done
  done

let test_alibi_known_cases () =
  (* head-on meeting: x from 0 moving +1, y from 10 moving -1 on a line;
     they are within 2 from t = 4 *)
  let o1 = T.linear ~start:(q 0) ~a:(Qvec.of_list [ q 1; q 0 ]) ~b:(Qvec.of_list [ q 0; q 0 ]) in
  let o2 = T.linear ~start:(q 0) ~a:(Qvec.of_list [ q (-1); q 0 ]) ~b:(Qvec.of_list [ q 10; q 0 ]) in
  (match AlibiX.decide ~o1 ~o2 ~d:(q 2) ~lo:(q 0) ~hi:(q 10) with
   | AlibiX.Meet w ->
     Alcotest.(check int) "earliest approach instant" 0
       (BX.compare_instant_scalar w (q 4))
   | AlibiX.No_meet -> Alcotest.fail "head-on objects must meet");
  (* the same pair, but the window closes before they converge *)
  (match AlibiX.decide ~o1 ~o2 ~d:(q 2) ~lo:(q 0) ~hi:(q 3) with
   | AlibiX.No_meet -> ()
   | AlibiX.Meet _ -> Alcotest.fail "alibi holds on [0,3]");
  (* parallel movers, never within 1 *)
  let o3 = T.linear ~start:(q 0) ~a:(Qvec.of_list [ q 1; q 0 ]) ~b:(Qvec.of_list [ q 0; q 5 ]) in
  (match AlibiX.decide ~o1 ~o2:o3 ~d:(q 1) ~lo:(q 0) ~hi:(q 100) with
   | AlibiX.No_meet -> ()
   | AlibiX.Meet _ -> Alcotest.fail "parallel movers stay 5 apart");
  (* tangency: exactly distance d at one instant — closed semantics meet *)
  (match AlibiX.decide ~o1 ~o2:o3 ~d:(q 5) ~lo:(q 0) ~hi:(q 100) with
   | AlibiX.Meet w ->
     Alcotest.(check int) "tangency from the start" 0
       (BX.compare_instant_scalar w (q 0))
   | AlibiX.No_meet -> Alcotest.fail "distance-5 parallel movers touch at d=5");
  (* disjoint lifetimes: o4 dies before o5 is born *)
  let o4 = T.terminate o1 (q 5) in
  let o5 =
    T.of_pieces [ { T.start = q 8; a = Qvec.of_list [ q 0; q 0 ]; b = Qvec.of_list [ q 0; q 0 ] } ]
  in
  (match AlibiX.decide ~o1:o4 ~o2:o5 ~d:(q 1000) ~lo:(q 0) ~hi:(q 100) with
   | AlibiX.No_meet -> ()
   | AlibiX.Meet _ -> Alcotest.fail "disjoint lifetimes can never meet")

let () =
  Alcotest.run "agg"
    [
      ( "cont-vs-rescan",
        [
          Alcotest.test_case "small" `Quick test_cont_small;
          Alcotest.test_case "seed sweep" `Slow test_cont_sweep;
          Alcotest.test_case "truncated window" `Quick test_cont_truncated_window;
          Alcotest.test_case "no updates" `Quick test_cont_no_updates;
          Alcotest.test_case "ingested trace" `Quick test_cont_ingested_trace;
          Alcotest.test_case "grid pruning" `Quick test_cont_prunes;
          Alcotest.test_case "wide reach, empty rings skipped" `Quick
            test_cont_wide_reach;
          Alcotest.test_case "filtered rows equal exact" `Quick
            test_cont_filtered_equals_exact;
        ] );
      ( "alibi",
        [
          Alcotest.test_case "known cases" `Quick test_alibi_known_cases;
          Alcotest.test_case "exact = filtered (200 workloads)" `Slow
            test_alibi_exact_vs_filtered;
          Alcotest.test_case "consistent with sampling (200 workloads)" `Slow
            test_alibi_vs_sampling;
        ] );
    ]
