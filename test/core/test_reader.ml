(* Order readers ≡ the FO(f) evaluator.

   Monitor, Sweep, Knn, Range_query and Shard read k-NN and within answers
   off the sweep order (Reader); Snapshot evaluates the formula itself, in
   O(N^q) per instant.  Every piece they produce — the monitor's raw
   drains and its finalized timeline included — is checked against
   Snapshot.answer_at at the piece's read instant (a point itself, a
   span's B.between sample), over the final database: a validated piece is
   final, no later update can change it.  Both Exact and Filtered run.

   Families: uniform (one and two dimensions), clustered, co-located and
   tangent trajectories; within bounds snapped to an object's exact squared
   distance at a rational instant; update streams whose new, terminate and
   chdir updates land on the sweep's own event instants; windows that open
   at a termination instant.  k-NN with k = 4 at N = 32 is out of
   Snapshot's reach and is checked against the naive baseline's full
   re-sort instead.

   A reader keeps its answer's prefix while the cut holds (the engine's
   version and the pivot's swap count).  The "memo" group drives
   monitors through every way the order can move under that key: value
   jumps (Engine.reposition), a chdir of the query trajectory (Theorem
   10's settling swaps), a rebuild forced by an audit, and k-NN with k at
   or above the number of live objects; and it checks that pieces with no
   event across the bound share one set physically. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module Qpiece = Moq_poly.Piecewise.Qpiece
module A = Moq_poly.Algnum
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid
module Core = Moq_core
module Fof = Core.Fof
module Gdist = Core.Gdist
module Reader = Core.Reader
module BX = Core.Backend.Exact
module BFl = Core.Backend.Filtered
module Gen = Moq_workload.Gen

let q = Q.of_int
let lo = q 0
let hi = q 20
let interval = Fof.Interval.closed lo hi
let elts s = String.concat "," (List.map string_of_int (Oid.Set.elements s))

(* One step of a driven monitor ({!Check.drive}). *)
type step =
  | Update of U.t
  | Chdir_query of Q.t * Gdist.t  (** the query trajectory's new g-distance at a time *)
  | Skip_and_heal of Q.t  (** move the engine's clock there, then audit and heal *)

module Check (B : Core.Backend.S) = struct
  module Mon = Core.Monitor.Make (B)
  module Sw = Core.Sweep.Make (B)
  module Knn = Core.Knn.Make (B)
  module Range = Core.Range_query.Make (B)
  module Sh = Core.Shard.Make (B)
  module P = Core.Problem.Make (B)
  module TL = Mon.TL
  module Naive = Moq_baseline.Naive.Make (B)

  let read_instant = function
    | TL.Span (a, b, _) -> B.instant_of_scalar (B.between a b)
    | TL.At (i, _) -> i

  let check_pieces what truth pieces =
    List.iter
      (fun p ->
        let i = read_instant p in
        let expected = truth i and got = TL.set_of p in
        if not (Oid.Set.equal expected got) then
          Alcotest.failf "%s on %s: at %a read {%s}, expected {%s}" what B.name
            B.pp_instant i (elts got) (elts expected))
      pieces

  let snapshot ~db ~gdist ~query =
    let istart = Option.get (Fof.Interval.lo query.Fof.interval) in
    let ctx = P.snapshot_ctx (P.create ~db ~gdist ~query ~istart) in
    P.S.answer_at ctx query

  let naive_knn ~db ~gdist ~k =
    let curves =
      List.map (fun (o, tr) -> (o, Gdist.curve gdist tr)) (DB.objects db)
    in
    Naive.knn_answer curves k

  (* The monitor fed [updates] (drained after each), then every past
     operator for [query] over the final database; [truth] answers over
     that final database.  With [predict], the monitor's prediction after
     each update is checked too, against [truth] over the database of that
     moment. *)
  let check ?(predict = false) name ~db ~gamma ~query ~updates ~truth =
    let lo = Option.get (Fof.Interval.lo query.Fof.interval)
    and hi = Option.get (Fof.Interval.hi query.Fof.interval) in
    let gdist = Gdist.euclidean_sq ~gamma in
    let m = Mon.create ~db ~gdist ~query () in
    let drains = ref [ Mon.drain_valid m ] in
    List.iter
      (fun u ->
        Mon.apply_update_exn m u;
        drains := Mon.drain_valid m :: !drains;
        if predict then
          check_pieces (name ^ ": monitor predict") (truth ~db:(Mon.db m) ~gdist) (Mon.predict m))
      updates;
    let final = Mon.finalize m in
    let db = Mon.db m in
    let truth = truth ~db ~gdist in
    check_pieces (name ^ ": monitor drains") truth (List.concat (List.rev !drains));
    check_pieces (name ^ ": monitor finalize") truth final;
    check_pieces (name ^ ": sweep") truth (Sw.run ~db ~gdist ~query).Sw.timeline;
    match Reader.of_query query with
    | Some (Reader.Knn k) ->
      check_pieces (name ^ ": knn") truth (Knn.run ~db ~gdist ~k ~lo ~hi).Knn.timeline;
      check_pieces (name ^ ": shard") truth (Sh.run ~db ~gamma ~k ~lo ~hi ()).Sh.timeline
    | Some (Reader.Within bound) ->
      check_pieces (name ^ ": range") truth (Range.run ~db ~gdist ~bound ~lo ~hi).Range.timeline
    | None -> Alcotest.failf "%s: not a reader query" name

  (* A monitor driven through [steps], drained after each and after its
     finalization; every raw piece is checked against [truth] over the
     final database and [final_gdist] (default [gdist]).  Returns the
     monitor and its pieces, chronological. *)
  let drive ?final_gdist name ~db ~gdist ~query ~steps ~truth =
    let m = Mon.create ~db ~gdist ~query () in
    let drains = ref [ Mon.drain_valid m ] in
    List.iter
      (fun step ->
        (match step with
         | Update u -> Mon.apply_update_exn m u
         | Chdir_query (tau, gdist) -> Mon.chdir_query m ~tau ~gdist
         | Skip_and_heal tau ->
           (* jump the engine's clock past pending events: the audit finds
              them late and the heal rebuilds the order at [tau] *)
           Mon.E.sync_clock (Mon.engine m) ~at:tau;
           if Mon.audit_and_heal m = [] then Alcotest.failf "%s: no violation to heal" name);
        drains := Mon.drain_valid m :: !drains)
      steps;
    ignore (Mon.finalize m);
    let pieces = List.concat (List.rev (Mon.drain_valid m :: !drains)) in
    let gdist = Option.value final_gdist ~default:gdist in
    check_pieces (name ^ ": monitor") (truth ~db:(Mon.db m) ~gdist) pieces;
    (m, pieces)
end

module CX = Check (BX)
module CF = Check (BFl)

let check_both ?predict name ~db ~gamma ~query ~updates =
  CX.check ?predict name ~db ~gamma ~query ~updates ~truth:(CX.snapshot ~query);
  CF.check ?predict name ~db ~gamma ~query ~updates ~truth:(CF.snapshot ~query)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

let origin dim = T.stationary ~start:lo (Qvec.zero dim)

module EX = Core.Engine.Make (BX)
module PX = Core.Problem.Make (BX)

(* The rational event instants of [query]'s sweep over [db] strictly
   after [after]. *)
let rational_events ~db ~gdist ~query ~after =
  let p = PX.create ~db ~gdist ~query ~istart:lo in
  let eng = EX.create ~start:lo ~horizon:hi (PX.entry_list p) in
  let evs = ref [] in
  EX.advance eng ~upto:hi ~emit:(function
    | EX.Point i ->
      (match A.to_rat i with
       | Some t when Q.compare t after > 0 && not (List.exists (Q.equal t) !evs) ->
         evs := t :: !evs
       | _ -> ())
    | EX.Span _ -> ());
  List.rev !evs

(* [count] updates, each on one of the next three rational event instants
   of the sweep over the database updated so far (one time unit on when
   there is none).  Kinds run new : terminate : chdir = 1 : 1 : 2, and a
   termination hits one of the three objects nearest at its instant — the
   ones an answer is made of. *)
let updates_on_events ~seed ~db ~gamma ~query ~count =
  let st = Random.State.make [| seed |] in
  let gdist = Gdist.euclidean_sq ~gamma in
  let dim = DB.dim db in
  let vec r = Qvec.of_list (List.init dim (fun _ -> q (Random.State.int st (2 * r + 1) - r))) in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let rec go db n next acc =
    if n = 0 then List.rev acc
    else begin
      let after = DB.last_update db in
      let tau =
        match rational_events ~db ~gdist ~query ~after with
        | [] -> Q.add after Q.one
        | evs -> List.nth evs (Random.State.int st (min 3 (List.length evs)))
      in
      let dist (_, tr) = Qpiece.eval (Gdist.curve gdist tr) tau in
      let live = List.sort (fun a b -> Q.compare (dist a) (dist b)) (DB.live db tau) in
      let u =
        match Random.State.int st 4, live with
        | 0, _ | _, [] -> U.New { oid = next; tau; a = vec 3; b = vec 12 }
        | 1, _ -> U.Terminate { oid = fst (pick (List.filteri (fun j _ -> j < 3) live)); tau }
        | _ -> U.Chdir { oid = fst (pick live); tau; a = vec 3 }
      in
      go (DB.apply_exn db u) (n - 1) (next + 1) (u :: acc)
    end
  in
  go db count 1000 []

(* Half the objects of [db], each twice: the copy sits on the original's
   trajectory under OID [o + 100]. *)
let co_located db =
  List.fold_left
    (fun acc (o, tr) ->
      if o mod 2 = 0 then acc else DB.add_initial (DB.add_initial acc o tr) (o + 100) tr)
    (DB.empty ~dim:(DB.dim db) ~tau:(DB.last_update db))
    (DB.objects db)

let families ~n =
  let uniform ~n ~dim seed = Gen.uniform_db ~seed ~n ~dim ~extent:15 ~speed:2 () in
  [ ("uniform-1d", uniform ~n ~dim:1);
    ("uniform-2d", uniform ~n ~dim:2);
    ( "clustered",
      fun seed -> Gen.clustered_db ~seed ~n ~clusters:2 ~spacing:30 ~spread:6 ~speed:2 () );
    ("co-located", fun seed -> co_located (uniform ~n:(n + 1) ~dim:1 seed));
    (* exact near-tangency roots are dear: two pairs *)
    ("tangent", fun seed -> Gen.tangency_db ~seed ~n:4 ()) ]

(* A within bound on an object's exact squared distance at a rational
   instant: the bound curve then touches or crosses that object's curve
   there. *)
let snapped_bound ~seed ~db ~gamma =
  let st = Random.State.make [| seed; 17 |] in
  let objs = DB.live db lo in
  let _, tr = List.nth objs (Random.State.int st (List.length objs)) in
  let t0 = Q.of_ints (Random.State.int st 40) 2 in
  Qpiece.eval (Gdist.curve (Gdist.euclidean_sq ~gamma) tr) t0

let run_families ~n ~queries =
  List.iter
    (fun (fam, make) ->
      for seed = 1 to 2 do
        let db = make seed in
        let gamma = origin (DB.dim db) in
        List.iter
          (fun (qname, query) ->
            let query = query ~seed ~db ~gamma in
            let updates = updates_on_events ~seed ~db ~gamma ~query ~count:6 in
            check_both (Printf.sprintf "%s seed %d %s" fam seed qname) ~db ~gamma ~query ~updates)
          queries
      done)
    (families ~n)

let test_nearest_and_knn2 () =
  run_families ~n:8
    ~queries:
      [ ("nearest", fun ~seed:_ ~db:_ ~gamma:_ -> Fof.nearest_q ~interval);
        ("knn 2", fun ~seed:_ ~db:_ ~gamma:_ -> Fof.knn_q ~k:2 ~interval) ]

let test_knn3 () =
  run_families ~n:6 ~queries:[ ("knn 3", fun ~seed:_ ~db:_ ~gamma:_ -> Fof.knn_q ~k:3 ~interval) ]

let test_within () =
  run_families ~n:8
    ~queries:
      [ ( "within (snapped)",
          fun ~seed ~db ~gamma -> Fof.within_q ~bound:(snapped_bound ~seed ~db ~gamma) ~interval );
        ("within 50", fun ~seed:_ ~db:_ ~gamma:_ -> Fof.within_q ~bound:(q 50) ~interval) ]

let test_knn4_vs_naive () =
  let db = Gen.uniform_db ~seed:1 ~n:32 ~dim:2 ~extent:20 ~speed:2 () in
  let gamma = origin 2 in
  let query = Fof.knn_q ~k:4 ~interval in
  let updates = updates_on_events ~seed:1 ~db ~gamma ~query ~count:6 in
  let name = "uniform N=32 knn 4" in
  CX.check name ~db ~gamma ~query ~updates ~truth:(CX.naive_knn ~k:4);
  CF.check name ~db ~gamma ~query ~updates ~truth:(CF.naive_knn ~k:4)

(* Windows that open at a termination instant.  Lifetimes are closed, so
   the object terminated there is alive at the window's first point and
   in no later piece.  Every update here is a termination too, so each of
   the monitor's predictions starts at one. *)
let test_window_at_termination () =
  let obj x v = T.linear ~start:lo ~a:(Qvec.of_list [ q v ]) ~b:(Qvec.of_list [ q x ]) in
  (* 1 is nearest until it ends at 4; 2 and 5 stand together at 3; 3 and
     4 close in from either side *)
  let db =
    List.fold_left
      (fun db (o, x, v) -> DB.add_initial db o (obj x v))
      (DB.empty ~dim:1 ~tau:lo)
      [ (1, 1, 0); (2, 3, 0); (3, 10, -1); (4, -9, 1); (5, 3, 0) ]
  in
  let start = q 4 in
  let db = DB.apply_exn db (U.Terminate { oid = 1; tau = start }) in
  let updates =
    [ U.Terminate { oid = 2; tau = q 6 };
      U.Terminate { oid = 3; tau = q 8 };
      U.Terminate { oid = 5; tau = q 9 } ]
  in
  let interval = Fof.Interval.closed start hi in
  List.iter
    (fun (qname, query) ->
      check_both ~predict:true ("window at a termination " ^ qname) ~db ~gamma:(origin 1)
        ~query ~updates)
    [ ("nearest", Fof.nearest_q ~interval);
      ("knn 2", Fof.knn_q ~k:2 ~interval);
      ("within 1", Fof.within_q ~bound:Q.one ~interval);
      ("within 9", Fof.within_q ~bound:(q 9) ~interval) ];
  (* a death due at the clock leaves without a second point: the raw
     stream holds one point at the window start and at each termination
     off the sweep's events *)
  let m =
    CX.Mon.create ~db ~gdist:(Gdist.euclidean_sq ~gamma:(origin 1))
      ~query:(Fof.nearest_q ~interval) ()
  in
  List.iter (CX.Mon.apply_update_exn m) updates;
  ignore (CX.Mon.finalize m);
  let points =
    List.filter_map (function CX.TL.At (i, _) -> Some i | CX.TL.Span _ -> None)
      (CX.Mon.drain_valid m)
  in
  List.iter
    (fun t ->
      let at = BX.instant_of_scalar t in
      Alcotest.(check int) (Format.asprintf "points at %a" Q.pp t) 1
        (List.length (List.filter (fun i -> BX.compare_instant i at = 0) points)))
    [ start; q 8; q 9 ]

(* ------------------------------------------------------------------ *)
(* The reader's memo                                                    *)
(* ------------------------------------------------------------------ *)

let chdir oid tau v = U.Chdir { oid; tau; a = Qvec.of_list [ q v ] }

let drive_both ?final_gdist name ~db ~gdist ~query ~steps =
  let mx, px = CX.drive ?final_gdist name ~db ~gdist ~query ~steps ~truth:(CX.snapshot ~query) in
  let mf, pf = CF.drive ?final_gdist name ~db ~gdist ~query ~steps ~truth:(CF.snapshot ~query) in
  ((CX.Mon.stats mx, px), (CF.Mon.stats mf, pf))

(* Squared speed jumps at every direction change, so the within monitor's
   curves are discontinuous: the chdirs already in the database are jump
   events its engine repositions at, those it is fed settle at their own
   instant.  The past sweep and the range operator reposition too. *)
let test_memo_jumps () =
  let db = Gen.uniform_db ~seed:4 ~n:6 ~dim:1 ~extent:15 ~speed:2 () in
  let db =
    DB.apply_all_exn db
      [ chdir 1 (q 2) 1; chdir 2 (q 3) 0; chdir 3 (q 4) 2; chdir 1 (q 5) (-1); chdir 4 (q 6) 1 ]
  in
  let steps =
    [ Update (chdir 5 (q 8) 1); Update (chdir 2 (q 9) 2);
      Update (U.Terminate { oid = 3; tau = q 10 });
      Update (U.New { oid = 7; tau = q 11; a = Qvec.of_list [ q 1 ]; b = Qvec.of_list [ q 0 ] });
      Update (chdir 7 (q 13) 0); Update (chdir 6 (q 14) (-1)) ]
  in
  let gdist = Gdist.speed_sq in
  List.iter
    (fun bound ->
      let bound = q bound in
      let query = Fof.within_q ~bound ~interval in
      let name = Format.asprintf "speed_sq within %a" Q.pp bound in
      let (sx, _), (sf, _) = drive_both name ~db ~gdist ~query ~steps in
      if sx.CX.Mon.E.jumps = 0 || sf.CF.Mon.E.jumps = 0 then
        Alcotest.failf "%s: no jump repositioned an entry" name;
      let db =
        DB.apply_all_exn db (List.filter_map (function Update u -> Some u | _ -> None) steps)
      in
      let truth = CX.snapshot ~query ~db ~gdist in
      CX.check_pieces (name ^ ": sweep") truth (CX.Sw.run ~db ~gdist ~query).CX.Sw.timeline;
      CX.check_pieces (name ^ ": range") truth
        (CX.Range.run ~db ~gdist ~bound ~lo ~hi).CX.Range.timeline;
      CF.check_pieces (name ^ ": range") (CF.snapshot ~query ~db ~gdist)
        (CF.Range.run ~db ~gdist ~bound ~lo ~hi).CF.Range.timeline)
    [ 0; 1; 4 ]

(* A chdir of the query trajectory replaces every curve at once and
   settles the order by swaps alone (Theorem 10), mid-stream between
   object updates.  The final g-distance agrees with the first up to the
   chdir, so it answers for the whole window. *)
let test_memo_query_chdir () =
  let db = Gen.uniform_db ~seed:7 ~n:6 ~dim:1 ~extent:12 ~speed:2 () in
  let gamma = origin 1 in
  let gamma' = T.chdir gamma (q 6) (Qvec.of_list [ q 2 ]) in
  let gamma'' = T.chdir gamma' (q 11) (Qvec.of_list [ q (-3) ]) in
  let steps =
    [ Update (chdir 1 (q 3) 1); Chdir_query (q 6, Gdist.euclidean_sq ~gamma:gamma');
      Update (chdir 2 (q 8) (-1)); Chdir_query (q 11, Gdist.euclidean_sq ~gamma:gamma'');
      Update (U.Terminate { oid = 3; tau = q 13 }) ]
  in
  List.iter
    (fun (qname, query) ->
      ignore
        (drive_both ~final_gdist:(Gdist.euclidean_sq ~gamma:gamma'')
           ("query chdir " ^ qname) ~db ~gdist:(Gdist.euclidean_sq ~gamma) ~query ~steps))
    [ ("nearest", Fof.nearest_q ~interval); ("knn 2", Fof.knn_q ~k:2 ~interval);
      ("within 30", Fof.within_q ~bound:(q 30) ~interval) ]

(* An audit that finds the engine's clock moved past pending events
   rebuilds the order mid-stream, at that clock: entries move without a
   swap.  Pieces from before the jump and after the rebuild are checked;
   the skipped stretch has none. *)
let test_memo_rebuild () =
  let db =
    List.fold_left
      (fun db (o, x, v) ->
        DB.add_initial db o (T.linear ~start:lo ~a:(Qvec.of_list [ q v ]) ~b:(Qvec.of_list [ q x ])))
      (DB.empty ~dim:1 ~tau:lo)
      (* 1 leaves |x| <= 5 at 5, 2 enters at 7, 3 stays in, 4 out; 5 and 6
         trade places twice *)
      [ (1, 0, 1); (2, 12, -1); (3, 3, 0); (4, 8, 0); (5, -6, 1); (6, 6, -1) ]
  in
  let steps =
    [ Update (chdir 3 (q 1) 0); Update (chdir 4 (q 2) 0); Skip_and_heal (q 9);
      Update (chdir 1 (q 10) 0); Update (chdir 2 (q 12) 1) ]
  in
  List.iter
    (fun (qname, query) ->
      let (sx, _), (sf, _) =
        drive_both ("rebuild " ^ qname) ~db ~gdist:(Gdist.euclidean_sq ~gamma:(origin 1)) ~query
          ~steps
      in
      Alcotest.(check (pair int int)) (qname ^ ": one rebuild each") (1, 1)
        (sx.CX.Mon.E.rebuilds, sf.CF.Mon.E.rebuilds))
    [ ("within 25", Fof.within_q ~bound:(q 25) ~interval);
      ("knn 2", Fof.knn_q ~k:2 ~interval); ("knn 3", Fof.knn_q ~k:3 ~interval) ]

(* k at or above the number of live objects: the answer is every live
   object, no pivot, and it moves only when one is born or dies. *)
let test_memo_k_large () =
  let db = Gen.uniform_db ~seed:9 ~n:4 ~dim:1 ~extent:10 ~speed:2 () in
  let gamma = origin 1 in
  let steps =
    [ Update (chdir 1 (q 2) 1); Update (U.Terminate { oid = 2; tau = q 4 });
      Update (chdir 3 (q 6) (-2));
      Update (U.New { oid = 9; tau = q 8; a = Qvec.of_list [ q 1 ]; b = Qvec.of_list [ q 1 ] });
      Update (U.Terminate { oid = 4; tau = q 12 }) ]
  in
  List.iter
    (fun k ->
      let query = Fof.knn_q ~k ~interval in
      let name = Printf.sprintf "knn %d of at most 4" k in
      ignore (drive_both name ~db ~gdist:(Gdist.euclidean_sq ~gamma) ~query ~steps);
      let db =
        DB.apply_all_exn db (List.filter_map (function Update u -> Some u | _ -> None) steps)
      in
      CX.check name ~db ~gamma ~query ~updates:[] ~truth:(CX.snapshot ~query);
      CF.check name ~db ~gamma ~query ~updates:[] ~truth:(CF.snapshot ~query))
    [ 4; 5 ]

(* No event crosses the bound: four objects stay below it and cross one
   another, a fifth stays above, and the updates are chdirs that keep it
   so.  Every piece the within monitor makes is one set, physically. *)
let test_memo_shares_set () =
  let db =
    List.fold_left
      (fun db (o, x, v) ->
        DB.add_initial db o
          (T.linear ~start:lo ~a:(Qvec.of_list [ Q.of_ints v 2 ]) ~b:(Qvec.of_list [ q x ])))
      (DB.empty ~dim:1 ~tau:lo)
      [ (1, 0, 1); (2, 10, -1); (3, 100, 0); (4, 4, 0); (5, 6, 0) ]
  in
  let steps = [ Update (chdir 1 (q 3) 1); Update (chdir 4 (q 9) (-1)) ] in
  let query = Fof.within_q ~bound:(q 50) ~interval in
  let shared what crossings pieces set_of =
    if crossings < 3 then Alcotest.failf "%s: %d crossings, expected at least 3" what crossings;
    match pieces with
    | [] -> Alcotest.failf "%s: no pieces" what
    | p :: rest ->
      let s = set_of p in
      Alcotest.(check string) (what ^ ": answer") "1,2,4,5" (elts s);
      List.iteri
        (fun j p ->
          if set_of p != s then Alcotest.failf "%s: piece %d holds a set of its own" what (j + 1))
        rest
  in
  let (sx, px), (sf, pf) =
    drive_both "no event across the bound" ~db ~gdist:(Gdist.coordinate 0) ~query ~steps
  in
  shared "exact" sx.CX.Mon.E.crossings px CX.TL.set_of;
  shared "filtered" sf.CF.Mon.E.crossings pf CF.TL.set_of

(* The readers take exactly the formulas the constructors build. *)
let test_of_query () =
  let kind = Alcotest.testable (fun fmt -> function
      | Some (Reader.Knn k) -> Format.fprintf fmt "knn %d" k
      | Some (Reader.Within b) -> Format.fprintf fmt "within %a" Q.pp b
      | None -> Format.pp_print_string fmt "none") ( = )
  in
  let check name expected query = Alcotest.check kind name expected (Reader.of_query query) in
  let other = Fof.Interval.closed (q 3) (q 7) in
  check "nearest" (Some (Reader.Knn 1)) (Fof.nearest_q ~interval:other);
  List.iter
    (fun k -> check (Printf.sprintf "knn %d" k) (Some (Reader.Knn k)) (Fof.knn_q ~k ~interval))
    [ 1; 2; 3; 4 ];
  let b = Q.of_ints 7 2 in
  check "within" (Some (Reader.Within b)) (Fof.within_q ~bound:b ~interval);
  check "beyond" None (Fof.beyond_q ~bound:(q 5) ~interval);
  let strict =
    let f y = Fof.Dist (y, Fof.t_var) in
    { (Fof.nearest_q ~interval) with Fof.phi = Fof.Forall ("z", Fof.Cmp (Fof.Lt, f "y", f "z")) }
  in
  check "strict nearest" None strict;
  let shifted =
    let tt = Fof.affine ~scale:Q.one ~offset:Q.one in
    { (Fof.within_q ~bound:(q 5) ~interval) with
      Fof.phi = Fof.Cmp (Fof.Le, Fof.Dist ("y", tt), Fof.Const (q 5)) }
  in
  check "within at t+1" None shifted;
  let truncated =
    match (Fof.knn_q ~k:2 ~interval).Fof.phi with
    | Fof.Not (Fof.Exists (z, Fof.Exists (_, body))) ->
      { (Fof.knn_q ~k:1 ~interval) with Fof.phi = Fof.Not (Fof.Exists (z, body)) }
    | _ -> Alcotest.fail "unexpected knn_q shape"
  in
  check "knn body under too few quantifiers" None truncated

let () =
  Alcotest.run "reader"
    [ ("of_query", [ Alcotest.test_case "constructor formulas only" `Quick test_of_query ]);
      ( "reader-vs-snapshot",
        [ Alcotest.test_case "nearest and knn 2, N <= 8" `Quick test_nearest_and_knn2;
          Alcotest.test_case "knn 3, N <= 6" `Quick test_knn3;
          Alcotest.test_case "within, snapped and plain bounds" `Quick test_within;
          Alcotest.test_case "window at a termination" `Quick test_window_at_termination ] );
      ( "reader-vs-naive",
        [ Alcotest.test_case "knn 4, N = 32" `Quick test_knn4_vs_naive ] );
      ( "memo",
        [ Alcotest.test_case "within over speed_sq jumps" `Quick test_memo_jumps;
          Alcotest.test_case "query chdir mid-stream" `Quick test_memo_query_chdir;
          Alcotest.test_case "audit-forced rebuild mid-stream" `Quick test_memo_rebuild;
          Alcotest.test_case "knn k >= live objects" `Quick test_memo_k_large;
          Alcotest.test_case "no event across the bound: one set" `Quick
            test_memo_shares_set ] ) ]
