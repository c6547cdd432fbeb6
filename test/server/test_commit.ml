(* The commit core driven directly, without sockets or threads: every
   subscription's emitted pieces against in-process Exact monitors fed
   the same committed stream, a follower core fed the primary's emitted
   repl frames against the primary's state at every digest, and the
   delta-resume backlog against its stated bound. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid
module Gen = Moq_workload.Gen
module BX = Moq_core.Backend.Exact
module MonX = Moq_core.Monitor.Make (BX)
module KnnX = Moq_core.Knn.Make (BX)
module RangeX = Moq_core.Range_query.Make (BX)
module CS = Moq_core.Curve_store
module AggX = Moq_agg.Agg.Make (BX)
module Proto = Moq_proto.Proto
module Commit = Moq_server.Commit

let q = Q.of_int

(* Every core's store directory, [moq_commit_<pid>_<n>] under the temp
   dir; each test case removes the ones it made when it ends ([case]). *)
let tmp_ctr = ref 0
let tmp_prefix = Printf.sprintf "moq_commit_%d_" (Unix.getpid ())
let made = ref []

let rm_dir d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Unix.rmdir d

let tmp_dir () =
  incr tmp_ctr;
  let d = Filename.concat (Filename.get_temp_dir_name ()) (tmp_prefix ^ string_of_int !tmp_ctr) in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Unix.mkdir d 0o700;
  made := d :: !made;
  d

let case name f =
  Alcotest.test_case name `Quick (fun () ->
      Fun.protect f ~finally:(fun () ->
          List.iter (fun d -> if Sys.file_exists d then rm_dir d) !made;
          made := []))

(* Run last: no case left a store directory behind. *)
let test_no_dir_left () =
  let left =
    List.filter
      (fun f -> String.starts_with ~prefix:tmp_prefix f)
      (Array.to_list (Sys.readdir (Filename.get_temp_dir_name ())))
  in
  Alcotest.(check (list string)) "store directories left" [] left

let core ?(digest_every = 64) db =
  let reg = Moq_obs.Registry.create () in
  match
    Commit.create ~reg ~sink:(Moq_obs.Sink.of_registry reg) ~tracer:(Moq_obs.Trace.create ())
      ~recorder:(Moq_obs.Recorder.create ()) ~fsync:false ~checkpoint_every:16
      ~dir:(tmp_dir ()) ~init_db:(Some db) ~digest_every ~slow_query_ms:0.
      ~hot_objects:true
  with
  | Ok c -> c
  | Error e -> Alcotest.fail e

(* Exact's wire bytes for a timeline *)
let wire_piece = function
  | MonX.TL.At (i, s) -> Proto.P_at (Format.asprintf "%a" BX.pp_instant i, Oid.Set.elements s)
  | MonX.TL.Span (a, b, s) ->
    Proto.P_span
      ( Format.asprintf "%a" BX.pp_instant a,
        Format.asprintf "%a" BX.pp_instant b,
        Oid.Set.elements s )

(* Move the first later update of each created object ahead of its
   [new]: it arrives for an unknown OID, is quarantined, and graduates
   when the [new] is accepted. *)
let rec with_graduates = function
  | [] -> []
  | (U.New { oid; _ } as n) :: rest ->
    (match List.find_opt (fun u -> U.oid u = oid) rest with
     | Some x -> x :: n :: with_graduates (List.filter (fun u -> u != x) rest)
     | None -> n :: with_graduates rest)
  | u :: rest -> u :: with_graduates rest

let stream ~seed db =
  with_graduates (Gen.mixed_stream ~seed ~db ~start:(q 1) ~gap:(q 1) ~count:40 ())

let repl_update msg =
  match Proto.parse_server_msg msg with
  | Ok (Proto.E_repl_update { seq; u; _ }) -> `Update (seq, u)
  | Ok (Proto.E_repl_digest { clock; bytes; crc }) -> `Digest (clock, bytes, crc)
  | _ -> Alcotest.failf "not a repl frame: %s" msg

(* A reference for one subscription: the same query over the same MOD on
   the Exact backend, fed the committed stream. *)
type reference = {
  kind : Proto.sub_kind;
  hi : Q.t;
  feed : U.t -> unit;
  drain : unit -> Proto.piece list;
  finish : unit -> Proto.piece list;  (* the rows a completion flushes *)
  clock : unit -> Q.t;
}

let reference c db kind ~lo ~hi =
  let ok = function Ok () -> () | Error e -> Alcotest.failf "reference: %a" DB.pp_error e in
  match kind with
  | Proto.Sub_agg { d; window; pois } ->
    let c = AggX.Cont.create ~db ~pois:(List.map Qvec.of_list pois) ~d ~window ~lo ~hi () in
    let drain () = List.map Commit.wire_row (AggX.Cont.drain_rows c) in
    { kind; hi; feed = (fun u -> ok (AggX.Cont.apply_update c u)); drain;
      finish = (fun () -> ignore (AggX.Cont.finalize c); drain ());
      clock = (fun () -> AggX.Cont.clock c) }
  | _ ->
    let m =
      MonX.create ~db ~gdist:(Commit.gdist_of_kind c kind)
        ~query:(Commit.query_of_kind kind ~lo ~hi) ()
    in
    { kind; hi; feed = (fun u -> ok (MonX.apply_update m u));
      drain = (fun () -> List.map wire_piece (MonX.drain_valid m));
      finish = (fun () -> []); clock = (fun () -> MonX.clock m) }

let kinds =
  [ (Proto.Sub_knn 1, q 1000); (Proto.Sub_knn 2, q 1000); (Proto.Sub_knn 1, q 12);
    (Proto.Sub_range (q 400), q 1000); (Proto.Sub_gdist (Proto.Speed_sq, q 20), q 1000);
    (Proto.Sub_agg { d = q 20; window = q 4; pois = [ [ q 0; q 0 ]; [ q 10; q (-10) ] ] }, q 1000);
    (Proto.Sub_agg { d = q 30; window = q 5; pois = [ [ q 5; q 5 ] ] }, q 15) ]

let test_subscriptions_match_exact (family, db) () =
  let c = core db in
  let emitted = Hashtbl.create 8 and completed = ref [] and order = ref [] in
  let emit = function
    | Commit.Pieces { owner; sub; first_seq; pieces } ->
      Alcotest.(check int) "owner" 1 owner;
      let got = Option.value ~default:[] (Hashtbl.find_opt emitted sub) in
      Alcotest.(check int) "contiguous sequence" (List.length got) first_seq;
      Hashtbl.replace emitted sub (got @ pieces);
      order := !order @ [ sub ]
    | Commit.Complete { sub; _ } -> completed := sub :: !completed
    | Commit.Repl _ | Commit.Reset _ -> ()
  in
  let subs =
    List.map
      (fun (kind, hi) ->
        match Commit.subscribe c ~owner:1 kind ~lo:(q 0) ~hi with
        | Ok id ->
          Commit.flush c ~emit id;
          let r = reference c db kind ~lo:(q 0) ~hi in
          (id, r, ref (r.drain ()))
        | Error e -> Alcotest.fail e)
      kinds
  in
  (* the committed stream, in WAL order, from a follower's frames *)
  ignore (Commit.follow c ~owner:0 ~since:None);
  order := [];
  let committed = ref [] in
  let graduated = ref 0 in
  let emit out =
    (match out with
     | Commit.Repl { msg; digest = false; _ } ->
       (match repl_update msg with
        | `Update (_, cu) -> committed := cu :: !committed
        | `Digest _ -> ());
       (* a commit's events reach a session newest subscription first *)
       Alcotest.(check (list int)) "newest subscription first"
         (List.sort (fun a b -> compare b a) !order) !order;
       order := []
     | _ -> ());
    emit out
  in
  List.iter
    (fun u ->
      let n = List.length !committed in
      ignore (Commit.ingest c ~emit u);
      graduated := !graduated + max 0 (List.length !committed - n - 1))
    (stream ~seed:7 db);
  Alcotest.(check bool) (family ^ ": some updates graduated from quarantine") true
    (!graduated > 0);
  List.iter
    (fun cu ->
      List.iter
        (fun (_, r, want) ->
          if Q.compare (r.clock ()) r.hi < 0 then begin
            r.feed cu;
            want := !want @ r.drain ();
            if Q.compare (r.clock ()) r.hi >= 0 then want := !want @ r.finish ()
          end)
        subs)
    (List.rev !committed);
  List.iter
    (fun (id, r, want) ->
      let got = Option.value ~default:[] (Hashtbl.find_opt emitted id) in
      let name = Printf.sprintf "%s sub %d" family id in
      Alcotest.(check bool) (name ^ " streams something") true (got <> []);
      Alcotest.(check bool) (name ^ " = Exact") true (got = !want);
      Alcotest.(check bool) (name ^ " completes iff its interval is valid")
        (Q.compare (r.clock ()) r.hi >= 0) (List.mem id !completed))
    subs;
  Alcotest.(check int) "completed subscriptions are retired"
    (List.length kinds - List.length !completed) (Commit.n_subs c)

(* QUERY answers against in-process Exact runs over the same MOD, and
   the curve stores against their bound: at most one entry per object of
   the MOD they last served. *)
let check_queries c ~what =
  let db = Commit.db c in
  let gdist = Commit.gdist_of_kind c (Proto.Sub_knn 1) in
  let lo = q 0 and hi = Q.add (DB.last_update db) (q 4) in
  List.iter
    (fun kind ->
      let got = Commit.query c db ~session:1 kind ~lo ~hi in
      let want =
        match kind with
        | Proto.Qk_knn k -> (KnnX.run ~db ~gdist ~k ~lo ~hi).KnnX.timeline
        | Proto.Qk_range bound -> (RangeX.run ~db ~gdist ~bound ~lo ~hi).RangeX.timeline
      in
      Alcotest.(check bool) (what ^ ": query = Exact") true (got = List.map wire_piece want))
    [ Proto.Qk_knn 1; Proto.Qk_knn 3; Proto.Qk_range (q 400) ];
  List.iter
    (fun s ->
      if CS.size s > DB.cardinal db then
        Alcotest.failf "%s: %d stored curves for %d objects" what (CS.size s) (DB.cardinal db))
    (Commit.curve_stores c)

let store_sizes c = List.map CS.size (Commit.curve_stores c)

let test_query_matches_exact () =
  let db = Gen.uniform_db ~seed:11 ~n:12 ~extent:30 ~speed:4 () in
  let c = core db in
  check_queries c ~what:"cold";
  let warm = store_sizes c in
  Alcotest.(check (list int)) "one curve per object, squared speed unused"
    [ DB.cardinal db; 0 ] warm;
  check_queries c ~what:"warm";
  check_queries c ~what:"warm again";
  Alcotest.(check (list int)) "repeated queries do not grow the stores" warm (store_sizes c);
  let updates = Gen.mixed_stream ~seed:12 ~db ~start:(q 1) ~gap:(q 1) ~count:12 () in
  List.iteri
    (fun i u ->
      ignore (Commit.ingest c ~emit:ignore u);
      (* right after the update, and every third one twice *)
      check_queries c ~what:(Printf.sprintf "after update %d" i);
      if i mod 3 = 0 then check_queries c ~what:(Printf.sprintf "again after update %d" i))
    updates;
  Alcotest.(check bool) "the stream creates and ends objects" true
    (List.exists (function U.New _ -> true | _ -> false) updates
     && List.exists (function U.Terminate _ -> true | _ -> false) updates);
  (* a follower reset to the primary's snapshot answers from empty stores *)
  let f = core (Gen.uniform_db ~seed:99 ~n:3 ()) in
  check_queries f ~what:"follower before its reset";
  match Commit.follow c ~owner:0 ~since:None with
  | Proto.R_repl_hello { epoch; seq; snapshot = Some _ as snapshot; _ }, _ ->
    Alcotest.(check bool) "bootstrap" true (Commit.bootstrap f ~emit:ignore ~epoch ~seq snapshot);
    Alcotest.(check (list int)) "a snapshot reset empties the stores" [ 0; 0 ] (store_sizes f);
    check_queries f ~what:"follower after its reset";
    Alcotest.(check bool) "follower answers = primary's" true
      (Commit.query f (Commit.db f) ~session:1 (Proto.Qk_knn 2) ~lo:(q 0) ~hi:(q 40)
       = Commit.query c (Commit.db c) ~session:1 (Proto.Qk_knn 2) ~lo:(q 0) ~hi:(q 40))
  | m, _ -> Alcotest.failf "unexpected reply %s" (Proto.render_server_msg m)

(* A follower core fed the primary's frames holds the primary's bytes at
   every digest. *)
let test_follower_tracks_primary () =
  let db = Gen.uniform_db ~seed:4 ~n:10 ~extent:40 ~speed:4 () in
  let p = core ~digest_every:3 db in
  let frames = ref [] in
  let emit = function
    | Commit.Repl { owner = 0; msg; digest } ->
      frames := (msg, if digest then Some (Commit.snapshot p) else None) :: !frames
    | _ -> ()
  in
  let reply, delta = Commit.follow p ~owner:0 ~since:None in
  Alcotest.(check bool) "a new follower gets a snapshot" true (delta = None);
  List.iter (fun u -> ignore (Commit.ingest p ~emit u)) (stream ~seed:5 db);
  let f = core (Gen.uniform_db ~seed:99 ~n:3 ()) in
  (match reply with
   | Proto.R_repl_hello { epoch; seq; snapshot; _ } ->
     Alcotest.(check bool) "bootstrap" true
       (Commit.bootstrap f ~emit:ignore ~epoch ~seq snapshot);
     let digests = ref 0 in
     List.iter
       (fun (msg, at_digest) ->
         match repl_update msg, at_digest with
         | `Update (seq, u), _ ->
           Alcotest.(check bool) "contiguous" true
             (Commit.apply f ~emit:ignore ~epoch ~wm:None ~seq u)
         | `Digest (clock, bytes, crc), Some want ->
           incr digests;
           Alcotest.(check bool) "digest check passes" false
             (Commit.digest_check f ~epoch ~wm:None ~clock ~bytes ~crc);
           Alcotest.(check bool) "byte-identical snapshot at the digest" true
             (Commit.snapshot f = want)
         | `Digest _, None -> Alcotest.fail "digest without a primary snapshot")
       (List.rev !frames);
     Alcotest.(check bool) "several digests" true (!digests >= 3);
     Alcotest.(check int) "no divergence" 0 (Commit.divergence f);
     Alcotest.(check (option (pair int int))) "position" (Some (epoch, Commit.seq p))
       (Commit.position f);
     Alcotest.(check string) "final state" (Commit.snapshot p) (Commit.snapshot f)
   | m -> Alcotest.failf "unexpected reply %s" (Proto.render_server_msg m))

(* The backlog holds the last [backlog_bound] commits: a follower exactly
   that far behind resumes as a delta of that many frames, one further
   behind gets a snapshot. *)
let test_backlog_bound () =
  let db = Gen.uniform_db ~seed:2 ~n:4 ~extent:40 ~speed:4 () in
  let c = core db in
  let n = Commit.backlog_bound + 10 in
  List.iter
    (fun u ->
      Alcotest.(check bool) "accepted" true
        (Commit.ingest c ~emit:(fun _ -> ()) u = Proto.V_accepted))
    (Gen.chdir_stream ~seed:2 ~db ~start:(q 0) ~gap:(q 1) ~count:n ());
  let epoch, seq = Commit.watermark c in
  Alcotest.(check int) "every update committed" n seq;
  let resume s =
    let reply, delta = Commit.follow c ~owner:3 ~since:(Some (epoch, s)) in
    let frames = ref 0 in
    Option.iter
      (fun after -> Commit.replay c ~emit:(fun _ -> incr frames) ~owner:3 ~after)
      delta;
    let snap = match reply with Proto.R_repl_hello { snapshot; _ } -> snapshot <> None | _ -> false in
    (snap, !frames)
  in
  Alcotest.(check (pair bool int)) "delta from the oldest covered position"
    (false, Commit.backlog_bound) (resume (seq - Commit.backlog_bound));
  Alcotest.(check (pair bool int)) "snapshot from beyond the backlog" (true, 0)
    (resume (seq - Commit.backlog_bound - 1));
  Alcotest.(check (pair bool int)) "up to date" (false, 0) (resume seq);
  let reply, _ = Commit.follow c ~owner:3 ~since:(Some (epoch + 1, seq)) in
  Alcotest.(check bool) "another epoch gets a snapshot" true
    (match reply with Proto.R_repl_hello { snapshot = Some _; _ } -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Work counts of printing on watch-shaped inputs                         *)
(* ------------------------------------------------------------------ *)

module Prng = Moq_workload.Prng
module T = Moq_mod.Trajectory
module BF = Moq_core.Backend.Filtered
module A = Moq_poly.Algnum

(* The shape of the repository benchmark's watch workload, drawn the way
   its driver draws it: parts with hashed-apart sub-seeds, each 32
   objects at speed 6 on a disc of radius 100, the 6 range, [knn 1] and
   agg subscriptions over [0, 10.5], and one chdir half a unit in. *)
let sub_seed seed k =
  Int64.to_int (Int64.shift_right_logical (Prng.next64 (Prng.create ((seed * 1_000_003) + k))) 2)

let heading st speed =
  let phi = Prng.float st (2. *. Float.pi) in
  let c x = q (Float.to_int (Float.round (speed *. x))) in
  Qvec.of_list [ c (cos phi); c (sin phi) ]

let watch_part seed =
  let st = Prng.create seed in
  let db = ref (DB.empty ~dim:2 ~tau:(q 0)) in
  for j = 0 to 31 do
    let r = 100. *. (float_of_int j +. 0.5) /. 32. in
    let th = Prng.float st (2. *. Float.pi) in
    let at x = q (Float.to_int (Float.round (r *. x))) in
    let b = Qvec.of_list [ at (cos th); at (sin th) ] in
    db := DB.add_initial !db (1 + j) (T.linear ~start:(q 0) ~a:(heading st 6.) ~b)
  done;
  let turn = Prng.create (sub_seed seed 1) in
  let u = U.Chdir { oid = 1; tau = Q.of_ints 1 2; a = heading turn 6. } in
  let range r = Proto.Sub_range (q (r * r)) in
  let kinds =
    List.map range [ 20; 30; 40; 50; 60; 80 ]
    @ [ Proto.Sub_knn 1;
        Proto.Sub_agg
          { d = q 25; window = q 8; pois = [ [ q 0; q 0 ]; [ q 40; q (-20) ]; [ q (-30); q 30 ] ] } ]
  in
  (!db, kinds, u)

(* Printing a piece names its instants by canonical text.  A quadratic
   root's text comes in closed form from its dyadic cell; Sturm isolation
   is the fallback, and a deferred Filtered crossing prints without
   building its exact number.  Gates: at most one isolation per 10
   polynomials printed, and no exact build caused by printing a deferred
   quadratic instant. *)
let test_watch_print_counts () =
  A.reset_print_stats ();
  let builds0 = BF.print_builds () in
  let pieces = ref 0 in
  for j = 0 to 29 do
    let db, kinds, u = watch_part (sub_seed 3 (100 + j)) in
    let c = core db in
    let emit = function
      | Commit.Pieces { pieces = ps; _ } ->
        pieces := !pieces + List.length ps;
      | _ -> ()
    in
    List.iter
      (fun kind ->
        match Commit.subscribe c ~owner:1 kind ~lo:(q 0) ~hi:(Q.of_ints 21 2) with
        | Ok id -> Commit.flush c ~emit id
        | Error e -> Alcotest.fail e)
      kinds;
    ignore (Commit.ingest c ~emit u);
    Commit.close c ~checkpoint:false
  done;
  let st = A.print_stats () in
  Printf.printf "watch seed 3, 30 parts: %d pieces, %d polynomials printed, %d isolations\n"
    !pieces st.A.polys st.A.isolations;
  Alcotest.(check bool) "pieces were printed" true (!pieces > 0 && st.A.polys > 100);
  if 10 * st.A.isolations > st.A.polys then
    Alcotest.failf "%d Sturm isolations for %d polynomials printed" st.A.isolations st.A.polys;
  Alcotest.(check int) "exact builds caused by printing" 0 (BF.print_builds () - builds0)

let () =
  let families =
    [ ("uniform", Gen.uniform_db ~seed:7 ~n:12 ~extent:30 ~speed:4 ());
      ("clustered", Gen.clustered_db ~seed:8 ~n:12 ~clusters:1 ~spread:30 ~speed:4 ()) ]
  in
  Alcotest.run "commit"
    [ ( "core",
        List.map
          (fun (name, db) ->
            case ("subscriptions = Exact, " ^ name) (test_subscriptions_match_exact (name, db)))
          families
        @ [ case "query = Exact, curve store bound" test_query_matches_exact;
            case "follower tracks primary" test_follower_tracks_primary;
            case "backlog bound" test_backlog_bound;
            case "watch printing counts" test_watch_print_counts;
            Alcotest.test_case "no store directory left" `Quick test_no_dir_left ] ) ]
