(* Server integration suite, all over real sockets on 127.0.0.1:
   handshake discipline, wire-level rejection of out-of-order and
   duplicate updates, quarantine graduation, subscription push streams
   and query answers checked against reference in-process Exact runs,
   admission control,
   backpressure drops with exact sequence accounting, idle timeout,
   SIGKILL-equivalent crash + WAL recovery bit-identity, and graceful
   drain with checkpoint. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module IO = Moq_mod.Mod_io
module Oid = Moq_mod.Oid
module Gen = Moq_workload.Gen
module Store = Moq_durable.Store
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist
module BX = Moq_core.Backend.Exact
module MonX = Moq_core.Monitor.Make (BX)
module KnnX = Moq_core.Knn.Make (BX)
module RangeX = Moq_core.Range_query.Make (BX)
module Agg = Moq_agg.Agg
module AggX = Moq_agg.Agg.Make (BX)
module Frame = Moq_proto.Frame
module Proto = Moq_proto.Proto
module Server = Moq_server.Server
module Commit = Moq_server.Commit
module Client = Moq_server.Client
module Recorder = Moq_obs.Recorder
module Json = Moq_obs.Json
module Wal = Moq_durable.Wal

let q = Q.of_int
let vec l = Qvec.of_list (List.map Q.of_int l)

let tmp_ctr = ref 0

let tmp_dir () =
  incr tmp_ctr;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "moq_server_%d_%d" (Unix.getpid ()) !tmp_ctr)
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Unix.mkdir d 0o700;
  d

let rm_dir d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    try Unix.rmdir d with Unix.Unix_error _ -> ()
  end

let mk_db () = Gen.uniform_db ~seed:3 ~n:4 ~extent:20 ~speed:4 ()

(* Start a fresh server on an ephemeral port, run [f], always stop and
   clean up.  [tweak] adjusts the config (queue sizes, timeouts, ...). *)
let with_server ?(tweak = fun c -> c) ?(db = mk_db ()) f =
  let dir = tmp_dir () in
  let cfg =
    tweak
      { (Server.default_config ~listen:(Server.Tcp ("127.0.0.1", 0)) ~store_dir:dir)
        with
        Server.init_db = Some db; fsync = false; idle_timeout = 0. }
  in
  let srv =
    match Server.start cfg with Ok s -> s | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () ->
      (try Server.stop srv with _ -> ());
      rm_dir dir)
    (fun () -> f srv dir db)

let connect srv =
  match Client.connect ~timeout:10. (Server.bound_addr srv) with
  | Ok c -> c
  | Error e -> Alcotest.fail (Client.error_to_string e)

let req c r =
  match Client.request c r with
  | Ok m -> m
  | Error e -> Alcotest.failf "request failed: %s" (Client.error_to_string e)

let hello c =
  match req c (Proto.Hello Proto.version) with
  | Proto.R_hello { session = _; dim; clock } -> (dim, clock)
  | m -> Alcotest.failf "unexpected hello response: %s" (Proto.render_server_msg m)

let expect_err code m =
  match m with
  | Proto.R_err { code = got; _ } when got = code -> ()
  | m ->
    Alcotest.failf "expected ERR %s, got: %s" code (Proto.render_server_msg m)

(* ------------------------------------------------------------------ *)
(* Handshake and basics                                                *)
(* ------------------------------------------------------------------ *)

let test_hello_ping_bye () =
  with_server (fun srv _dir db ->
      let c = connect srv in
      let dim, hclock = hello c in
      Alcotest.(check int) "dim" (DB.dim db) dim;
      Alcotest.(check bool) "clock" true (Q.compare hclock (q 0) >= 0);
      (match req c Proto.Ping with
       | Proto.R_pong { clock } ->
         Alcotest.(check bool) "pong clock" true (Q.equal clock hclock)
       | m -> Alcotest.failf "expected PONG: %s" (Proto.render_server_msg m));
      (match req c (Proto.Stats `Json) with
       | Proto.R_stats body ->
         Alcotest.(check bool) "stats json" true
           (String.length body > 0 && body.[0] = '{')
       | m -> Alcotest.failf "expected STATS: %s" (Proto.render_server_msg m));
      (match req c Proto.Bye with
       | Proto.R_bye -> ()
       | m -> Alcotest.failf "expected BYE: %s" (Proto.render_server_msg m));
      Client.close c)

let test_hello_first () =
  with_server (fun srv _dir _db ->
      let c = connect srv in
      expect_err "proto" (req c Proto.Ping);
      Client.close c)

let test_bad_version () =
  with_server (fun srv _dir _db ->
      let c = connect srv in
      expect_err "bad-version" (req c (Proto.Hello 99));
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Update discipline over the wire                                     *)
(* ------------------------------------------------------------------ *)

let test_wire_rejection () =
  with_server (fun srv _dir _db ->
      let c = connect srv in
      ignore (hello c);
      (* duplicate [new] for a live oid: permanent reject *)
      (match req c (Proto.Update (U.New { oid = 1; tau = q 1; a = vec [ 0; 0 ]; b = vec [ 0; 0 ] })) with
       | Proto.R_update (Proto.V_rejected _) -> ()
       | m -> Alcotest.failf "duplicate new not rejected: %s" (Proto.render_server_msg m));
      (* a good chdir advances the clock *)
      (match req c (Proto.Update (U.Chdir { oid = 1; tau = q 5; a = vec [ 1; 0 ] })) with
       | Proto.R_update Proto.V_accepted -> ()
       | m -> Alcotest.failf "chdir not accepted: %s" (Proto.render_server_msg m));
      (* out-of-order (stale) update: permanent reject, clock unchanged *)
      (match req c (Proto.Update (U.Chdir { oid = 2; tau = q 2; a = vec [ 0; 1 ] })) with
       | Proto.R_update (Proto.V_rejected _) -> ()
       | m -> Alcotest.failf "stale chdir not rejected: %s" (Proto.render_server_msg m));
      (* a replay of the accepted update is just as stale *)
      (match req c (Proto.Update (U.Chdir { oid = 1; tau = q 5; a = vec [ 1; 0 ] })) with
       | Proto.R_update (Proto.V_rejected _) -> ()
       | m -> Alcotest.failf "duplicate chdir not rejected: %s" (Proto.render_server_msg m));
      (match req c Proto.Ping with
       | Proto.R_pong { clock } -> Alcotest.(check bool) "clock is 5" true (Q.equal clock (q 5))
       | m -> Alcotest.failf "expected PONG: %s" (Proto.render_server_msg m));
      Alcotest.(check bool) "server clock" true (Q.equal (Server.clock srv) (q 5));
      Client.close c)

let test_quarantine_graduates () =
  with_server (fun srv _dir _db ->
      let c = connect srv in
      ignore (hello c);
      (* chdir for an unknown oid arrives before its [new]: quarantined *)
      (match req c (Proto.Update (U.Chdir { oid = 9; tau = q 5; a = vec [ 1; 1 ] })) with
       | Proto.R_update (Proto.V_quarantined _) -> ()
       | m -> Alcotest.failf "early chdir not quarantined: %s" (Proto.render_server_msg m));
      (* the [new] lands; the quarantined chdir must graduate with it *)
      (match req c (Proto.Update (U.New { oid = 9; tau = q 3; a = vec [ 0; 0 ]; b = vec [ 7; 7 ] })) with
       | Proto.R_update Proto.V_accepted -> ()
       | m -> Alcotest.failf "new not accepted: %s" (Proto.render_server_msg m));
      (match req c Proto.Ping with
       | Proto.R_pong { clock } ->
         Alcotest.(check bool) "clock reached the graduated update" true
           (Q.equal clock (q 5))
       | m -> Alcotest.failf "expected PONG: %s" (Proto.render_server_msg m));
      (* the recovered object turned at 5: velocity after 5 is (1,1) *)
      let db = Server.db_snapshot srv in
      (match DB.find db 9 with
       | Some tr ->
         Alcotest.(check bool) "turn applied" true
           (Qvec.equal (Option.get (T.velocity_after tr (q 5))) (vec [ 1; 1 ]))
       | None -> Alcotest.fail "oid 9 missing after graduation");
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Subscriptions vs a reference monitor                                *)
(* ------------------------------------------------------------------ *)

(* The server's timeline->wire conversion, run on the Exact backend: the
   server sweeps on Filtered, so comparing its streams and answers with
   these pieces checks it against Exact across backends. *)
let wire_instant i = Format.asprintf "%a" BX.pp_instant i

let wire_piece = function
  | MonX.TL.At (i, s) -> Proto.P_at (wire_instant i, Oid.Set.elements s)
  | MonX.TL.Span (a, b, s) ->
    Proto.P_span (wire_instant a, wire_instant b, Oid.Set.elements s)

(* the server's own g-distance anchor and agg row rendering *)
let origin_gamma = Commit.origin_gamma
let wire_row = Commit.wire_row

let test_subscription_matches_monitor () =
  with_server (fun srv _dir db ->
      let c = connect srv in
      ignore (hello c);
      let sub =
        match req c (Proto.Subscribe { kind = Proto.Sub_knn 1; lo = q 0; hi = q 30 }) with
        | Proto.R_subscribe { sub } -> sub
        | m -> Alcotest.failf "subscribe failed: %s" (Proto.render_server_msg m)
      in
      (* reference: same query, same g-distance, same database *)
      let mon =
        MonX.create ~db
          ~gdist:(Gdist.euclidean_sq ~gamma:(origin_gamma (DB.dim db)))
          ~query:(Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 30)))
          ()
      in
      let reference = ref (List.map wire_piece (MonX.drain_valid mon)) in
      let updates =
        [ U.Chdir { oid = 1; tau = q 2; a = vec [ -3; 0 ] };
          U.New { oid = 5; tau = q 4; a = vec [ 2; 2 ]; b = vec [ -10; -10 ] };
          U.Chdir { oid = 2; tau = q 7; a = vec [ 0; 0 ] };
          U.Terminate { oid = 3; tau = q 9 };
          U.Chdir { oid = 5; tau = q 11; a = vec [ 0; -1 ] } ]
      in
      List.iter
        (fun u ->
          (match req c (Proto.Update u) with
           | Proto.R_update Proto.V_accepted -> ()
           | m -> Alcotest.failf "update not accepted: %s" (Proto.render_server_msg m));
          (match MonX.apply_update mon u with
           | Ok () -> ()
           | Error e -> Alcotest.failf "reference monitor: %a" DB.pp_error e);
          reference := !reference @ List.map wire_piece (MonX.drain_valid mon))
        updates;
      (* one more request acts as a FIFO barrier: every event pushed before
         its response is already in our queue *)
      ignore (req c Proto.Ping);
      let streamed = ref [] in
      let next_seq = ref 0 in
      List.iter
        (fun ev ->
          match ev with
          | Proto.E_pieces { sub = s; first_seq; pieces } ->
            Alcotest.(check int) "event sub id" sub s;
            Alcotest.(check int) "contiguous sequence" !next_seq first_seq;
            next_seq := first_seq + List.length pieces;
            streamed := !streamed @ pieces
          | Proto.E_dropped _ -> Alcotest.fail "no drops expected at this rate"
          | _ -> ())
        (Client.drain_events c);
      Alcotest.(check bool) "pushed stream equals reference drain" true
        (!streamed = !reference);
      (* the retirement timeline equals the reference's validated prefix *)
      (match req c (Proto.Unsubscribe sub) with
       | Proto.R_unsubscribe { sub = s; pieces } ->
         Alcotest.(check int) "unsubscribe sub id" sub s;
         Alcotest.(check bool) "validated timeline matches" true
           (pieces = List.map wire_piece (MonX.valid_timeline mon))
       | m -> Alcotest.failf "unsubscribe failed: %s" (Proto.render_server_msg m));
      Client.close c)

(* An incremental nearest monitor puts the same canonical stream on the
   wire as one built over the final MOD, up to the last two pieces, which
   later updates may still extend.  An update instant and a crossing at
   that same instant print alike, so [simplify_pieces] merges them. *)
let take n l = List.filteri (fun i _ -> i < n) l

let test_incremental_stream_canonical seed () =
  let db = Gen.uniform_db ~seed ~n:6 ~extent:20 ~speed:4 () in
  let final, updates =
    List.fold_left
      (fun (db, acc) u ->
        match DB.apply db u with Ok db' -> (db', acc @ [ u ]) | Error _ -> (db, acc))
      (db, [])
      (Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q 1) ~gap:(q 1) ~count:24 ())
  in
  let gdist = Gdist.euclidean_sq ~gamma:(origin_gamma (DB.dim db)) in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 1000)) in
  let mon = MonX.create ~db ~gdist ~query () in
  let streamed = ref (List.map wire_piece (MonX.drain_valid mon)) in
  List.iter
    (fun u ->
      (match MonX.apply_update mon u with
       | Ok () -> ()
       | Error e -> Alcotest.failf "monitor: %a" DB.pp_error e);
      streamed := !streamed @ List.map wire_piece (MonX.drain_valid mon))
    updates;
  let whole =
    Proto.simplify_pieces (List.map wire_piece (MonX.drain_valid (MonX.create ~db:final ~gdist ~query ())))
  in
  let n = List.length whole - 2 in
  Alcotest.(check bool) "stream is substantial" true (n >= 5);
  Alcotest.(check bool) "incremental stream = final-MOD stream" true
    (take n (Proto.simplify_pieces !streamed) = take n whole)

(* QUERY answers equal in-process Exact runs byte for byte.  The server
   sweeps on the Filtered backend; equal-speed objects give difference
   curves of degree 1, the linear crossings Filtered holds as rationals
   but must print as Exact does. *)
let test_queries_match_exact () =
  let db =
    List.fold_left
      (fun db (oid, a, b) -> DB.add_initial db oid (T.linear ~start:(q 0) ~a:(vec a) ~b:(vec b)))
      (DB.empty ~dim:2 ~tau:(q 0))
      [ (1, [ 1; 0 ], [ -10; 1 ]); (2, [ 0; 1 ], [ 2; -8 ]); (3, [ -1; 0 ], [ 7; 3 ]);
        (4, [ 0; -1 ], [ -3; 9 ]); (5, [ 1; 1 ], [ -6; -5 ]); (6, [ -1; -1 ], [ 5; 6 ]);
        (7, [ 0; 0 ], [ 4; 4 ]) ]
  in
  with_server ~db (fun srv _dir db ->
      let c = connect srv in
      ignore (hello c);
      let updates =
        [ U.Chdir { oid = 2; tau = q 3; a = vec [ 1; 0 ] };
          U.Chdir { oid = 5; tau = q 6; a = vec [ 0; -1 ] } ]
      in
      List.iter
        (fun u ->
          match req c (Proto.Update u) with
          | Proto.R_update Proto.V_accepted -> ()
          | m -> Alcotest.failf "update not accepted: %s" (Proto.render_server_msg m))
        updates;
      let db = DB.apply_all_exn db updates in
      let gdist = Gdist.euclidean_sq ~gamma:(origin_gamma (DB.dim db)) in
      let lo = q 0 and hi = q 20 and bound = q 50 in
      let query kind =
        match req c (Proto.Query { kind; lo; hi }) with
        | Proto.R_query pieces -> pieces
        | m -> Alcotest.failf "query: %s" (Proto.render_server_msg m)
      in
      let knn = query (Proto.Qk_knn 2) and range = query (Proto.Qk_range bound) in
      Alcotest.(check bool) "knn 2 answer equals Exact" true
        (knn = List.map wire_piece (KnnX.run ~db ~gdist ~k:2 ~lo ~hi).KnnX.timeline);
      Alcotest.(check bool) "range answer equals Exact" true
        (range = List.map wire_piece (RangeX.run ~db ~gdist ~bound ~lo ~hi).RangeX.timeline);
      (* the crossing at 41/4 is linear: Filtered holds it as a rational
         and Exact as the root of a line, and both print its value *)
      let instants =
        List.concat_map
          (function
            | Proto.P_at (i, _) -> [ i ]
            | Proto.P_span (a, b, _) -> [ a; b ]
            | Proto.P_agg _ -> [])
          knn
      in
      Alcotest.(check bool) "the knn answer has a linear crossing" true
        (List.mem "41/4" instants);
      Alcotest.(check bool) "no instant prints as the root of a line" false
        (List.exists (fun i -> String.length i > 9 && String.sub i 0 9 = "root(t + ") instants);
      Client.close c)

(* SUBSCRIBE agg end to end: the pushed P_agg rows equal a reference
   in-process Cont fed the same updates, the stream ends with
   EVENT-COMPLETE once the horizon is valid, and the fanout counters
   land in the exporter. *)
let test_agg_subscription_end_to_end () =
  with_server (fun srv _dir db ->
      let c = connect srv in
      ignore (hello c);
      let d = q 40 and window = q 5 and lo = q 0 and hi = q 10 in
      let pois = [ [ q 0; q 0 ]; [ q 15; q (-15) ] ] in
      let sub =
        match
          req c
            (Proto.Subscribe
               { kind = Proto.Sub_agg { d; window; pois }; lo; hi })
        with
        | Proto.R_subscribe { sub } -> sub
        | m -> Alcotest.failf "subscribe failed: %s" (Proto.render_server_msg m)
      in
      let cont =
        AggX.Cont.create ~db ~pois:(List.map Qvec.of_list pois) ~d ~window ~lo
          ~hi ()
      in
      let reference = ref (List.map wire_row (AggX.Cont.drain_rows cont)) in
      let updates =
        [ U.Chdir { oid = 1; tau = q 2; a = vec [ -3; 0 ] };
          U.New { oid = 5; tau = q 4; a = vec [ 2; 2 ]; b = vec [ -10; -10 ] };
          U.Chdir { oid = 2; tau = q 7; a = vec [ 0; 0 ] };
          U.Terminate { oid = 3; tau = q 9 };
          (* past hi: validates the whole interval and completes the sub *)
          U.Chdir { oid = 5; tau = q 11; a = vec [ 0; -1 ] } ]
      in
      List.iter
        (fun u ->
          (match req c (Proto.Update u) with
           | Proto.R_update Proto.V_accepted -> ()
           | m -> Alcotest.failf "update not accepted: %s" (Proto.render_server_msg m));
          (match AggX.Cont.apply_update cont u with
           | Ok () -> ()
           | Error e -> Alcotest.failf "reference cont: %a" DB.pp_error e);
          reference := !reference @ List.map wire_row (AggX.Cont.drain_rows cont))
        updates;
      (* mirror the server's completion flush *)
      ignore (AggX.Cont.finalize cont);
      reference := !reference @ List.map wire_row (AggX.Cont.drain_rows cont);
      ignore (req c Proto.Ping);
      let streamed = ref [] and next_seq = ref 0 and completed = ref false in
      List.iter
        (fun ev ->
          match ev with
          | Proto.E_pieces { sub = s; first_seq; pieces } ->
            Alcotest.(check int) "event sub id" sub s;
            Alcotest.(check int) "contiguous sequence" !next_seq first_seq;
            next_seq := first_seq + List.length pieces;
            List.iter
              (function
                | Proto.P_agg _ -> ()
                | p ->
                  Alcotest.failf "non-agg piece on an agg stream: %s"
                    (Proto.render_piece p))
              pieces;
            streamed := !streamed @ pieces
          | Proto.E_complete { sub = s } ->
            Alcotest.(check int) "complete sub id" sub s;
            completed := true
          | Proto.E_dropped _ -> Alcotest.fail "no drops expected at this rate"
          | _ -> ())
        (Client.drain_events c);
      Alcotest.(check bool) "rows were streamed" true (!streamed <> []);
      Alcotest.(check bool) "pushed rows equal reference drain" true
        (!streamed = !reference);
      Alcotest.(check bool) "EVENT-COMPLETE after horizon" true !completed;
      (* the completed subscription is retired server-side *)
      expect_err "unknown-sub" (req c (Proto.Unsubscribe sub));
      (* fanout accounting is visible in the exporter *)
      (match req c (Proto.Stats `Prometheus) with
       | Proto.R_stats text ->
         let value name =
           let v = ref None in
           List.iter
             (fun line ->
               match String.split_on_char ' ' line with
               | [ n; x ] when n = name -> v := Some x
               | _ -> ())
             (String.split_on_char '\n' text);
           match !v with
           | Some x -> x
           | None -> Alcotest.failf "%s missing from exporter output" name
         in
         Alcotest.(check string) "one agg subscription" "1"
           (value "moq_agg_subscriptions_total");
         Alcotest.(check string) "every pushed row accounted"
           (string_of_int (List.length !streamed))
           (value "moq_agg_rows_pushed_total")
       | m -> Alcotest.failf "stats failed: %s" (Proto.render_server_msg m));
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Admission control, backpressure, idle timeout                       *)
(* ------------------------------------------------------------------ *)

let test_admission_busy () =
  with_server
    ~tweak:(fun c -> { c with Server.max_sessions = 1 })
    (fun srv _dir _db ->
      let c1 = connect srv in
      ignore (hello c1);
      let c2 = connect srv in
      (match Client.request c2 (Proto.Hello Proto.version) with
       | Ok m -> expect_err "busy" m
       | Error _ -> () (* server may close before the request is written *));
      Client.close c2;
      (* the slot frees up once the first session leaves *)
      ignore (req c1 Proto.Bye);
      Client.close c1;
      let rec retry n =
        let c3 = connect srv in
        match Client.request c3 (Proto.Hello Proto.version) with
        | Ok (Proto.R_hello _) -> Client.close c3
        | _ when n > 0 ->
          Client.close c3;
          Thread.delay 0.05;
          retry (n - 1)
        | Ok m -> Alcotest.failf "slot not freed: %s" (Proto.render_server_msg m)
        | Error e -> Alcotest.failf "slot not freed: %s" (Client.error_to_string e)
      in
      retry 40)

let test_sub_limit () =
  with_server
    ~tweak:(fun c -> { c with Server.max_subs_per_session = 1 })
    (fun srv _dir _db ->
      let c = connect srv in
      ignore (hello c);
      (match req c (Proto.Subscribe { kind = Proto.Sub_knn 1; lo = q 0; hi = q 10 }) with
       | Proto.R_subscribe _ -> ()
       | m -> Alcotest.failf "first subscribe failed: %s" (Proto.render_server_msg m));
      expect_err "limit"
        (req c (Proto.Subscribe { kind = Proto.Sub_knn 1; lo = q 0; hi = q 10 }));
      Client.close c)

(* Every dropped sequence number must be covered by an EVENT-DROPPED
   marker: walk the stream and check the numbers tile with no gap. *)
let account_events evs =
  let expected = ref 0 and pushed = ref 0 and dropped = ref 0 in
  let lost = ref 0 and dup = ref 0 in
  List.iter
    (fun ev ->
      let arrive ~first ~next ~count counter =
        if first > !expected then lost := !lost + (first - !expected)
        else if first < !expected then dup := !dup + (!expected - first);
        expected := next;
        counter := !counter + count
      in
      match ev with
      | Proto.E_pieces { first_seq; pieces; _ } ->
        let c = List.length pieces in
        arrive ~first:first_seq ~next:(first_seq + c) ~count:c pushed
      | Proto.E_dropped { from_seq; to_seq; _ } ->
        arrive ~first:from_seq ~next:(to_seq + 1)
          ~count:(to_seq - from_seq + 1) dropped
      | _ -> ())
    evs;
  (!pushed, !dropped, !lost, !dup)

let test_backpressure_drops () =
  with_server
    ~tweak:(fun c ->
      { c with Server.queue_soft = 2; queue_hwm = 4; writer_delay = 0.01 })
    (fun srv _dir _db ->
      (* raw socket: blast requests without awaiting responses, so the push
         queue actually builds up behind the throttled writer *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Server.sockaddr_of (Server.bound_addr srv));
      let r = Frame.reader fd in
      let send req =
        match Frame.write fd (Proto.render_request req) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "send: %s" (Frame.error_to_string e)
      in
      let next_msg () =
        match Frame.read ~timeout:30. r with
        | `Frame p ->
          (match Proto.parse_server_msg p with
           | Ok m -> m
           | Error e -> Alcotest.failf "bad server frame: %s" e)
        | _ -> Alcotest.fail "connection dropped mid-test"
      in
      send (Proto.Hello Proto.version);
      (match next_msg () with
       | Proto.R_hello _ -> ()
       | m -> Alcotest.failf "hello: %s" (Proto.render_server_msg m));
      send (Proto.Subscribe { kind = Proto.Sub_range (q 100_000); lo = q 0; hi = q 1000 });
      (match next_msg () with
       | Proto.R_subscribe _ -> ()
       | m -> Alcotest.failf "subscribe: %s" (Proto.render_server_msg m));
      for i = 1 to 40 do
        send (Proto.Update (U.Chdir { oid = 1 + (i mod 4); tau = q i; a = vec [ i mod 3; 1 ] }))
      done;
      send Proto.Ping;
      let events = ref [] and accepted = ref 0 in
      (* everything enqueued before the PONG precedes it on the wire *)
      let rec collect () =
        match next_msg () with
        | Proto.R_pong _ -> ()
        | Proto.R_update Proto.V_accepted ->
          incr accepted;
          collect ()
        | Proto.R_update _ -> collect ()
        | m when Proto.is_event m ->
          events := m :: !events;
          collect ()
        | m -> Alcotest.failf "unexpected: %s" (Proto.render_server_msg m)
      in
      collect ();
      Alcotest.(check int) "all updates accepted" 40 !accepted;
      (* the queue is idle again: one more update must stream through
         intact, with its sequence number continuing the accounted range *)
      send (Proto.Update (U.Chdir { oid = 1; tau = q 100; a = vec [ 0; 0 ] }));
      let rec tail () =
        match next_msg () with
        | Proto.R_update Proto.V_accepted -> ()
        | m when Proto.is_event m ->
          events := m :: !events;
          tail ()
        | m -> Alcotest.failf "unexpected tail: %s" (Proto.render_server_msg m)
      in
      tail ();
      Unix.close fd;
      let pushed, dropped, lost, dup = account_events (List.rev !events) in
      Alcotest.(check int) "no lost sequence numbers" 0 lost;
      Alcotest.(check int) "no duplicated sequence numbers" 0 dup;
      Alcotest.(check bool) "something was delivered" true (pushed > 0);
      Alcotest.(check bool) "slow consumer saw drops" true (dropped > 0))

let test_idle_timeout () =
  with_server
    ~tweak:(fun c -> { c with Server.idle_timeout = 0.3 })
    (fun srv _dir _db ->
      let c = connect srv in
      ignore (hello c);
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait () =
        if not (Client.is_open c) then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "idle session not closed"
        else begin
          Thread.delay 0.05;
          wait ()
        end
      in
      wait ();
      Client.close c)

(* A listener that accepts and then says nothing: the client's typed
   deadlines must fire instead of hanging. *)
let test_silent_peer_timeouts () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 4;
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Client.connect ~timeout:0.3 (Server.Tcp ("127.0.0.1", port)) with
      | Error e -> Alcotest.failf "connect: %s" (Client.error_to_string e)
      | Ok c ->
        (match Client.hello c with
         | Error (Client.Timeout _) -> ()
         | Error e ->
           Alcotest.failf "expected a timeout, got: %s" (Client.error_to_string e)
         | Ok m ->
           Alcotest.failf "silent peer answered: %s" (Proto.render_server_msg m));
        Client.close c)

(* ------------------------------------------------------------------ *)
(* Replication                                                         *)
(* ------------------------------------------------------------------ *)

let wait_for ?(deadline = 10.) what pred =
  let stop = Unix.gettimeofday () +. deadline in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > stop then Alcotest.failf "timed out: %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* Start a follower of [srv] in its own store dir, run [f], clean up. *)
let with_follower srv f =
  let dir = tmp_dir () in
  let cfg =
    { (Server.default_config ~listen:(Server.Tcp ("127.0.0.1", 0)) ~store_dir:dir)
      with
      Server.init_db = Some (DB.empty ~dim:2 ~tau:(q 0)); fsync = false;
      idle_timeout = 0.; follow = Some (Server.bound_addr srv) }
  in
  let fol =
    match Server.start cfg with Ok s -> s | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () ->
      (try Server.stop fol with _ -> ());
      rm_dir dir)
    (fun () -> f fol)

let test_follower_replicates () =
  with_server
    ~tweak:(fun c -> { c with Server.repl_digest_every = 1 })
    (fun srv _dir _db ->
      with_follower srv (fun fol ->
          Alcotest.(check bool) "is_follower" true (Server.is_follower fol);
          wait_for "follower bootstrap" (fun () -> Server.repl_connected fol);
          (* snapshot bootstrap is already bit-identical *)
          wait_for "snapshot applied" (fun () ->
              IO.db_to_string (Server.db_snapshot fol)
              = IO.db_to_string (Server.db_snapshot srv));
          (* stream updates through the primary; follower must converge *)
          let c = connect srv in
          ignore (hello c);
          List.iter
            (fun u ->
              match req c (Proto.Update u) with
              | Proto.R_update Proto.V_accepted -> ()
              | m -> Alcotest.failf "update: %s" (Proto.render_server_msg m))
            [ U.Chdir { oid = 1; tau = q 2; a = vec [ 1; 1 ] };
              U.New { oid = 7; tau = q 3; a = vec [ 0; 1 ]; b = vec [ -4; 2 ] };
              U.Terminate { oid = 2; tau = q 4 };
              U.Chdir { oid = 7; tau = q 5; a = vec [ -1; 0 ] } ];
          wait_for "tail applied" (fun () ->
              Q.equal (Server.clock fol) (Server.clock srv)
              && IO.db_to_string (Server.db_snapshot fol)
                 = IO.db_to_string (Server.db_snapshot srv));
          (* with digest-every=1 the digests have been checked; none diverged *)
          Alcotest.(check int) "no divergence" 0 (Server.repl_divergence fol);
          (* a query served by the replica equals the primary's answer *)
          let cf = connect fol in
          ignore (hello cf);
          let query c =
            match
              req c (Proto.Query { kind = Proto.Qk_knn 1; lo = q 0; hi = q 40 })
            with
            | Proto.R_query pieces -> pieces
            | m -> Alcotest.failf "query: %s" (Proto.render_server_msg m)
          in
          Alcotest.(check bool) "replica answers bit-identically" true
            (query cf = query c);
          (* the replica is read-only *)
          (match
             Client.request cf
               (Proto.Update (U.Chdir { oid = 1; tau = q 9; a = vec [ 0; 0 ] }))
           with
           | Ok m -> expect_err "read-only" m
           | Error e -> Alcotest.failf "read-only: %s" (Client.error_to_string e));
          Client.close cf;
          Client.close c))

let test_follower_catches_up_after_partition () =
  with_server (fun srv _dir _db ->
      with_follower srv (fun fol ->
          wait_for "follower bootstrap" (fun () -> Server.repl_connected fol);
          let c = connect srv in
          ignore (hello c);
          (* cut the replication link mid-stream; the follower must
             reconnect by itself and resume as a delta *)
          Server.shutdown_repl_link fol;
          List.iter
            (fun u ->
              match req c (Proto.Update u) with
              | Proto.R_update Proto.V_accepted -> ()
              | m -> Alcotest.failf "update: %s" (Proto.render_server_msg m))
            [ U.Chdir { oid = 1; tau = q 2; a = vec [ 2; 0 ] };
              U.Chdir { oid = 3; tau = q 3; a = vec [ 0; 2 ] } ];
          wait_for "reconnected and converged" (fun () ->
              Server.repl_connected fol
              && IO.db_to_string (Server.db_snapshot fol)
                 = IO.db_to_string (Server.db_snapshot srv));
          Alcotest.(check int) "no divergence" 0 (Server.repl_divergence fol);
          Client.close c))

(* ------------------------------------------------------------------ *)
(* Crash recovery and graceful drain                                   *)
(* ------------------------------------------------------------------ *)

let test_kill_and_recover () =
  with_server (fun srv dir _db ->
      let c = connect srv in
      ignore (hello c);
      List.iter
        (fun u ->
          match req c (Proto.Update u) with
          | Proto.R_update Proto.V_accepted -> ()
          | m -> Alcotest.failf "update: %s" (Proto.render_server_msg m))
        [ U.Chdir { oid = 1; tau = q 1; a = vec [ 2; 0 ] };
          U.New { oid = 8; tau = q 2; a = vec [ -1; 1 ]; b = vec [ 3; 3 ] };
          U.Terminate { oid = 2; tau = q 3 };
          U.Chdir { oid = 8; tau = q 4; a = vec [ 0; 0 ] } ];
      let pre = IO.db_to_string (Server.db_snapshot srv) in
      let pre_clock = Server.clock srv in
      Server.crash srv;
      Client.close c;
      (match Store.recover ~dir with
       | Ok r ->
         Alcotest.(check string) "database bit-identical" pre (IO.db_to_string r.Store.db);
         Alcotest.(check bool) "clock identical" true (Q.equal pre_clock r.Store.clock);
         Alcotest.(check int) "WAL replayed past the checkpoint" 4 r.Store.replayed
       | Error e -> Alcotest.fail e))

(* The on-crash flight dump is a parseable forensic artifact whose last
   recorded admission agrees with the WAL tail. *)
let test_flight_dump_on_crash () =
  with_server (fun srv dir _db ->
      let c = connect srv in
      ignore (hello c);
      List.iter
        (fun u ->
          match req c (Proto.Update u) with
          | Proto.R_update Proto.V_accepted -> ()
          | m -> Alcotest.failf "update: %s" (Proto.render_server_msg m))
        [ U.Chdir { oid = 1; tau = q 1; a = vec [ 2; 0 ] };
          U.New { oid = 9; tau = q 2; a = vec [ -1; 1 ]; b = vec [ 3; 3 ] };
          U.Chdir { oid = 9; tau = q 3; a = vec [ 0; 1 ] } ];
      Server.crash srv;
      Client.close c;
      let dumps =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f > 7 && String.sub f 0 7 = "flight-")
      in
      Alcotest.(check int) "one crash dump" 1 (List.length dumps);
      match Recorder.load (Filename.concat dir (List.hd dumps)) with
      | Error e -> Alcotest.fail e
      | Ok d ->
        Alcotest.(check string) "reason" "crash" d.Recorder.d_reason;
        let last_admitted =
          List.fold_left
            (fun acc (e : Recorder.event) ->
              if e.Recorder.kind = "update_admitted" then Some e else acc)
            None d.Recorder.d_events
        in
        (match last_admitted, Wal.read (Store.wal_file dir) with
         | Some e, Ok r ->
           let wal_last = List.nth r.Wal.updates (List.length r.Wal.updates - 1) in
           let oid =
             match List.assoc_opt "oid" e.Recorder.fields with
             | Some (Json.Int i) -> i
             | _ -> -1
           in
           let tau =
             match List.assoc_opt "tau" e.Recorder.fields with
             | Some (Json.Str s) -> s
             | _ -> "?"
           in
           Alcotest.(check int) "last recorded oid = WAL tail" (U.oid wal_last) oid;
           Alcotest.(check string) "last recorded tau = WAL tail"
             (Q.to_string (U.time wal_last)) tau
         | None, _ -> Alcotest.fail "no update_admitted event in the dump"
         | _, Error e -> Alcotest.fail e))

(* A query over an epsilon threshold lands in the slow-query log: the
   counter moves and the explain record is in the flight-recorder ring. *)
let test_slow_query_capture () =
  with_server
    ~tweak:(fun c -> { c with Server.slow_query_ms = 0.000001 })
    (fun srv _dir _db ->
      let c = connect srv in
      ignore (hello c);
      (match req c (Proto.Query { kind = Proto.Qk_knn 1; lo = q 0; hi = q 10 }) with
       | Proto.R_query _ -> ()
       | m -> Alcotest.failf "query: %s" (Proto.render_server_msg m));
      let reg = Server.registry srv in
      Alcotest.(check bool) "moq_slowq_total moved" true
        (match Moq_obs.Registry.counter_value reg "moq_slowq_total" with
         | Some n -> n >= 1
         | None -> false);
      (match Recorder.last ~kind:"slow_query" (Server.recorder srv) with
       | None -> Alcotest.fail "no slow_query event recorded"
       | Some e ->
         (* the captured record is a full explain document *)
         (match List.assoc_opt "explain" e.Recorder.fields with
          | Some (Json.Obj kvs) ->
            Alcotest.(check bool) "explain schema tag" true
              (List.assoc_opt "moq_explain" kvs = Some (Json.Int 3))
          | _ -> Alcotest.fail "slow_query event carries no explain"));
      Client.close c)

(* STATS publishes rank-indexed hot-object and hot-subscription gauges. *)
let test_hot_gauges_on_stats () =
  with_server (fun srv _dir _db ->
      let c = connect srv in
      ignore (hello c);
      (match req c (Proto.Subscribe { kind = Proto.Sub_knn 1; lo = q 0; hi = q 40 }) with
       | Proto.R_subscribe _ -> ()
       | m -> Alcotest.failf "subscribe: %s" (Proto.render_server_msg m));
      List.iter
        (fun u -> ignore (req c (Proto.Update u)))
        [ U.Chdir { oid = 1; tau = q 1; a = vec [ 2; 0 ] };
          U.Chdir { oid = 2; tau = q 2; a = vec [ 0; 2 ] };
          U.Chdir { oid = 3; tau = q 3; a = vec [ 1; 1 ] } ];
      (match req c (Proto.Stats `Json) with
       | Proto.R_stats _ -> ()
       | m -> Alcotest.failf "stats: %s" (Proto.render_server_msg m));
      let flat = Moq_obs.Registry.flatten (Server.registry srv) in
      Alcotest.(check bool) "rank-0 hot object gauge" true
        (List.mem_assoc "moq_hot_oid_0" flat);
      Alcotest.(check bool) "rank-0 hot object cost" true
        (match List.assoc_opt "moq_hot_comparisons_0" flat with
         | Some v -> v > 0.
         | None -> false);
      Alcotest.(check bool) "hot coverage gauge" true
        (match List.assoc_opt "moq_hot_coverage_pct" flat with
         | Some v -> v > 0. && v <= 100.
         | None -> false);
      Alcotest.(check bool) "rank-0 hot subscription gauge" true
        (List.mem_assoc "moq_hot_sub_id_0" flat);
      Client.close c)

let test_graceful_drain () =
  with_server (fun srv dir _db ->
      let c = connect srv in
      ignore (hello c);
      (match req c (Proto.Update (U.Chdir { oid = 1; tau = q 1; a = vec [ 1; 1 ] })) with
       | Proto.R_update Proto.V_accepted -> ()
       | m -> Alcotest.failf "update: %s" (Proto.render_server_msg m));
      let pre = IO.db_to_string (Server.db_snapshot srv) in
      Server.stop srv;
      (* the drain notifies connected clients before closing *)
      let saw_shutdown =
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rec wait () =
          match Client.next_event ~timeout:0.2 c with
          | Some (Proto.E_shutdown _) -> true
          | Some _ -> wait ()
          | None ->
            if Unix.gettimeofday () > deadline then false
            else if Client.is_open c then wait ()
            else
              List.exists
                (function Proto.E_shutdown _ -> true | _ -> false)
                (Client.drain_events c)
        in
        wait ()
      in
      Alcotest.(check bool) "SHUTDOWN delivered" true saw_shutdown;
      Client.close c;
      (* drain checkpointed: recovery replays nothing and matches exactly *)
      (match Store.recover ~dir with
       | Ok r ->
         Alcotest.(check int) "nothing to replay" 0 r.Store.replayed;
         Alcotest.(check string) "checkpoint matches" pre (IO.db_to_string r.Store.db)
       | Error e -> Alcotest.fail e);
      (* and a new server picks the checkpoint up without an init db *)
      let cfg =
        { (Server.default_config ~listen:(Server.Tcp ("127.0.0.1", 0)) ~store_dir:dir)
          with
          Server.fsync = false }
      in
      match Server.start cfg with
      | Ok srv2 ->
        Alcotest.(check string) "restarted state" pre (IO.db_to_string (Server.db_snapshot srv2));
        Server.stop srv2
      | Error e -> Alcotest.fail e)

let () =
  Alcotest.run "server"
    [ ("handshake",
       [ Alcotest.test_case "hello ping stats bye" `Quick test_hello_ping_bye;
         Alcotest.test_case "hello required first" `Quick test_hello_first;
         Alcotest.test_case "bad version" `Quick test_bad_version ]);
      ("updates",
       [ Alcotest.test_case "stale and duplicate rejected" `Quick test_wire_rejection;
         Alcotest.test_case "quarantine graduates" `Quick test_quarantine_graduates ]);
      ("subscriptions",
       [ Alcotest.test_case "stream matches reference monitor" `Quick
           test_subscription_matches_monitor;
         Alcotest.test_case "incremental stream canonical, seed 1" `Quick
           (test_incremental_stream_canonical 1);
         Alcotest.test_case "incremental stream canonical, seed 9" `Quick
           (test_incremental_stream_canonical 9);
         Alcotest.test_case "query answers match Exact" `Quick
           test_queries_match_exact;
         Alcotest.test_case "agg stream end to end" `Quick
           test_agg_subscription_end_to_end ]);
      ("limits",
       [ Alcotest.test_case "admission busy" `Quick test_admission_busy;
         Alcotest.test_case "subscription limit" `Quick test_sub_limit;
         Alcotest.test_case "backpressure accounting" `Quick test_backpressure_drops;
         Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
         Alcotest.test_case "silent peer timeouts" `Quick test_silent_peer_timeouts ]);
      ("replication",
       [ Alcotest.test_case "follower replicates" `Quick test_follower_replicates;
         Alcotest.test_case "delta resume after a cut link" `Quick
           test_follower_catches_up_after_partition ]);
      ("durability",
       [ Alcotest.test_case "kill and recover" `Quick test_kill_and_recover;
         Alcotest.test_case "graceful drain" `Quick test_graceful_drain ]);
      ("observability",
       [ Alcotest.test_case "flight dump on crash" `Quick test_flight_dump_on_crash;
         Alcotest.test_case "slow-query capture" `Quick test_slow_query_capture;
         Alcotest.test_case "hot gauges on stats" `Quick test_hot_gauges_on_stats ]) ]
