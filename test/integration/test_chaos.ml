(* Network-resilience suite: kill-the-primary failover with a resilient
   subscriber (the canonical stream must come through gap-free,
   duplicate-free and byte-identical to a reference monitor), follower
   catch-up across a partition injected by the seeded chaos proxy, and a
   request workload surviving a torn, delayed, reordered link.  Seeds
   come from MOQ_FAULT_SEEDS so CI can sweep a matrix. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module IO = Moq_mod.Mod_io
module Oid = Moq_mod.Oid
module Gen = Moq_workload.Gen
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist
module BX = Moq_core.Backend.Exact
module MonX = Moq_core.Monitor.Make (BX)
module Proto = Moq_proto.Proto
module Server = Moq_server.Server
module Client = Moq_server.Client
module Chaos = Moq_chaos.Chaos
module Registry = Moq_obs.Registry
module Sink = Moq_obs.Sink
module Trace = Moq_obs.Trace

let q = Q.of_int

let seeds =
  match Sys.getenv_opt "MOQ_FAULT_SEEDS" with
  | None | Some "" -> [ 7; 19 ]
  | Some s ->
    (* a typo must fail loudly, not quietly shrink the seed sweep *)
    String.split_on_char ',' s
    |> List.map (fun w ->
           match int_of_string_opt (String.trim w) with
           | Some seed -> seed
           | None -> failwith (Printf.sprintf "MOQ_FAULT_SEEDS=%S: %S is not an integer" s w))

let tmp_ctr = ref 0

let tmp_dir () =
  incr tmp_ctr;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "moq_chaos_%d_%d" (Unix.getpid ()) !tmp_ctr)
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

let wait_for ?(deadline = 15.) what pred =
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

let with_primary ?(trace = false) db f =
  let dir = tmp_dir () in
  let cfg =
    { (Server.default_config ~listen:(Server.Tcp ("127.0.0.1", 0)) ~store_dir:dir)
      with
      Server.init_db = Some db; fsync = false; idle_timeout = 0.;
      repl_digest_every = 1; trace }
  in
  let srv =
    match Server.start cfg with Ok s -> s | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () ->
      (try Server.stop srv with _ -> ());
      rm_dir dir)
    (fun () -> f srv)

(* A follower of [of_] (usually the primary's address, possibly behind a
   chaos proxy). *)
let with_follower ?(trace = false) ~of_ f =
  let dir = tmp_dir () in
  let cfg =
    { (Server.default_config ~listen:(Server.Tcp ("127.0.0.1", 0)) ~store_dir:dir)
      with
      Server.init_db = Some (DB.empty ~dim:2 ~tau:(q 0)); fsync = false;
      idle_timeout = 0.; follow = Some of_; trace }
  in
  let fol =
    match Server.start cfg with Ok s -> s | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () ->
      (try Server.stop fol with _ -> ());
      rm_dir dir)
    (fun () -> f fol)

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
  | Proto.R_hello _ -> ()
  | m -> Alcotest.failf "unexpected hello response: %s" (Proto.render_server_msg m)

(* The server's timeline->wire conversion (as in the server suite), run
   on the Exact backend: the server sweeps on Filtered, so comparing its
   streams with these pieces checks it against Exact across backends. *)
let wire_instant i = Format.asprintf "%a" BX.pp_instant i

let wire_piece = function
  | MonX.TL.At (i, s) -> Proto.P_at (wire_instant i, Oid.Set.elements s)
  | MonX.TL.Span (a, b, s) ->
    Proto.P_span (wire_instant a, wire_instant b, Oid.Set.elements s)

let origin_gamma = Moq_server.Commit.origin_gamma

(* Keep only updates the database accepts, so the wire run and the
   reference monitor see the identical committed stream. *)
let clean_updates db us =
  let rec go db acc = function
    | [] -> List.rev acc
    | u :: rest ->
      (match DB.apply db u with
       | Ok db' -> go db' (u :: acc) rest
       | Error _ -> go db acc rest)
  in
  go db [] us

let assoc0 k l = Option.value ~default:0 (List.assoc_opt k l)

let rec is_prefix xs ys =
  match xs, ys with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let converged pri fol =
  Q.equal (Server.clock fol) (Server.clock pri)
  && IO.db_to_string (Server.db_snapshot fol)
     = IO.db_to_string (Server.db_snapshot pri)

(* ------------------------------------------------------------------ *)
(* Kill the primary: the subscriber fails over to the replica and the  *)
(* observed canonical stream is the uninterrupted one                  *)
(* ------------------------------------------------------------------ *)

let test_kill_primary_failover seed () =
  let db = Gen.uniform_db ~seed ~n:6 ~extent:20 ~speed:4 () in
  with_primary db (fun pri ->
      with_follower ~of_:(Server.bound_addr pri) (fun fol ->
          wait_for "follower bootstrap" (fun () ->
              Server.repl_connected fol && converged pri fol);
          (* reference: an uninterrupted monitor over the same query *)
          let mon =
            MonX.create ~db
              ~gdist:(Gdist.euclidean_sq ~gamma:(origin_gamma (DB.dim db)))
              ~query:(Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) (q 1000)))
              ()
          in
          let reference = ref (List.map wire_piece (MonX.drain_valid mon)) in
          (* resilient subscriber: primary first, replica as failover *)
          let conf =
            Client.Resilient.conf ~seed ~timeout:5. ~connect_timeout:2.
              [ Server.bound_addr pri; Server.bound_addr fol ]
          in
          let rc =
            match Client.Resilient.connect conf with
            | Ok c -> c
            | Error e -> Alcotest.fail (Client.error_to_string e)
          in
          (match
             Client.Resilient.subscribe rc ~kind:(Proto.Sub_knn 1) ~lo:(q 0)
               ~hi:(q 1000)
           with
           | Ok () -> ()
           | Error e -> Alcotest.fail (Client.error_to_string e));
          (* drive committed updates through the primary, pulling as we go *)
          let uc = connect pri in
          hello uc;
          let updates =
            clean_updates db
              (Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q 1) ~gap:(q 1)
                 ~count:24 ())
          in
          Alcotest.(check bool) "workload is non-trivial" true
            (List.length updates >= 10);
          let drain_ready () =
            let rec go () =
              match Client.Resilient.pull ~timeout:0.05 rc with
              | `Piece _ -> go ()
              | `Complete | `Error _ -> ()
            in
            go ()
          in
          List.iter
            (fun u ->
              (match req uc (Proto.Update u) with
               | Proto.R_update Proto.V_accepted -> ()
               | m ->
                 Alcotest.failf "update not accepted: %s"
                   (Proto.render_server_msg m));
              (match MonX.apply_update mon u with
               | Ok () -> ()
               | Error e -> Alcotest.failf "reference monitor: %a" DB.pp_error e);
              reference := !reference @ List.map wire_piece (MonX.drain_valid mon);
              drain_ready ())
            updates;
          (* every commit replicated, then the primary dies without warning *)
          wait_for "replica caught up" (fun () -> converged pri fol);
          Server.crash pri;
          Client.close uc;
          (* keep pulling: the client must fail over and resume by itself *)
          wait_for "failover" ~deadline:20. (fun () ->
              drain_ready ();
              assoc0 "moq_client_failovers_total" (Client.Resilient.stats rc) >= 1);
          drain_ready ();
          let stats = Client.Resilient.stats rc in
          let delivered = Client.Resilient.delivered rc in
          let canonical = Proto.simplify_pieces !reference in
          Alcotest.(check (list (pair int int))) "gap-free" []
            (Client.Resilient.dropped_ranges rc);
          Alcotest.(check int) "no divergence across the failover" 0
            (assoc0 "moq_client_divergence_total" stats);
          Alcotest.(check bool) "resume suppressed the replayed prefix" true
            (assoc0 "moq_client_suppressed_duplicates_total" stats >= 1);
          Alcotest.(check int) "replica digest audit stayed clean" 0
            (Server.repl_divergence fol);
          Alcotest.(check bool) "delivered stream is byte-identical" true
            (is_prefix delivered canonical);
          (* only the still-malleable canonical tail may be outstanding *)
          Alcotest.(check bool) "delivered stream is complete" true
            (List.length delivered >= List.length canonical - 2);
          Alcotest.(check bool) "stream was substantial" true
            (List.length delivered >= 5);
          Client.Resilient.close rc))

(* ------------------------------------------------------------------ *)
(* Replication link through the chaos proxy: partition, heal, catch up *)
(* ------------------------------------------------------------------ *)

let test_partition_heal seed () =
  let db = Gen.uniform_db ~seed ~n:6 ~extent:20 ~speed:4 () in
  with_primary db (fun pri ->
      let proxy =
        Chaos.start ~profile:Chaos.quiet ~seed
          ~upstream:(Server.sockaddr_of (Server.bound_addr pri)) ()
      in
      Fun.protect
        ~finally:(fun () -> Chaos.stop proxy)
        (fun () ->
          with_follower ~of_:(Server.Tcp ("127.0.0.1", Chaos.port proxy))
            (fun fol ->
              wait_for "follower bootstrap" (fun () ->
                  Server.repl_connected fol && converged pri fol);
              let uc = connect pri in
              hello uc;
              let updates =
                clean_updates db
                  (Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q 1) ~gap:(q 1)
                     ~count:12 ())
              in
              let send u =
                match req uc (Proto.Update u) with
                | Proto.R_update Proto.V_accepted -> ()
                | m ->
                  Alcotest.failf "update not accepted: %s"
                    (Proto.render_server_msg m)
              in
              let n = List.length updates in
              let before = List.filteri (fun i _ -> i < n / 2) updates in
              let after = List.filteri (fun i _ -> i >= n / 2) updates in
              List.iter send before;
              wait_for "pre-partition convergence" (fun () -> converged pri fol);
              (* the network splits: the follower loses its primary *)
              Chaos.partition proxy;
              wait_for "link observed down" (fun () ->
                  not (Server.repl_connected fol));
              List.iter send after;
              Alcotest.(check bool) "follower is behind" true
                (not (Q.equal (Server.clock fol) (Server.clock pri)));
              (* hold the split until the follower has actually been
                 refused at least once, then heal *)
              wait_for "reconnect attempt refused" (fun () ->
                  (Chaos.stats proxy).Chaos.refused >= 1);
              Chaos.heal proxy;
              wait_for "post-heal convergence" (fun () ->
                  Server.repl_connected fol && converged pri fol);
              Alcotest.(check int) "no divergence" 0 (Server.repl_divergence fol);
              Alcotest.(check bool) "the partition refused connections" true
                ((Chaos.stats proxy).Chaos.refused >= 1);
              Client.close uc)))

(* ------------------------------------------------------------------ *)
(* Stitched trace: one update's spans across primary, follower and     *)
(* client tile the measured end-to-end latency                         *)
(* ------------------------------------------------------------------ *)

let test_stitched_trace seed () =
  let db = Gen.uniform_db ~seed ~n:6 ~extent:20 ~speed:4 () in
  with_primary ~trace:true db (fun pri ->
      let proxy =
        Chaos.start ~profile:Chaos.quiet ~seed
          ~upstream:(Server.sockaddr_of (Server.bound_addr pri)) ()
      in
      Fun.protect
        ~finally:(fun () -> Chaos.stop proxy)
        (fun () ->
          with_follower ~trace:true
            ~of_:(Server.Tcp ("127.0.0.1", Chaos.port proxy))
            (fun fol ->
              wait_for "follower bootstrap" (fun () ->
                  Server.repl_connected fol && converged pri fol);
              let ctr = Trace.create ~host:"client" () in
              let creg = Registry.create () in
              let csink = Sink.of_registry creg in
              let conn srv =
                match
                  Client.connect ~timeout:10. ~sink:csink ~tracer:ctr
                    (Server.bound_addr srv)
                with
                | Ok c -> c
                | Error e -> Alcotest.fail (Client.error_to_string e)
              in
              let c_sub = conn fol and c_up = conn pri in
              hello c_sub;
              hello c_up;
              (match
                 Client.request c_sub
                   (Proto.Subscribe
                      { kind = Proto.Sub_knn 1; lo = q 0; hi = q 1000 })
               with
               | Ok (Proto.R_subscribe _) -> ()
               | Ok m ->
                 Alcotest.failf "subscribe: %s" (Proto.render_server_msg m)
               | Error e ->
                 Alcotest.failf "subscribe: %s" (Client.error_to_string e));
              let updates =
                clean_updates db
                  (Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q 1) ~gap:(q 2)
                     ~count:8 ())
              in
              (* trace every commit; the first traced event to surface at the
                 client (through the follower) picks the trace we audit *)
              let sent = Hashtbl.create 16 in
              let matched = ref None in
              let poll timeout =
                match Client.next_event_full ~timeout c_sub with
                | Some (_, attrs, _) ->
                  (match attrs.Proto.a_trace with
                   | Some (tid, _) when Hashtbl.mem sent tid && !matched = None
                     ->
                     matched :=
                       Some (tid, Hashtbl.find sent tid, Unix.gettimeofday ())
                   | _ -> ())
                | None -> ()
              in
              List.iter
                (fun u ->
                  if !matched = None then begin
                    let ctx = Trace.new_ctx () in
                    Hashtbl.replace sent ctx.Trace.trace_id
                      (Unix.gettimeofday ());
                    (match
                       Client.request_attrs c_up
                         { Proto.no_attrs with
                           Proto.a_trace =
                             Some (ctx.Trace.trace_id, ctx.Trace.span_id) }
                         (Proto.Update u)
                     with
                     | Ok (Proto.R_update _) -> ()
                     | Ok m ->
                       Alcotest.failf "update: %s" (Proto.render_server_msg m)
                     | Error e ->
                       Alcotest.failf "update: %s" (Client.error_to_string e));
                    poll 0.3
                  end)
                updates;
              let stop = Unix.gettimeofday () +. 10. in
              while !matched = None && Unix.gettimeofday () < stop do
                poll 0.3
              done;
              (match !matched with
               | None -> Alcotest.fail "no traced event reached the client"
               | Some (tid, t0, t1) ->
                 let e2e = t1 -. t0 in
                 Thread.delay 0.05;  (* let trailing queue spans land *)
                 let spans =
                   List.concat_map Trace.spans
                     [ Server.tracer pri; Server.tracer fol; ctr ]
                   |> List.filter (fun s ->
                       match Trace.span_ctx s with
                       | Some c -> c.Trace.trace_id = tid
                       | None -> false)
                 in
                 Alcotest.(check (list string)) "spans from every hop"
                   [ "client"; "follower"; "primary" ]
                   (List.sort_uniq compare (List.map Trace.span_host spans));
                 (* the depth-0 spans tile the pipeline: their durations must
                    account for the measured end-to-end latency *)
                 let stage_sum =
                   List.fold_left
                     (fun acc s ->
                       if Trace.span_depth s = 0 then acc +. Trace.duration s
                       else acc)
                     0. spans
                 in
                 let tol = Float.max (0.1 *. e2e) 0.002 in
                 if Float.abs (stage_sum -. e2e) > tol then
                   Alcotest.failf
                     "stage spans sum to %.3f ms but e2e is %.3f ms (tol %.3f ms)"
                     (1000. *. stage_sum) (1000. *. e2e) (1000. *. tol);
                 (* the client sink saw the delivery *)
                 Alcotest.(check bool) "e2e histogram populated" true
                   (List.assoc_opt "moq_client_e2e_seconds_count"
                      (Registry.flatten creg)
                    |> Option.value ~default:0. > 0.));
              Client.close c_up;
              Client.close c_sub)))

(* ------------------------------------------------------------------ *)
(* Replication lag gauge: climbs while partitioned, back to 0 on heal  *)
(* ------------------------------------------------------------------ *)

let lag_gauges fol =
  let flat = Registry.flatten (Server.registry fol) in
  ( List.assoc_opt "moq_repl_lag_updates" flat,
    List.assoc_opt "moq_repl_lag_ms" flat )

let test_lag_heals seed () =
  let db = Gen.uniform_db ~seed ~n:6 ~extent:20 ~speed:4 () in
  with_primary db (fun pri ->
      let proxy =
        Chaos.start ~profile:Chaos.quiet ~seed
          ~upstream:(Server.sockaddr_of (Server.bound_addr pri)) ()
      in
      Fun.protect
        ~finally:(fun () -> Chaos.stop proxy)
        (fun () ->
          with_follower ~of_:(Server.Tcp ("127.0.0.1", Chaos.port proxy))
            (fun fol ->
              wait_for "follower bootstrap" (fun () ->
                  Server.repl_connected fol && converged pri fol);
              (* the gauges exist from the start, so dashboards never miss
                 the metric on a healthy follower *)
              (match lag_gauges fol with
               | Some u, Some ms ->
                 Alcotest.(check (float 0.)) "lag starts at 0" 0. u;
                 Alcotest.(check (float 0.)) "lag ms starts at 0" 0. ms
               | _ -> Alcotest.fail "lag gauges not registered at start");
              let uc = connect pri in
              hello uc;
              let updates =
                clean_updates db
                  (Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q 1) ~gap:(q 1)
                     ~count:12 ())
              in
              let send u =
                match req uc (Proto.Update u) with
                | Proto.R_update Proto.V_accepted -> ()
                | m ->
                  Alcotest.failf "update not accepted: %s"
                    (Proto.render_server_msg m)
              in
              Chaos.partition proxy;
              wait_for "link observed down" (fun () ->
                  not (Server.repl_connected fol));
              List.iter send updates;
              Alcotest.(check bool) "follower is behind" true
                (not (Q.equal (Server.clock fol) (Server.clock pri)));
              wait_for "reconnect attempt refused" (fun () ->
                  (Chaos.stats proxy).Chaos.refused >= 1);
              Chaos.heal proxy;
              wait_for "post-heal convergence" (fun () ->
                  Server.repl_connected fol && converged pri fol);
              (* the acceptance criterion: lag back to exactly 0 once the
                 backlog has replayed *)
              wait_for "lag gauge back to 0" (fun () ->
                  match lag_gauges fol with
                  | Some u, Some ms -> u = 0. && ms = 0.
                  | _ -> false);
              Alcotest.(check int) "no divergence" 0 (Server.repl_divergence fol);
              Client.close uc)))

(* ------------------------------------------------------------------ *)
(* Request workload through a torn, delayed, reordered link            *)
(* ------------------------------------------------------------------ *)

let test_requests_through_chaos seed () =
  let db = Gen.uniform_db ~seed ~n:4 ~extent:20 ~speed:4 () in
  with_primary db (fun pri ->
      let profile =
        { Chaos.flaky with Chaos.tear_p = 0.15; delay_p = 0.3; delay_s = 0.005 }
      in
      let proxy =
        Chaos.start ~profile ~seed
          ~upstream:(Server.sockaddr_of (Server.bound_addr pri)) ()
      in
      Fun.protect
        ~finally:(fun () -> Chaos.stop proxy)
        (fun () ->
          let conf =
            Client.Resilient.conf ~seed ~timeout:5. ~connect_timeout:2.
              ~retry_max:12
              [ Server.Tcp ("127.0.0.1", Chaos.port proxy) ]
          in
          let rc =
            match Client.Resilient.connect conf with
            | Ok c -> c
            | Error e -> Alcotest.fail (Client.error_to_string e)
          in
          let answered = ref 0 in
          for i = 1 to 40 do
            match Client.Resilient.request rc Proto.Ping with
            | Ok (Proto.R_pong _) -> incr answered
            | Ok m ->
              Alcotest.failf "ping %d: unexpected %s" i (Proto.render_server_msg m)
            | Error e ->
              Alcotest.failf "ping %d failed: %s" i (Client.error_to_string e)
          done;
          Alcotest.(check int) "every request answered" 40 !answered;
          let s = Chaos.stats proxy in
          Alcotest.(check bool) "the link actually misbehaved" true
            (s.Chaos.tears + s.Chaos.delays + s.Chaos.reorders > 0);
          Client.Resilient.close rc))

let () =
  let per_seed name f =
    List.map
      (fun seed ->
        Alcotest.test_case (Printf.sprintf "%s (seed %d)" name seed) `Quick
          (f seed))
      seeds
  in
  Alcotest.run "chaos"
    [ ("failover", per_seed "kill the primary" test_kill_primary_failover);
      ("partition", per_seed "partition and heal" test_partition_heal);
      ("trace", per_seed "stitched cross-process trace" test_stitched_trace);
      ("lag", per_seed "lag gauge heals" test_lag_heals);
      ("proxy", per_seed "requests through chaos" test_requests_through_chaos) ]
