module DB = Moq_mod.Mobdb
module Registry = Moq_obs.Registry
module Sink = Moq_obs.Sink
module Export = Moq_obs.Export
module Trace = Moq_obs.Trace
module Log = Moq_obs.Log
module Json = Moq_obs.Json
module Recorder = Moq_obs.Recorder
module Frame = Moq_proto.Frame
module Proto = Moq_proto.Proto

(* ---------------------------------------------------------------- *)
(* Addresses                                                         *)

type addr = Tcp of string * int | Unix_sock of string

let pp_addr fmt = function
  | Tcp (h, p) -> Format.fprintf fmt "tcp:%s:%d" h p
  | Unix_sock p -> Format.fprintf fmt "unix:%s" p

let addr_of_string s =
  match String.split_on_char ':' s with
  | [ "unix"; "" ] -> Error "unix socket path missing"
  | "unix" :: rest -> Ok (Unix_sock (String.concat ":" rest))
  | [ "tcp"; host; port ] ->
    (match int_of_string_opt port with
     | Some p when p >= 0 -> Ok (Tcp (host, p))
     | _ -> Error ("bad port: " ^ port))
  | [ port ] ->
    (match int_of_string_opt port with
     | Some p when p >= 0 -> Ok (Tcp ("127.0.0.1", p))
     | _ -> Error ("bad listen address: " ^ s))
  | _ -> Error ("bad listen address: " ^ s)

let inet_addr host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)

let sockaddr_of = function
  | Tcp (host, port) -> Unix.ADDR_INET (inet_addr host, port)
  | Unix_sock path -> Unix.ADDR_UNIX path

(* ---------------------------------------------------------------- *)
(* Configuration                                                     *)

type config = {
  listen : addr;
  store_dir : string;
  init_db : DB.t option;
  fsync : bool;
  checkpoint_every : int;
  max_sessions : int;
  max_subs_per_session : int;
  queue_soft : int;
  queue_hwm : int;
  idle_timeout : float;
  writer_delay : float;
  follow : addr option;  (* replicate from this primary: run as a follower *)
  repl_digest_every : int;  (* digest cadence in streamed updates; 0 = never *)
  trace : bool;  (* propagate trace contexts across moqp + record spans *)
  slow_query_ms : float;  (* queries/monitor steps over this auto-capture
                             their explain record into the log; 0 disables *)
  hot_objects : bool;  (* per-object sweep-cost attribution in sub monitors *)
  flight_capacity : int;  (* flight-recorder ring size; 0 disables *)
}

let default_config ~listen ~store_dir =
  { listen; store_dir; init_db = None; fsync = true; checkpoint_every = 256;
    max_sessions = 64; max_subs_per_session = 8; queue_soft = 64;
    queue_hwm = 256; idle_timeout = 300.; writer_delay = 0.; follow = None;
    repl_digest_every = 64; trace = false; slow_query_ms = 250.;
    hot_objects = true; flight_capacity = 2048 }

(* ---------------------------------------------------------------- *)
(* Sessions                                                          *)

(* Per-subscription fanout accounting: who costs the output path the most.
   Kept in a table keyed by sub id because writer threads attribute bytes
   after the subscription may already be retired. *)
type subacct = {
  mutable sa_bytes : int;   (* event payload bytes written for this sub *)
  mutable sa_events : int;  (* event frames written *)
  mutable sa_qpeak : int;   (* worst session queue depth seen at enqueue *)
  mutable sa_drops : int;   (* events dropped under backpressure *)
}

type session = {
  sid : int;  (* the owner id of its subscriptions and follow stream in the core *)
  fd : Unix.file_descr;
  qm : Mutex.t;
  qc : Condition.t;
  outq : Outq.t;
  mutable closing : bool;  (* writer drains the queue, then shuts down *)
  mutable dead : bool;  (* abrupt teardown: writer exits immediately *)
  mutable writer : Thread.t option;
}

type t = {
  cfg : config;
  reg : Registry.t;
  sink : Sink.t;
  tracer : Trace.t;
  recorder : Recorder.t;
  acct_m : Mutex.t;  (* leaf lock guarding [subacct]; never held across others *)
  subacct : (int, subacct) Hashtbl.t;
  core : Commit.t;
  lock : Mutex.t;  (* guards the core and the sessions list *)
  mutable sessions : session list;
  mutable next_sid : int;
  mutable stopping : bool;
  mutable crashed : bool;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  mutable readers : Thread.t list;
  (* Follower side: the tail link to the primary *)
  mutable repl_connected : bool;
  mutable repl_fd : Unix.file_descr option;
  mutable repl_thread : Thread.t option;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let tctx (trace_id, span_id) = { Trace.trace_id; span_id }

let record t kind fields = Recorder.record t.recorder ~kind ~fields ()

(* Leaf-locked per-subscription accounting; creates the row on first use. *)
let acct t sub_id f =
  with_lock t.acct_m (fun () ->
      let a =
        match Hashtbl.find_opt t.subacct sub_id with
        | Some a -> a
        | None ->
          let a = { sa_bytes = 0; sa_events = 0; sa_qpeak = 0; sa_drops = 0 } in
          Hashtbl.replace t.subacct sub_id a;
          a
      in
      f a)

(* Dump the flight-recorder ring next to the WAL so `moq blackbox` can
   correlate the two without being told where either lives. *)
let flight_dump t ~reason =
  let r = Recorder.dump t.recorder ~dir:t.cfg.store_dir ~reason in
  (match r with
   | Ok path ->
     Log.warn
       ~fields:[ ("path", Json.Str path); ("reason", Json.Str reason) ]
       "flight recorder dumped"
   | Error e ->
     Log.error
       ~fields:[ ("reason", Json.Str reason); ("error", Json.Str e) ]
       "flight recorder dump failed");
  r

(* ---------------------------------------------------------------- *)
(* Output queue: enqueue, coalesce, drop                             *)

(* qm held. *)
let enqueue_item t sess item =
  if not (sess.closing || sess.dead) then begin
    Outq.push sess.outq ~soft:t.cfg.queue_soft ~hwm:t.cfg.queue_hwm
      ~on_coalesce:(fun () -> Sink.count t.sink "moq_server_coalesced_events_total" 1)
      ~on_drop:(fun ~sub ~count ->
        Sink.count t.sink "moq_server_dropped_events_total" count;
        acct t sub (fun a -> a.sa_drops <- a.sa_drops + count);
        record t "backpressure_drop" [ ("sub", Json.Int sub); ("count", Json.Int count) ])
      item;
    let qlen = Outq.length sess.outq in
    (match item with
     | Outq.Event e -> acct t e.sub (fun a -> if qlen > a.sa_qpeak then a.sa_qpeak <- qlen)
     | _ -> ());
    Sink.observe t.sink "moq_server_push_queue_depth" (float_of_int qlen);
    Condition.signal sess.qc
  end

let enqueue t sess item = with_lock sess.qm (fun () -> enqueue_item t sess item)
let enqueue_msg t sess msg = enqueue t sess (Outq.Msg (Proto.render_server_msg msg))

(* qm must NOT be held.  Replication frames are never dropped, so a
   follower that stops draining would grow the queue without bound: kick
   it instead; it resumes from its last applied position. *)
let enqueue_repl t sess item =
  let kick =
    with_lock sess.qm (fun () ->
        enqueue_item t sess item;
        if Outq.length sess.outq > 2 * t.cfg.queue_hwm then begin
          sess.dead <- true;
          Condition.broadcast sess.qc;
          true
        end
        else false)
  in
  if kick then begin
    Sink.count t.sink "moq_repl_kicked_followers_total" 1;
    Log.warn
      ~fields:[ ("session", Json.Int sess.sid) ]
      "follower not draining its repl stream; kicking";
    try Unix.shutdown sess.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end

(* Tell the session to go away: its writer flushes the notice and shuts
   down, and its reader stops waiting for the next request. *)
let shut_session t sess ~reason =
  enqueue t sess (Outq.Msg (Proto.render_server_msg (Proto.E_shutdown { reason })));
  with_lock sess.qm (fun () ->
      sess.closing <- true;
      Condition.broadcast sess.qc);
  try Unix.shutdown sess.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()

(* t.lock held.  Enqueue what the core emits on the owning session's
   queue.  [trace] is the commit's context: its events and update frames
   carry it, and [handoff] keeps the time the last of them went to a
   writer.  The traced span around a commit ends there, not when the
   commit returns: the item's queue span starts at its enqueue, so the two
   tile even when this thread is descheduled between the hand-off and the
   end of the commit. *)
let emit ?trace ?(handoff = ref None) t out =
  let traced enq =
    if trace <> None then handoff := Some enq;
    trace
  in
  let owner =
    match out with
    | Commit.Pieces { owner; _ } | Commit.Complete { owner; _ } | Commit.Repl { owner; _ }
    | Commit.Reset owner -> owner
  in
  match List.find_opt (fun s -> s.sid = owner) t.sessions, out with
  | None, _ -> ()
  | Some sess, Commit.Pieces { sub; first_seq; pieces; _ } ->
    let enq = Sink.wall () and t0 = Sink.monotonic () in
    enqueue t sess
      (Outq.Event { sub; first_seq; count = List.length pieces; pieces_rev = List.rev pieces;
                 trace = traced enq; enq; enq_mono = t0 });
    Sink.observe t.sink "moq_stage_enqueue_ns" ((Sink.monotonic () -. t0) *. 1e9)
  | Some sess, Commit.Complete { sub; _ } -> enqueue_msg t sess (Proto.E_complete { sub })
  | Some sess, Commit.Repl { msg; digest; _ } ->
    let enq = Sink.wall () and enq_mono = Sink.monotonic () in
    enqueue_repl t sess
      (Outq.Frame { msg; trace = (if digest then None else traced enq); enq; enq_mono })
  | Some sess, Commit.Reset _ ->
    (* its subscriptions were built over the replaced history *)
    shut_session t sess ~reason:"repl-reset"

(* ---------------------------------------------------------------- *)
(* Request dispatch                                                  *)

let update_gauges t =
  Registry.set (Registry.gauge t.reg "moq_server_connections")
    (float_of_int (List.length t.sessions));
  Registry.set (Registry.gauge t.reg "moq_server_subscriptions")
    (float_of_int (Commit.n_subs t.core))

(* t.lock held.  Export the core's per-object sweep-cost gauges and the
   costliest subscriptions by fanout bytes as rank-indexed gauges.  Rank
   gauges left over from a previous publish simply go stale at their old
   values; readers key on the current ranks 0..4 only. *)
let publish_hot t =
  Commit.publish_hot t.core;
  let subs =
    with_lock t.acct_m (fun () ->
        Hashtbl.fold
          (fun id a acc -> (id, a.sa_bytes, a.sa_qpeak) :: acc)
          t.subacct [])
  in
  let subs = List.sort (fun (_, b1, _) (_, b2, _) -> compare b2 b1) subs in
  List.iteri
    (fun i (id, bytes, qpeak) ->
      if i < 5 then begin
        Sink.set t.sink (Printf.sprintf "moq_hot_sub_id_%d" i) (float_of_int id);
        Sink.set t.sink (Printf.sprintf "moq_hot_sub_bytes_%d" i)
          (float_of_int bytes);
        Sink.set t.sink (Printf.sprintf "moq_hot_sub_queue_%d" i)
          (float_of_int qpeak)
      end)
    subs

let rpc_name = function
  | Proto.Hello _ -> "hello"
  | Proto.Update _ -> "update"
  | Proto.Subscribe _ -> "subscribe"
  | Proto.Unsubscribe _ -> "unsubscribe"
  | Proto.Query _ -> "query"
  | Proto.Stats _ -> "stats"
  | Proto.Ping -> "ping"
  | Proto.Bye -> "bye"
  | Proto.Repl_hello _ -> "repl_hello"  (* snake_case: this names a metric *)

(* The propagated trace ctx for a request, when tracing is on. *)
let req_trace t (attrs : Proto.attrs) = if t.cfg.trace then attrs.Proto.a_trace else None

(* Record the cross-process link span: the gap between the sender stamping
   [ts] at socket write and this process parsing the frame at [arrival].
   Sender and receiver clocks only meet here — on one host (the deployment
   this repo's tests exercise) the gap is exact; across hosts it inherits
   clock skew, which is why the lag gauges use watermarks instead. *)
let record_link t ?(name = "link") (attrs : Proto.attrs) ~arrival =
  match (req_trace t attrs, attrs.Proto.a_ts) with
  | Some c, Some ts ->
    let start = Float.min ts arrival in
    ignore
      (Trace.record ~ctx:(tctx c) t.tracer ~name ~start ~dur:(arrival -. start) ())
  | _ -> ()

(* Run one commit of the core under the lock, handing its outputs to the
   sessions, and record [name]'s span from [arrival] to the hand-off. *)
let commit t ?trace ~name ~ns_metric ~arrival f =
  let handoff = ref None in
  let r = with_lock t.lock (fun () -> f (emit ?trace ~handoff t)) in
  let t_done = Unix.gettimeofday () in
  Sink.observe t.sink ns_metric ((t_done -. arrival) *. 1e9);
  (match trace with
   | Some c ->
     let stop = Option.value !handoff ~default:t_done in
     ignore (Trace.record ~ctx:(tctx c) t.tracer ~name ~start:arrival ~dur:(stop -. arrival) ())
   | None -> ());
  r

let bad_version t sess =
  enqueue_msg t sess
    (Proto.R_err { code = "bad-version";
                   msg = Printf.sprintf "server speaks moqp %d" Proto.version });
  false

(* Returns [false] when the session should close. *)
let dispatch t sess (req : Proto.request) (attrs : Proto.attrs) ~arrival =
  Sink.count t.sink "moq_server_rpcs_total" 1;
  Sink.time t.sink (Printf.sprintf "moq_server_rpc_%s_seconds" (rpc_name req))
  @@ fun () ->
  match req with
  | Proto.Hello v when v <> Proto.version -> bad_version t sess
  | Proto.Hello _ ->
    let clock = with_lock t.lock (fun () -> Commit.clock t.core) in
    enqueue_msg t sess
      (Proto.R_hello { session = sess.sid; dim = Commit.dim t.core; clock });
    true
  | Proto.Ping ->
    let clock = with_lock t.lock (fun () -> Commit.clock t.core) in
    enqueue_msg t sess (Proto.R_pong { clock });
    true
  | Proto.Bye ->
    enqueue_msg t sess Proto.R_bye;
    false
  | Proto.Update _ when t.cfg.follow <> None ->
    (* a follower's state is the primary's; local writes would fork it *)
    enqueue_msg t sess
      (Proto.R_err { code = "read-only";
                     msg = "this server is a follower; send updates to the primary" });
    true
  | Proto.Update u ->
    let trace = req_trace t attrs in
    record_link t attrs ~arrival;
    let verdict =
      commit t ?trace ~name:"dispatch" ~ns_metric:"moq_stage_ingest_ns" ~arrival
        (fun emit -> Commit.ingest t.core ?trace ~emit u)
    in
    enqueue_msg t sess (Proto.R_update verdict);
    true
  | Proto.Subscribe { kind; lo; hi } ->
    with_lock t.lock (fun () ->
        if Commit.owned t.core sess.sid >= t.cfg.max_subs_per_session then
          enqueue_msg t sess
            (Proto.R_err
               { code = "limit";
                 msg = Printf.sprintf "at most %d subscriptions per session"
                         t.cfg.max_subs_per_session })
        else
          match Commit.subscribe t.core ~owner:sess.sid kind ~lo ~hi with
          | Error m -> enqueue_msg t sess (Proto.R_err { code = "proto"; msg = m })
          | Ok sub ->
            (* response first, then any already-valid prefix as events:
               same lock scope, so no update can interleave *)
            enqueue_msg t sess (Proto.R_subscribe { sub });
            Commit.flush t.core ~emit:(emit t) sub);
    true
  | Proto.Unsubscribe sub ->
    with_lock t.lock (fun () ->
        match Commit.unsubscribe t.core ~owner:sess.sid sub with
        | None ->
          enqueue_msg t sess (Proto.R_err { code = "unknown-sub"; msg = string_of_int sub })
        | Some pieces -> enqueue_msg t sess (Proto.R_unsubscribe { sub; pieces }));
    true
  | Proto.Query { kind; lo; hi } ->
    record_link t attrs ~arrival;
    (* snapshot under the lock, sweep outside it: the MOD is persistent *)
    let db = with_lock t.lock (fun () -> Commit.db t.core) in
    let pieces = Commit.query t.core db ~session:sess.sid kind ~lo ~hi in
    (match req_trace t attrs with
     | Some c ->
       ignore
         (Trace.record ~ctx:(tctx c) t.tracer ~name:"query" ~start:arrival
            ~dur:(Unix.gettimeofday () -. arrival) ())
     | None -> ());
    enqueue_msg t sess (Proto.R_query pieces);
    true
  | Proto.Stats fmt ->
    with_lock t.lock (fun () ->
        update_gauges t;
        publish_hot t);
    let body =
      match fmt with
      | `Json -> Export.json_string t.reg
      | `Prometheus -> Export.prometheus t.reg
    in
    enqueue_msg t sess (Proto.R_stats body);
    true
  | Proto.Repl_hello { version; _ } when version <> Proto.version -> bad_version t sess
  | Proto.Repl_hello { since; _ } ->
    with_lock t.lock (fun () ->
        let reply, delta = Commit.follow t.core ~owner:sess.sid ~since in
        enqueue_msg t sess reply;
        (* replay the backlog gap now, in the same lock scope, so no
           commit can interleave between the handshake and the stream *)
        Option.iter
          (fun after -> Commit.replay t.core ~emit:(emit t) ~owner:sess.sid ~after)
          delta);
    true

(* ---------------------------------------------------------------- *)
(* Per-session threads                                               *)

let writer_loop t sess =
  let rec go () =
    Mutex.lock sess.qm;
    while Outq.is_empty sess.outq && not sess.closing && not sess.dead do
      Condition.wait sess.qc sess.qm
    done;
    if sess.dead then Mutex.unlock sess.qm
    else
      match Outq.pop sess.outq with
      | None ->
        (* closing with an empty queue: flush complete *)
        Mutex.unlock sess.qm;
        (try Unix.shutdown sess.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
      | Some item ->
        Mutex.unlock sess.qm;
        (* a queue span starts at its wall-clock enqueue, like the spans it
           tiles with; its duration comes from the monotonic clock *)
        let now = Unix.gettimeofday () and now_mono = Sink.monotonic () in
        let payload : string =
          match item with
          | Outq.Event e ->
            let dur = now_mono -. e.enq_mono in
            Sink.observe t.sink "moq_stage_queue_ns" (dur *. 1e9);
            let msg =
              Proto.E_pieces
                { sub = e.sub; first_seq = e.first_seq; pieces = List.rev e.pieces_rev }
            in
            (match e.trace with
             | Some c when t.cfg.trace ->
               ignore
                 (Trace.record ~ctx:(tctx c) t.tracer ~name:"queue" ~start:e.enq ~dur ());
               Proto.render_server_msg_attrs
                 { Proto.no_attrs with Proto.a_trace = Some c; a_ts = Some now }
                 msg
             | _ -> Proto.render_server_msg msg)
          | Outq.Frame f ->
            let dur = now_mono -. f.enq_mono in
            Sink.observe t.sink "moq_stage_queue_ns" (dur *. 1e9);
            let trace = if t.cfg.trace then f.trace else None in
            (match trace with
             | Some c ->
               ignore
                 (Trace.record ~ctx:(tctx c) t.tracer ~name:"queue" ~start:f.enq ~dur ())
             | None -> ());
            (* unsynchronized read of the core's epoch and seq: both
               advance monotonically, so a momentarily stale watermark can
               only understate the follower's lag *)
            f.msg
            ^ Proto.render_attrs
                { Proto.a_trace = trace;
                  a_ts = (if trace <> None then Some now else None);
                  a_wm = Some (Commit.watermark t.core) }
          | Outq.Msg s -> s
          | Outq.Dropped d ->
            Proto.render_server_msg
              (Proto.E_dropped { sub = d.sub; from_seq = d.from_seq; to_seq = d.to_seq })
        in
        (match item with
         | Outq.Event e ->
           acct t e.sub (fun a ->
               a.sa_bytes <- a.sa_bytes + String.length payload;
               a.sa_events <- a.sa_events + 1)
         | _ -> ());
        let t_write = Sink.monotonic () in
        (match Frame.write sess.fd payload with
         | Ok () ->
           Sink.observe t.sink "moq_stage_write_ns" ((Sink.monotonic () -. t_write) *. 1e9);
           if t.cfg.writer_delay > 0. then Thread.delay t.cfg.writer_delay;
           go ()
         | Error e ->
           (* an unshippable (oversized) payload: substitute a protocol
              error so the peer learns why, then close the session rather
              than leave its response stream desynchronized *)
           Sink.count t.sink "moq_server_protocol_errors_total" 1;
           let subst =
             Proto.render_server_msg
               (Proto.R_err { code = "proto"; msg = Frame.error_to_string e })
           in
           (match Frame.write sess.fd subst with
            | Ok () | Error _ -> ()
            | exception Unix.Unix_error _ -> ());
           with_lock sess.qm (fun () -> sess.dead <- true);
           (try Unix.shutdown sess.fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
         | exception Unix.Unix_error _ ->
           with_lock sess.qm (fun () -> sess.dead <- true))
  in
  go ()

let teardown t sess =
  (* the reader owns teardown: stop the writer, close the descriptor,
     forget the session and its subscriptions *)
  with_lock sess.qm (fun () ->
      sess.closing <- true;
      Condition.broadcast sess.qc);
  (match sess.writer with Some th -> (try Thread.join th with _ -> ()) | None -> ());
  (try Unix.close sess.fd with Unix.Unix_error _ -> ());
  record t "session_close" [ ("session", Json.Int sess.sid) ];
  Log.debug ~fields:[ ("session", Json.Int sess.sid) ] "session closed";
  if not t.crashed then
    with_lock t.lock (fun () ->
        t.sessions <- List.filter (fun s -> s.sid <> sess.sid) t.sessions;
        Commit.retire t.core sess.sid;
        update_gauges t)

let reader_loop t sess =
  let r = Frame.reader sess.fd in
  let timeout = if t.cfg.idle_timeout > 0. then Some t.cfg.idle_timeout else None in
  let rec go ~hello_done =
    match Frame.read ?timeout r with
    | `Eof -> ()
    | `Timeout ->
      Sink.count t.sink "moq_server_idle_timeouts_total" 1;
      enqueue_msg t sess
        (Proto.R_err { code = "idle-timeout";
                       msg = Printf.sprintf "no request in %g s" t.cfg.idle_timeout })
    | `Garbage g ->
      Sink.count t.sink "moq_server_protocol_errors_total" 1;
      enqueue_msg t sess
        (Proto.R_err { code = "proto"; msg = Frame.error_to_string g })
    | `Frame payload ->
      (match Proto.parse_request_attrs ~dim:(Commit.dim t.core) payload with
       | Error e ->
         Sink.count t.sink "moq_server_protocol_errors_total" 1;
         enqueue_msg t sess (Proto.R_err { code = "proto"; msg = e });
         go ~hello_done
       | Ok (((Proto.Hello _ | Proto.Repl_hello _) as req), attrs) ->
         if dispatch t sess req attrs ~arrival:(Unix.gettimeofday ()) then
           go ~hello_done:true
       | Ok _ when not hello_done ->
         Sink.count t.sink "moq_server_protocol_errors_total" 1;
         enqueue_msg t sess (Proto.R_err { code = "proto"; msg = "HELLO first" });
         go ~hello_done
       | Ok (req, attrs) ->
         if dispatch t sess req attrs ~arrival:(Unix.gettimeofday ()) then
           go ~hello_done)
  in
  (try go ~hello_done:false with _ -> ());
  teardown t sess

(* ---------------------------------------------------------------- *)
(* Accept loop, start/stop                                           *)

let handle_accept t fd =
  Unix.set_close_on_exec fd;
  let admitted =
    with_lock t.lock (fun () ->
        if t.stopping || List.length t.sessions >= t.cfg.max_sessions then None
        else begin
          let sid = t.next_sid in
          t.next_sid <- t.next_sid + 1;
          let sess =
            { sid; fd; qm = Mutex.create (); qc = Condition.create (); outq = Outq.create ();
              closing = false; dead = false; writer = None }
          in
          t.sessions <- sess :: t.sessions;
          Sink.count t.sink "moq_server_sessions_total" 1;
          update_gauges t;
          Some sess
        end)
  in
  match admitted with
  | None ->
    Sink.count t.sink "moq_server_rejected_sessions_total" 1;
    Log.warn
      ~fields:
        [ ("reason", Json.Str (if t.stopping then "shutting-down" else "busy")) ]
      "session rejected";
    let msg =
      Proto.render_server_msg
        (Proto.R_err
           { code = (if t.stopping then "shutting-down" else "busy");
             msg =
               (if t.stopping then "server is draining"
                else Printf.sprintf "at most %d sessions" t.cfg.max_sessions) })
    in
    (match Frame.write fd msg with
     | Ok () | Error _ -> ()
     | exception Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | Some sess ->
    record t "session_open" [ ("session", Json.Int sess.sid) ];
    Log.debug ~fields:[ ("session", Json.Int sess.sid) ] "session accepted";
    sess.writer <- Some (Thread.create (fun () -> writer_loop t sess) ());
    let reader = Thread.create (fun () -> reader_loop t sess) () in
    with_lock t.lock (fun () -> t.readers <- reader :: t.readers)

let accept_loop t =
  let rec go () =
    if not t.stopping then begin
      match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.) with
      | rs, _, _ ->
        if List.mem t.wake_r rs then begin
          let b = Bytes.create 16 in
          try ignore (Unix.read t.wake_r b 0 16) with Unix.Unix_error _ -> ()
        end;
        if (not t.stopping) && List.mem t.listen_fd rs then begin
          match Unix.accept t.listen_fd with
          | fd, _ -> handle_accept t fd
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
        end;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
    end
  in
  (try go () with _ -> ());
  (* graceful drain — skipped entirely on crash *)
  if not t.crashed then begin
    let sessions = with_lock t.lock (fun () -> t.sessions) in
    List.iter (fun sess -> shut_session t sess ~reason:"draining") sessions;
    let readers = with_lock t.lock (fun () -> t.readers) in
    List.iter (fun th -> try Thread.join th with _ -> ()) readers;
    with_lock t.lock (fun () -> Commit.close t.core ~checkpoint:true);
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.cfg.listen with
     | Unix_sock path -> (try Sys.remove path with Sys_error _ -> ())
     | Tcp _ -> ())
  end

(* ---------------------------------------------------------------- *)
(* Follower: bootstrap from the primary and tail its commit stream.  *)

(* One replication session over [fd]: handshake, apply the bootstrap
   snapshot or resume as a delta, then pump the commit stream.  Returns
   [true] when the handshake succeeded (resets the reconnect backoff). *)
let repl_tail t fd =
  let since = with_lock t.lock (fun () -> Commit.position t.core) in
  let hello = Proto.render_request (Proto.Repl_hello { version = Proto.version; since }) in
  match Frame.write fd hello with
  | Error _ -> false
  | exception Unix.Unix_error _ -> false
  | Ok () ->
    let rd = Frame.reader fd in
    let rec read_frame () =
      match Frame.read ~timeout:0.25 rd with
      | `Timeout -> if t.stopping then None else read_frame ()
      | `Eof | `Garbage _ -> None
      | `Frame p -> Some p
    in
    let rec await_hello () =
      match read_frame () with
      | None -> None
      | Some p ->
        (match Proto.parse_server_msg p with
         | Ok (Proto.R_repl_hello { dim; clock = _; epoch; seq; snapshot }) ->
           Some (Ok (dim, epoch, seq, snapshot))
         | Ok (Proto.R_err { code; msg }) -> Some (Error (code ^ ": " ^ msg))
         | Ok _ | Error _ -> await_hello ())
    in
    (match await_hello () with
     | None | Some (Error _) -> false
     | Some (Ok (dim, _, _, _)) when dim <> Commit.dim t.core ->
       Sink.count t.sink "moq_repl_dim_mismatch_total" 1;
       false
     | Some (Ok (_, epoch, seq, snapshot)) ->
       let bootstrapped =
         with_lock t.lock (fun () ->
             let ok = Commit.bootstrap t.core ~emit:(emit t) ~epoch ~seq snapshot in
             if ok then t.repl_connected <- true;
             ok)
       in
       bootstrapped
       && begin
         Log.info
           ~fields:
             [ ("epoch", Json.Int epoch); ("seq", Json.Int seq);
               ("mode", Json.Str (if snapshot = None then "delta" else "snapshot")) ]
           "replication stream connected";
         let rec pump () =
           match read_frame () with
           | None -> ()
           | Some p ->
             (match Proto.parse_server_msg_attrs p with
              | Ok (Proto.E_repl_update { seq; dim = _; u }, attrs) ->
                let arrival = Unix.gettimeofday () in
                record_link t attrs ~arrival;
                let trace = req_trace t attrs in
                if
                  commit t ?trace ~name:"apply" ~ns_metric:"moq_stage_follower_apply_ns"
                    ~arrival (fun emit ->
                      Commit.apply t.core ?trace ~emit ~epoch ~wm:attrs.Proto.a_wm ~seq u)
                then pump ()
              | Ok (Proto.E_repl_digest { clock; bytes; crc }, attrs) ->
                let diverged =
                  with_lock t.lock (fun () ->
                      Commit.digest_check t.core ~epoch ~wm:attrs.Proto.a_wm ~clock ~bytes
                        ~crc)
                in
                (* the audit-violation analogue of a crash: the evidence is
                   the recent event history, so dump it while it is still
                   in the ring *)
                if diverged then ignore (flight_dump t ~reason:"repl-divergence");
                pump ()
              | Ok (Proto.E_shutdown _, _) -> ()
              | Ok _ | Error _ -> pump ())
         in
         pump ();
         true
       end)

let repl_loop t paddr =
  let backoff = ref 0.05 in
  let rec session () =
    if not t.stopping then begin
      match
        let domain =
          match paddr with Tcp _ -> Unix.PF_INET | Unix_sock _ -> Unix.PF_UNIX
        in
        let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
        Unix.set_close_on_exec fd;
        (try Unix.connect fd (sockaddr_of paddr)
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        fd
      with
      | exception Unix.Unix_error _ -> retry ()
      | fd ->
        t.repl_fd <- Some fd;
        Sink.count t.sink "moq_repl_connects_total" 1;
        let ok = (try repl_tail t fd with _ -> false) in
        t.repl_fd <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        with_lock t.lock (fun () -> t.repl_connected <- false);
        if not t.stopping then
          Log.info
            ~fields:[ ("handshake_ok", Json.Bool ok) ]
            "replication stream disconnected; reconnecting";
        if ok then backoff := 0.05;
        retry ()
    end
  and retry () =
    if not t.stopping then begin
      Thread.delay !backoff;
      backoff := Float.min 2. (!backoff *. 2.);
      session ()
    end
  in
  session ()


(* ---------------------------------------------------------------- *)

let start ?registry cfg =
  (* a peer closing mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let sink = Sink.of_registry reg in
  let tracer =
    Trace.create ~capacity:1024
      ~host:(match cfg.follow with Some _ -> "follower" | None -> "primary")
      ()
  in
  let recorder = Recorder.create ~capacity:cfg.flight_capacity () in
  match
    Commit.create ~reg ~sink ~tracer ~recorder ~fsync:cfg.fsync
      ~checkpoint_every:cfg.checkpoint_every ~dir:cfg.store_dir ~init_db:cfg.init_db
      ~digest_every:cfg.repl_digest_every ~slow_query_ms:cfg.slow_query_ms
      ~hot_objects:cfg.hot_objects
  with
  | Error e -> Error e
  | Ok core ->
    (match
       let domain =
         match cfg.listen with Tcp _ -> Unix.PF_INET | Unix_sock _ -> Unix.PF_UNIX
       in
       let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
       Unix.set_close_on_exec fd;
       (match cfg.listen with
        | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
        | Unix_sock path -> if Sys.file_exists path then Sys.remove path);
       Unix.bind fd (sockaddr_of cfg.listen);
       Unix.listen fd 64;
       fd
     with
     | listen_fd ->
       let wake_r, wake_w = Unix.pipe ~cloexec:true () in
       let t =
         { cfg; reg; sink; tracer; recorder; acct_m = Mutex.create ();
           subacct = Hashtbl.create 64; core; lock = Mutex.create (); sessions = [];
           next_sid = 1; stopping = false; crashed = false; listen_fd; wake_r; wake_w;
           accept_thread = None; readers = []; repl_connected = false; repl_fd = None;
           repl_thread = None }
       in
       update_gauges t;
       (* register the load-bearing counters at zero so a scrape (or `moq
          top`) before the first event still sees them *)
       Sink.count sink "moq_server_rpcs_total" 0;
       Sink.count sink "moq_server_dropped_events_total" 0;
       Sink.count sink "moq_slowq_total" 0;
       Sink.count sink "moq_agg_subscriptions_total" 0;
       Sink.count sink "moq_agg_rows_pushed_total" 0;
       if cfg.follow <> None then begin
         (* same for the freshness gauges before the first repl frame *)
         Sink.set sink "moq_repl_lag_updates" 0.;
         Sink.set sink "moq_repl_lag_ms" 0.
       end;
       t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
       (match cfg.follow with
        | Some paddr ->
          t.repl_thread <- Some (Thread.create (fun () -> repl_loop t paddr) ())
        | None -> ());
       Ok t
     | exception Unix.Unix_error (err, fn, arg) ->
       Commit.close core ~checkpoint:false;
       Error (Printf.sprintf "%s: %s (%s)" fn (Unix.error_message err) arg))

let run t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  match t.repl_thread with
  | Some th -> ( try Thread.join th with _ -> ())
  | None -> ()

let bound_addr t =
  match t.cfg.listen, Unix.getsockname t.listen_fd with
  | Unix_sock p, _ -> Unix_sock p
  | Tcp (h, _), Unix.ADDR_INET (_, port) -> Tcp (h, port)
  | a, _ -> a

let registry t = t.reg
let tracer t = t.tracer
let recorder t = t.recorder
let db_snapshot t = with_lock t.lock (fun () -> Commit.db t.core)
let clock t = with_lock t.lock (fun () -> Commit.clock t.core)
let is_follower t = t.cfg.follow <> None
let repl_connected t = with_lock t.lock (fun () -> t.repl_connected)
let repl_divergence t = with_lock t.lock (fun () -> Commit.divergence t.core)

let shutdown_repl_link t =
  match t.repl_fd with
  | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  | None -> ()

let request_stop t =
  t.stopping <- true;
  shutdown_repl_link t;
  try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1) with Unix.Unix_error _ -> ()

let stop t =
  request_stop t;
  run t

let crash t =
  t.crashed <- true;
  t.stopping <- true;
  ignore (flight_dump t ~reason:"crash");
  shutdown_repl_link t;
  (try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
   with Unix.Unix_error _ -> ());
  let sessions = with_lock t.lock (fun () -> t.sessions) in
  List.iter
    (fun sess ->
      with_lock sess.qm (fun () ->
          sess.dead <- true;
          Condition.broadcast sess.qc);
      (* shutdown, not close: the reader owns the close (in its teardown)
         and a thread blocked in read(2) is only unblocked by shutdown —
         closing here would race the recycled fd number against a later
         connection *)
      try Unix.shutdown sess.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    sessions;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.cfg.listen with
   | Unix_sock path -> (try Sys.remove path with Sys_error _ -> ())
   | Tcp _ -> ());
  let readers = with_lock t.lock (fun () -> t.readers) in
  List.iter (fun th -> try Thread.join th with _ -> ()) readers;
  run t
