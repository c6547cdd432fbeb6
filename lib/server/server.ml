module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module U = Moq_mod.Update
module IO = Moq_mod.Mod_io
module Oid = Moq_mod.Oid
module Store = Moq_durable.Store
module Sanitize = Moq_durable.Sanitize
module Crc32 = Moq_durable.Crc32
module Registry = Moq_obs.Registry
module Sink = Moq_obs.Sink
module Export = Moq_obs.Export
module Trace = Moq_obs.Trace
module Log = Moq_obs.Log
module Json = Moq_obs.Json
module Recorder = Moq_obs.Recorder
module Explain = Moq_core.Explain
module Sweep_cost = Moq_core.Sweep_cost
module Frame = Moq_proto.Frame
module Proto = Moq_proto.Proto

(* The one backend every server sweep runs on.  Filtered makes Exact's
   decisions, prints Exact's canonical instants and rounds them to the
   same floats, so the wire bytes, aggregation densities included, are
   Exact's; the tests check them against in-process Exact runs. *)
module B = Moq_core.Backend.Filtered
module Agg = Moq_agg.Agg
module AggB = Moq_agg.Agg.Make (B)
module Mon = Moq_core.Monitor.Make (B)
module Knn = Moq_core.Knn.Make (B)
module Range = Moq_core.Range_query.Make (B)
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist
module TL = Mon.TL

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
  repl_backlog : int;  (* in-memory update ring for delta resumes *)
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
    repl_digest_every = 64; repl_backlog = 4096; trace = false;
    slow_query_ms = 250.; hot_objects = true; flight_capacity = 2048 }

(* ---------------------------------------------------------------- *)
(* Sessions and subscriptions                                        *)

type out_item =
  | O_msg of string  (* rendered response or notice; never dropped *)
  | O_event of {
      sub : int;
      first_seq : int;
      mutable count : int;
      mutable pieces_rev : Proto.piece list;  (* newest first *)
      mutable trace : (int * int) option;  (* latest contributing trace ctx *)
      enq : float;  (* queue-entry wall time: the queue-wait span start *)
    }
  | O_frame of {
      msg : string;  (* rendered single-line repl head; never dropped *)
      trace : (int * int) option;
      wm : bool;  (* stamp the commit watermark at pop time *)
      enq : float;
    }
  | O_dropped of { sub : int; mutable from_seq : int; to_seq : int }

(* What a subscription evaluates: a monitor streaming validated timeline
   pieces, or a continuous POI aggregation streaming finalized window
   rows.  Both ride the same EVENT sequence numbering and backpressure
   machinery. *)
type sub_body = S_mon of Mon.t | S_agg of AggB.Cont.t

type sub = {
  sub_id : int;
  sub_hi : Q.t;
  sub_shard : int * int;
      (* home cell of the subscription's reference trajectory under the
         affinity grid — the routing key a shard-affine worker pool
         (ROADMAP item 2) partitions subscriptions by *)
  body : sub_body;
  mutable next_seq : int;
}

(* Per-subscription fanout accounting: who costs the output path the most.
   Kept outside [sub] (in a table keyed by sub id) because writer threads
   attribute bytes after the subscription may already be retired. *)
type subacct = {
  mutable sa_bytes : int;   (* event payload bytes written for this sub *)
  mutable sa_events : int;  (* event frames written *)
  mutable sa_qpeak : int;   (* worst session queue depth seen at enqueue *)
  mutable sa_drops : int;   (* events dropped under backpressure *)
}

type session = {
  sid : int;
  fd : Unix.file_descr;
  qm : Mutex.t;
  qc : Condition.t;
  mutable outq : out_item list;  (* oldest first *)
  mutable qlen : int;
  mutable closing : bool;  (* writer drains the queue, then shuts down *)
  mutable dead : bool;  (* abrupt teardown: writer exits immediately *)
  mutable repl : bool;  (* a follower tailing us via REPL-HELLO *)
  mutable subs : sub list;
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
  mutable store : Store.t;  (* replaced wholesale on a follower snapshot reset *)
  mutable san : Sanitize.t;
  dim : int;
  lock : Mutex.t;  (* guards store, sanitizer, sessions list, subscriptions,
                      and all repl_* state *)
  mutable sessions : session list;
  mutable next_sid : int;
  mutable next_sub : int;
  mutable stopping : bool;
  mutable crashed : bool;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  mutable readers : Thread.t list;
  (* Replication.  [epoch] names one incarnation of this server's update
     history; [repl_seq] counts commits within it.  The backlog ring keeps
     the last [cfg.repl_backlog] commits for delta resumes. *)
  mutable epoch : int;
  mutable repl_seq : int;
  repl_backlog_q : (int * U.t) Queue.t;
  mutable repl_since_digest : int;
  (* Follower side *)
  mutable repl_pos : (int * int) option;  (* last applied primary (epoch, seq) *)
  (* Freshness: the highest primary head seq seen on a watermark, and the
     receiver-local wall time at which we first fell behind it.  Lag is
     never a cross-host clock comparison — [lag_anchor] is our own clock. *)
  mutable lag_target : int;
  mutable lag_anchor : float;
  mutable repl_connected : bool;
  mutable repl_divergence : int;
  mutable repl_fd : Unix.file_descr option;
  mutable repl_thread : Thread.t option;
  (* t.lock held: when the commit in progress last handed a traced item
     to a writer (see {!commit_traced}) *)
  mutable handoff : float option;
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

(* Time [f], observe the duration under [ns_metric], and — when a trace
   context is being propagated — record it as a depth-1 stage span. *)
let stage_obs t ?trace ~name ~ns_metric f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Sink.observe t.sink ns_metric (dt *. 1e9);
  (match trace with
   | Some c when t.cfg.trace ->
     ignore (Trace.record ~depth:1 ~ctx:(tctx c) t.tracer ~name ~start:t0 ~dur:dt ())
   | _ -> ());
  r

(* ---------------------------------------------------------------- *)
(* Output queue: enqueue, coalesce, drop                             *)

let render_item = function
  | O_msg s -> s
  | O_frame f -> f.msg
  | O_event e ->
    Proto.render_server_msg
      (Proto.E_pieces
         { sub = e.sub; first_seq = e.first_seq; pieces = List.rev e.pieces_rev })
  | O_dropped d ->
    Proto.render_server_msg
      (Proto.E_dropped { sub = d.sub; from_seq = d.from_seq; to_seq = d.to_seq })

(* Merge adjacent EVENT-DROPPED markers for the same subscription.  The
   queue holds each subscription's sequence numbers in order with nothing
   between adjacent items, so adjacent markers are always contiguous. *)
let rec compact = function
  | O_dropped a :: O_dropped b :: rest when a.sub = b.sub && b.from_seq = a.to_seq + 1 ->
    b.from_seq <- a.from_seq;
    compact (O_dropped b :: rest)
  | x :: rest -> x :: compact rest
  | [] -> []

(* qm held.  Replace the oldest event frame with a drop marker; [compact]
   then merges it into a neighbouring marker where possible.  Returns
   [false] when the queue holds no event frame left to drop. *)
let drop_oldest_event t sess =
  let rec go = function
    | [] -> None
    | O_event e :: rest ->
      Sink.count t.sink "moq_server_dropped_events_total" e.count;
      acct t e.sub (fun a -> a.sa_drops <- a.sa_drops + e.count);
      record t "backpressure_drop"
        [ ("sub", Json.Int e.sub); ("count", Json.Int e.count) ];
      Some
        (O_dropped
           { sub = e.sub; from_seq = e.first_seq; to_seq = e.first_seq + e.count - 1 }
        :: rest)
    | x :: rest -> Option.map (fun rest' -> x :: rest') (go rest)
  in
  match go sess.outq with
  | None -> false
  | Some q ->
    let q = compact q in
    sess.outq <- q;
    sess.qlen <- List.length q;
    true

(* qm held. *)
let enqueue_item t sess item =
  if not (sess.closing || sess.dead) then begin
    let coalesced =
      match item, (if sess.qlen >= t.cfg.queue_soft then List.rev sess.outq else []) with
      | O_event e, O_event last :: _
        when last.sub = e.sub && last.first_seq + last.count = e.first_seq ->
        last.pieces_rev <- e.pieces_rev @ last.pieces_rev;
        last.count <- last.count + e.count;
        (match e.trace with Some _ as tr -> last.trace <- tr | None -> ());
        Sink.count t.sink "moq_server_coalesced_events_total" 1;
        true
      | _ -> false
    in
    if not coalesced then begin
      sess.outq <- sess.outq @ [ item ];
      sess.qlen <- sess.qlen + 1
    end;
    while sess.qlen > t.cfg.queue_hwm && drop_oldest_event t sess do () done;
    (match item with
     | O_event e ->
       acct t e.sub (fun a -> if sess.qlen > a.sa_qpeak then a.sa_qpeak <- sess.qlen)
     | _ -> ());
    Sink.observe t.sink "moq_server_push_queue_depth" (float_of_int sess.qlen);
    Condition.signal sess.qc
  end

let enqueue t sess item = with_lock sess.qm (fun () -> enqueue_item t sess item)
let enqueue_msg t sess msg = enqueue t sess (O_msg (Proto.render_server_msg msg))

(* ---------------------------------------------------------------- *)
(* Timeline pieces -> wire                                           *)

(* Printing an instant re-isolates its root, and a timeline names each
   event instant up to three times in a row: as a span's end, as the [At]
   at it, and as the next span's start.  So remember the last instant
   printed and print each physically distinct one once per call. *)
let wire_pieces pieces =
  let last = ref None in
  let wire i =
    match !last with
    | Some (j, w) when j == i -> w
    | _ ->
      let w = Format.asprintf "%a" B.pp_instant i in
      last := Some (i, w);
      w
  in
  List.map
    (function
      | TL.At (i, s) -> Proto.P_at (wire i, Oid.Set.elements s)
      | TL.Span (a, b, s) ->
        let a = wire a in (* before [b]: arguments evaluate right to left *)
        Proto.P_span (a, wire b, Oid.Set.elements s))
    pieces

(* ---------------------------------------------------------------- *)
(* Subscriptions                                                     *)

(* The reference trajectory for origin-relative distances must be alive
   before any queried interval; a very early start covers every sane use. *)
let gamma_start = Q.of_int (-1_000_000_000)

let origin_gamma dim = T.stationary ~start:gamma_start (Qvec.zero dim)

let gdist_of_kind t = function
  | Proto.Sub_knn _ | Proto.Sub_range _ | Proto.Sub_gdist (Proto.Euclidean_sq, _) ->
    Gdist.euclidean_sq ~gamma:(origin_gamma t.dim)
  | Proto.Sub_gdist (Proto.Speed_sq, _) -> Gdist.speed_sq
  | Proto.Sub_agg _ ->
    (* never monitored through a single g-distance: the subscribe path
       builds one monitor per POI inside Agg.Cont instead *)
    invalid_arg "agg subscriptions have no single g-distance"

(* Shard affinity.  Subscriptions and updates both hash to a cell of one
   coarse affinity grid; an update whose object moves in (or next to) a
   subscription's cell is shard-local to it.  Today this only drives the
   moq_server_shard_{local,remote}_updates_total counters — the measured
   case for the shard-affine worker pool of ROADMAP item 2, which will
   route each update to the worker owning its cell. *)
let affinity_cell = 256.0

let affinity_shard_of_pos pos =
  let x = Q.to_float (Qvec.get pos 0) in
  let y = if Qvec.dim pos >= 2 then Q.to_float (Qvec.get pos 1) else 0.0 in
  Moq_index.Grid.cell_of ~cell:affinity_cell (x, y)

(* The cell of the subscription's reference trajectory when the
   subscription starts.  Speed-relative subscriptions have no spatial
   anchor; they share the origin cell. *)
let affinity_shard_of_sub t kind ~lo =
  match kind with
  | Proto.Sub_gdist (Proto.Speed_sq, _) -> affinity_shard_of_pos (Qvec.zero t.dim)
  | Proto.Sub_agg { pois; _ } ->
    (* anchored at the first POI; a multi-POI subscription has no single
       home cell, but the first is as good a routing key as any *)
    (match pois with
     | (x :: rest) :: _ ->
       let y = match rest with y :: _ -> y | [] -> Q.zero in
       Moq_index.Grid.cell_of ~cell:affinity_cell (Q.to_float x, Q.to_float y)
     | _ -> affinity_shard_of_pos (Qvec.zero t.dim))
  | Proto.Sub_knn _ | Proto.Sub_range _ | Proto.Sub_gdist (Proto.Euclidean_sq, _) ->
    let gamma = origin_gamma t.dim in
    let at = Q.max lo gamma_start in
    if T.defined_at gamma at then affinity_shard_of_pos (T.position_exn gamma at)
    else affinity_shard_of_pos (Qvec.zero t.dim)

(* The cell the updated object lands in, from the post-commit MOD.  None
   when the update leaves the object undefined at its own timestamp (a
   deletion). *)
let affinity_shard_of_update t u =
  match DB.find (Store.db t.store) (U.oid u) with
  | None -> None
  | Some tr ->
    let at = U.time u in
    if T.defined_at tr at then Some (affinity_shard_of_pos (T.position_exn tr at))
    else None

let shard_local (ai, aj) (bi, bj) = abs (ai - bi) <= 1 && abs (aj - bj) <= 1

let query_of_kind kind ~lo ~hi =
  let interval = Fof.Interval.closed lo hi in
  match kind with
  | Proto.Sub_knn k -> if k = 1 then Fof.nearest_q ~interval else Fof.knn_q ~k ~interval
  | Proto.Sub_range b | Proto.Sub_gdist (_, b) -> Fof.within_q ~bound:b ~interval
  | Proto.Sub_agg _ -> invalid_arg "agg subscriptions have no single query"

let wire_row (r : Agg.row) =
  Proto.P_agg
    { poi = r.Agg.r_poi; widx = r.Agg.r_widx; w_lo = Q.to_string r.Agg.r_lo;
      w_hi = Q.to_string r.Agg.r_hi; count = r.Agg.r_count;
      density = r.Agg.r_density; distinct = r.Agg.r_distinct }

(* t.lock held.  Enqueue wire pieces for [sub] with consecutive sequence
   numbers. *)
let push_wire ?trace t sess sub wire =
  if wire <> [] then begin
    let n = List.length wire in
    Sink.count t.sink "moq_server_pushed_events_total" n;
    let t0 = Unix.gettimeofday () in
    if trace <> None then t.handoff <- Some t0;
    enqueue t sess
      (O_event { sub = sub.sub_id; first_seq = sub.next_seq; count = n;
                 pieces_rev = List.rev wire; trace; enq = t0 });
    Sink.observe t.sink "moq_stage_enqueue_ns" ((Unix.gettimeofday () -. t0) *. 1e9);
    record t "sub_pieces" [ ("sub", Json.Int sub.sub_id); ("n", Json.Int n) ];
    sub.next_seq <- sub.next_seq + n
  end

(* t.lock held.  Push finalized aggregation rows, accounting the fanout
   per POI: each POI's row count lands in the flight recorder, the total
   in moq_agg_rows_pushed_total. *)
let push_agg_rows ?trace t sess sub (rows : Agg.row list) =
  if rows <> [] then begin
    Sink.count t.sink "moq_agg_rows_pushed_total" (List.length rows);
    let per_poi = Hashtbl.create 8 in
    List.iter
      (fun (r : Agg.row) ->
        let c = Option.value ~default:0 (Hashtbl.find_opt per_poi r.Agg.r_poi) in
        Hashtbl.replace per_poi r.Agg.r_poi (c + 1))
      rows;
    Hashtbl.iter
      (fun poi n ->
        record t "agg_rows"
          [ ("sub", Json.Int sub.sub_id); ("poi", Json.Int poi);
            ("n", Json.Int n) ])
      per_poi;
    push_wire ?trace t sess sub (List.map wire_row rows)
  end

(* t.lock held.  Push freshly validated pieces (or finalized aggregation
   rows) of [sub] to its session; retire the subscription once its whole
   interval is valid. *)
let push_fresh ?trace t sess sub =
  (match sub.body with
   | S_mon mon -> push_wire ?trace t sess sub (wire_pieces (Mon.drain_valid mon))
   | S_agg agg -> push_agg_rows ?trace t sess sub (AggB.Cont.drain_rows agg));
  let clk =
    match sub.body with S_mon mon -> Mon.clock mon | S_agg agg -> AggB.Cont.clock agg
  in
  if Q.compare clk sub.sub_hi >= 0 then begin
    (match sub.body with
     | S_mon _ -> ()
     | S_agg agg ->
       (* the per-POI monitors never close their trailing spans on their
          own; finalize them so the last windows' rows flush before the
          completion marker *)
       ignore (AggB.Cont.finalize agg);
       push_agg_rows ?trace t sess sub (AggB.Cont.drain_rows agg));
    Sink.count t.sink "moq_server_completed_subscriptions_total" 1;
    record t "sub_complete" [ ("sub", Json.Int sub.sub_id) ];
    enqueue_msg t sess (Proto.E_complete { sub = sub.sub_id });
    sess.subs <- List.filter (fun s -> s.sub_id <> sub.sub_id) sess.subs
  end

(* t.lock held: apply one accepted update to every live subscription. *)
let fanout ?trace t u =
  let ushard = affinity_shard_of_update t u in
  List.iter
    (fun sess ->
      List.iter
        (fun sub ->
          (match ushard with
           | Some c when shard_local c sub.sub_shard ->
             Sink.count t.sink "moq_server_shard_local_updates_total" 1
           | Some _ | None ->
             Sink.count t.sink "moq_server_shard_remote_updates_total" 1);
          let t0 = Unix.gettimeofday () in
          (match
             match sub.body with
             | S_mon mon -> Mon.apply_update mon u
             | S_agg agg -> AggB.Cont.apply_update agg u
           with
           | Ok () -> ()
           | Error _ -> Sink.count t.sink "moq_server_fanout_errors_total" 1);
          let dt_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
          Sink.observe t.sink "moq_stage_monitor_ns" (dt_ms *. 1e6);
          if t.cfg.slow_query_ms > 0. && dt_ms > t.cfg.slow_query_ms then begin
            Sink.count t.sink "moq_slowq_total" 1;
            Sink.count t.sink "moq_slowq_monitor_total" 1;
            let fields =
              [ ("source", Json.Str "monitor"); ("sub", Json.Int sub.sub_id);
                ("ms", Json.Float dt_ms); ("oid", Json.Int (U.oid u)) ]
            in
            record t "slow_monitor_step" fields;
            Log.warn ~fields "slow monitor step"
          end;
          push_fresh ?trace t sess sub)
        sess.subs)
    t.sessions

(* qm must NOT be held.  Replication frames are O_msg (never dropped), so
   a follower that stops draining would grow the queue without bound —
   kick it instead; it resumes from its last applied position. *)
let enqueue_repl t sess item =
  let kick =
    with_lock sess.qm (fun () ->
        enqueue_item t sess item;
        if sess.qlen > 2 * t.cfg.queue_hwm then begin
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

(* t.lock held: one update has been appended to the store.  Fan it out to
   the live subscriptions, remember it in the delta-resume backlog, and
   ship it — plus a periodic state digest — to tailing followers. *)
let committed ?trace t u =
  (* exactly one record per store append, in WAL order (quarantine
     graduates included) — the invariant `moq blackbox` correlates on *)
  record t "update_admitted"
    [ ("oid", Json.Int (U.oid u)); ("tau", Json.Str (Q.to_string (U.time u))) ];
  stage_obs t ?trace ~name:"fanout" ~ns_metric:"moq_stage_fanout_ns" (fun () ->
      fanout ?trace t u);
  t.repl_seq <- t.repl_seq + 1;
  Queue.push (t.repl_seq, u) t.repl_backlog_q;
  while Queue.length t.repl_backlog_q > t.cfg.repl_backlog do
    ignore (Queue.pop t.repl_backlog_q)
  done;
  match List.filter (fun s -> s.repl) t.sessions with
  | [] -> ()
  | followers ->
    let msg =
      Proto.render_server_msg
        (Proto.E_repl_update { seq = t.repl_seq; dim = t.dim; u })
    in
    Sink.count t.sink "moq_repl_streamed_updates_total" (List.length followers);
    let enq = Unix.gettimeofday () in
    if trace <> None then t.handoff <- Some enq;
    List.iter
      (fun sess -> enqueue_repl t sess (O_frame { msg; trace; wm = true; enq }))
      followers;
    t.repl_since_digest <- t.repl_since_digest + 1;
    if t.cfg.repl_digest_every > 0
       && t.repl_since_digest >= t.cfg.repl_digest_every
    then begin
      t.repl_since_digest <- 0;
      let bytes, crc = Store.digest t.store in
      let dmsg =
        Proto.render_server_msg
          (Proto.E_repl_digest
             { clock = Store.clock t.store; bytes; crc = Crc32.to_hex crc })
      in
      Sink.count t.sink "moq_repl_digests_total" 1;
      record t "repl_digest_sent"
        [ ("clock", Json.Str (Q.to_string (Store.clock t.store))) ];
      let enq = Unix.gettimeofday () in
      List.iter
        (fun sess ->
          enqueue_repl t sess (O_frame { msg = dmsg; trace = None; wm = true; enq }))
        followers
    end

(* t.lock held.  The sanitizer → WAL pipeline: like {!Store.ingest}, but
   every applied update — including quarantine graduates — is fanned out to
   the live subscriptions. *)
let ingest_and_fanout ?trace t u =
  let try_apply ?trace u =
    match
      stage_obs t ?trace ~name:"sanitize" ~ns_metric:"moq_stage_sanitize_ns"
        (fun () -> Sanitize.classify t.san (Store.db t.store) u)
    with
    | Sanitize.Accepted _ as v ->
      (match
         stage_obs t ?trace ~name:"append" ~ns_metric:"moq_stage_store_append_ns"
           (fun () -> Store.append t.store u)
       with
       | Ok () -> committed ?trace t u
       | Error _ -> () (* unreachable: classified against this very db *));
      v
    | v -> v
  in
  let verdict = try_apply ?trace u in
  (match verdict with
   | Sanitize.Accepted _ ->
     let rec drain () =
       let held = Sanitize.take_quarantine t.san in
       if held <> [] then begin
         let progress =
           List.fold_left
             (fun acc (hu, _) ->
               match try_apply hu with Sanitize.Accepted _ -> true | _ -> acc)
             false held
         in
         if progress then drain ()
       end
     in
     drain ()
   | Sanitize.Rejected (r, _) ->
     record t "update_rejected"
       [ ("oid", Json.Int (U.oid u));
         ("reason", Json.Str (Format.asprintf "%a" Sanitize.pp_reason r)) ]
   | Sanitize.Quarantined (r, _) ->
     record t "update_quarantined"
       [ ("oid", Json.Int (U.oid u));
         ("reason", Json.Str (Format.asprintf "%a" Sanitize.pp_reason r)) ]);
  verdict

(* t.lock held.  Run one commit and return its result with the time it
   last handed a traced item to a writer.  The traced stage span around a
   commit ends there, not when the commit returns: the item's queue span
   starts at its enqueue, so the two tile even when this thread is
   descheduled between the hand-off and the end of the commit. *)
let commit_traced t f =
  t.handoff <- None;
  let r = f () in
  (r, t.handoff)

let verdict_wire = function
  | Sanitize.Accepted _ -> Proto.V_accepted
  | Sanitize.Rejected (r, _) ->
    Proto.V_rejected (Format.asprintf "%a" Sanitize.pp_reason r)
  | Sanitize.Quarantined (r, _) ->
    Proto.V_quarantined (Format.asprintf "%a" Sanitize.pp_reason r)

(* ---------------------------------------------------------------- *)
(* Request dispatch                                                  *)

let update_gauges t =
  Registry.set (Registry.gauge t.reg "moq_server_connections")
    (float_of_int (List.length t.sessions));
  Registry.set (Registry.gauge t.reg "moq_server_subscriptions")
    (float_of_int (List.fold_left (fun a s -> a + List.length s.subs) 0 t.sessions))

(* t.lock held.  Merge per-object sweep-cost attribution across every live
   subscription monitor and export the top-5 (plus their share of all
   attributed comparisons) as rank-indexed gauges; likewise the costliest
   subscriptions by fanout bytes.  Rank gauges left over from a previous
   publish simply go stale at their old values — readers key on the
   current ranks 0..4 only. *)
let publish_hot t =
  List.concat_map
    (fun sess ->
      List.filter_map
        (fun sub ->
          match sub.body with
          | S_agg _ -> None
          | S_mon mon -> Some (Mon.hot_objects mon))
        sess.subs)
    t.sessions
  |> Sweep_cost.merge_hot |> Sweep_cost.publish_hot t.sink;
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

(* Returns [false] when the session should close. *)
let dispatch t sess (req : Proto.request) (attrs : Proto.attrs) ~arrival =
  Sink.count t.sink "moq_server_rpcs_total" 1;
  Sink.time t.sink (Printf.sprintf "moq_server_rpc_%s_seconds" (rpc_name req))
  @@ fun () ->
  match req with
  | Proto.Hello v ->
    if v <> Proto.version then begin
      enqueue_msg t sess
        (Proto.R_err { code = "bad-version";
                       msg = Printf.sprintf "server speaks moqp %d" Proto.version });
      false
    end
    else begin
      let clock = with_lock t.lock (fun () -> Store.clock t.store) in
      enqueue_msg t sess (Proto.R_hello { session = sess.sid; dim = t.dim; clock });
      true
    end
  | Proto.Ping ->
    let clock = with_lock t.lock (fun () -> Store.clock t.store) in
    enqueue_msg t sess (Proto.R_pong { clock });
    true
  | Proto.Bye ->
    enqueue_msg t sess Proto.R_bye;
    false
  | Proto.Update u ->
    if t.cfg.follow <> None then begin
      (* a follower's state is the primary's; local writes would fork it *)
      enqueue_msg t sess
        (Proto.R_err { code = "read-only";
                       msg = "this server is a follower; send updates to the primary" });
      true
    end
    else begin
      let trace = req_trace t attrs in
      record_link t attrs ~arrival;
      let verdict, handoff =
        with_lock t.lock (fun () ->
            commit_traced t (fun () -> ingest_and_fanout ?trace t u))
      in
      let t_done = Unix.gettimeofday () in
      Sink.observe t.sink "moq_stage_ingest_ns" ((t_done -. arrival) *. 1e9);
      (match trace with
       | Some c ->
         let stop = Option.value handoff ~default:t_done in
         ignore
           (Trace.record ~ctx:(tctx c) t.tracer ~name:"dispatch" ~start:arrival
              ~dur:(stop -. arrival) ())
       | None -> ());
      enqueue_msg t sess (Proto.R_update (verdict_wire verdict));
      true
    end
  | Proto.Subscribe { kind; lo; hi } ->
    with_lock t.lock (fun () ->
        if List.length sess.subs >= t.cfg.max_subs_per_session then
          enqueue_msg t sess
            (Proto.R_err
               { code = "limit";
                 msg = Printf.sprintf "at most %d subscriptions per session"
                         t.cfg.max_subs_per_session })
        else begin
          let mk_body () =
            match kind with
            | Proto.Sub_agg { d; window; pois } ->
              let pois = List.map Qvec.of_list pois in
              let agg =
                AggB.Cont.create ~sink:t.sink ~db:(Store.db t.store) ~pois ~d
                  ~window ~lo ~hi ()
              in
              Sink.count t.sink "moq_agg_subscriptions_total" 1;
              S_agg agg
            | _ ->
              let gdist = gdist_of_kind t kind in
              let query = query_of_kind kind ~lo ~hi in
              S_mon
                (Mon.create ~sink:t.sink ~attr:t.cfg.hot_objects
                   ~db:(Store.db t.store) ~gdist ~query ())
          in
          match mk_body () with
          | body ->
            let sub_id = t.next_sub in
            t.next_sub <- t.next_sub + 1;
            let sub_shard = affinity_shard_of_sub t kind ~lo in
            let sub = { sub_id; sub_hi = hi; sub_shard; body; next_seq = 0 } in
            sess.subs <- sub :: sess.subs;
            Sink.count t.sink "moq_server_subscriptions_total" 1;
            let si, sj = sub_shard in
            (* distinct shards with a live subscription: the worker-pool
               size a shard-affine fanout would need right now *)
            let shards =
              List.sort_uniq compare
                (List.concat_map
                   (fun s -> List.map (fun su -> su.sub_shard) s.subs)
                   t.sessions)
            in
            Sink.set t.sink "moq_server_sub_shards"
              (float_of_int (List.length shards));
            record t "subscribe"
              [ ("sub", Json.Int sub_id); ("session", Json.Int sess.sid);
                ("shard_i", Json.Int si); ("shard_j", Json.Int sj) ];
            (* response first, then any already-valid prefix as events —
               same lock scope, so no update can interleave *)
            enqueue_msg t sess (Proto.R_subscribe { sub = sub_id });
            push_fresh t sess sub
          | exception (Invalid_argument m | Failure m) ->
            enqueue_msg t sess (Proto.R_err { code = "proto"; msg = m })
        end);
    true
  | Proto.Unsubscribe sub_id ->
    with_lock t.lock (fun () ->
        match List.find_opt (fun s -> s.sub_id = sub_id) sess.subs with
        | None ->
          enqueue_msg t sess
            (Proto.R_err { code = "unknown-sub"; msg = string_of_int sub_id })
        | Some sub ->
          sess.subs <- List.filter (fun s -> s.sub_id <> sub_id) sess.subs;
          let pieces =
            match sub.body with
            | S_mon mon -> wire_pieces (Mon.valid_timeline mon)
            | S_agg agg -> List.map wire_row (AggB.Cont.rows agg)
          in
          enqueue_msg t sess (Proto.R_unsubscribe { sub = sub_id; pieces }));
    true
  | Proto.Query { kind; lo; hi } ->
    record_link t attrs ~arrival;
    (* snapshot under the lock, sweep outside it: the MOD is persistent *)
    let db = with_lock t.lock (fun () -> Store.db t.store) in
    let gdist = Gdist.euclidean_sq ~gamma:(origin_gamma t.dim) in
    let cval name = Option.value ~default:0 (Registry.counter_value t.reg name) in
    let ev0 = cval "moq_sweep_events_total" in
    let cmp0 = cval "moq_sweep_comparisons_total" in
    let t0 = Unix.gettimeofday () in
    (* the explain report is only assembled when the run turns out slow;
       each arm returns the timeline plus a thunk that builds it.  It has
       no filter block: Filtered's hit and miss counters are process-wide,
       shared with concurrent queries and the commit thread *)
    let timeline, mk_explain =
      match kind with
      | Proto.Qk_knn k ->
        let r = Knn.run_obs ~sink:t.sink ~db ~gdist ~k ~lo ~hi in
        ( r.Knn.timeline,
          fun ~counters ~phases ->
            Explain.make ~kind:"knn"
              ~query:(Printf.sprintf "server query knn k=%d" k)
              ~backend:B.name ~n_objects:(List.length (DB.objects db))
              ~lo:(Q.to_float lo) ~hi:(Q.to_float hi)
              ~timeline_pieces:(List.length r.Knn.timeline)
              ~sweep:(Explain.sweep_of r.Knn.stats) ~hot:r.Knn.hot
              ~phases ~counters () )
      | Proto.Qk_range b ->
        let r = Range.run ~db ~gdist ~bound:b ~lo ~hi in
        ( r.Range.timeline,
          fun ~counters ~phases ->
            Explain.make ~kind:"range"
              ~query:(Printf.sprintf "server query range bound=%s" (Q.to_string b))
              ~backend:B.name ~n_objects:(List.length (DB.objects db))
              ~lo:(Q.to_float lo) ~hi:(Q.to_float hi)
              ~timeline_pieces:(List.length r.Range.timeline)
              ~sweep:(Explain.sweep_of r.Range.stats) ~phases ~counters () )
    in
    let dur_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    if t.cfg.slow_query_ms > 0. && dur_ms > t.cfg.slow_query_ms then begin
      Sink.count t.sink "moq_slowq_total" 1;
      Sink.count t.sink "moq_slowq_query_total" 1;
      (* counter deltas around the run stand in for a private registry:
         exact when this query ran alone, approximate under concurrency *)
      let counters =
        [ ("moq_sweep_events_total",
           float_of_int (cval "moq_sweep_events_total" - ev0));
          ("moq_sweep_comparisons_total",
           float_of_int (cval "moq_sweep_comparisons_total" - cmp0)) ]
      in
      let ex =
        mk_explain ~counters
          ~phases:[ { Explain.name = "run"; ns = dur_ms *. 1e6 } ]
      in
      let fields =
        [ ("source", Json.Str "query"); ("session", Json.Int sess.sid);
          ("ms", Json.Float dur_ms); ("explain", Explain.to_json ex) ]
      in
      record t "slow_query" fields;
      Log.warn ~fields "slow query"
    end;
    (match req_trace t attrs with
     | Some c ->
       let t_done = Unix.gettimeofday () in
       ignore
         (Trace.record ~ctx:(tctx c) t.tracer ~name:"query" ~start:arrival
            ~dur:(t_done -. arrival) ())
     | None -> ());
    enqueue_msg t sess (Proto.R_query (wire_pieces timeline));
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
  | Proto.Repl_hello { version = v; since } ->
    if v <> Proto.version then begin
      enqueue_msg t sess
        (Proto.R_err { code = "bad-version";
                       msg = Printf.sprintf "server speaks moqp %d" Proto.version });
      false
    end
    else begin
      with_lock t.lock (fun () ->
          let seq = t.repl_seq in
          let clock = Store.clock t.store in
          (* a delta resume is honest only within our own epoch and while
             the backlog ring still covers the follower's gap *)
          let delta_from =
            match since with
            | Some (e, s) when e = t.epoch && s <= seq ->
              if s = seq then Some s
              else (
                match Queue.peek_opt t.repl_backlog_q with
                | Some (first, _) when first <= s + 1 -> Some s
                | Some _ | None -> None)
            | Some _ | None -> None
          in
          let snapshot =
            match delta_from with
            | Some _ ->
              Sink.count t.sink "moq_repl_delta_resumes_total" 1;
              None
            | None ->
              Sink.count t.sink "moq_repl_snapshots_total" 1;
              Some (Store.snapshot t.store)
          in
          sess.repl <- true;
          enqueue_msg t sess
            (Proto.R_repl_hello
               { dim = t.dim; clock; epoch = t.epoch; seq; snapshot });
          (* replay the backlog gap now, in the same lock scope, so no
             commit can interleave between the handshake and the stream *)
          match delta_from with
          | Some s ->
            let enq = Unix.gettimeofday () in
            Queue.iter
              (fun (q, u) ->
                if q > s then
                  enqueue_repl t sess
                    (O_frame
                       { msg =
                           Proto.render_server_msg
                             (Proto.E_repl_update { seq = q; dim = t.dim; u });
                         trace = None; wm = true; enq }))
              t.repl_backlog_q
          | None -> ());
      true
    end

(* ---------------------------------------------------------------- *)
(* Per-session threads                                               *)

let writer_loop t sess =
  let rec go () =
    Mutex.lock sess.qm;
    while sess.outq = [] && not sess.closing && not sess.dead do
      Condition.wait sess.qc sess.qm
    done;
    if sess.dead then Mutex.unlock sess.qm
    else
      match sess.outq with
      | [] ->
        (* closing with an empty queue: flush complete *)
        Mutex.unlock sess.qm;
        (try Unix.shutdown sess.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
      | item :: rest ->
        sess.outq <- rest;
        sess.qlen <- sess.qlen - 1;
        Mutex.unlock sess.qm;
        let now = Unix.gettimeofday () in
        let payload : string =
          match item with
          | O_event e ->
            Sink.observe t.sink "moq_stage_queue_ns" ((now -. e.enq) *. 1e9);
            let msg =
              Proto.E_pieces
                { sub = e.sub; first_seq = e.first_seq; pieces = List.rev e.pieces_rev }
            in
            (match e.trace with
             | Some c when t.cfg.trace ->
               ignore
                 (Trace.record ~ctx:(tctx c) t.tracer ~name:"queue" ~start:e.enq
                    ~dur:(now -. e.enq) ());
               Proto.render_server_msg_attrs
                 { Proto.no_attrs with Proto.a_trace = Some c; a_ts = Some now }
                 msg
             | _ -> Proto.render_server_msg msg)
          | O_frame f ->
            Sink.observe t.sink "moq_stage_queue_ns" ((now -. f.enq) *. 1e9);
            let trace = if t.cfg.trace then f.trace else None in
            (match trace with
             | Some c ->
               ignore
                 (Trace.record ~ctx:(tctx c) t.tracer ~name:"queue" ~start:f.enq
                    ~dur:(now -. f.enq) ())
             | None -> ());
            (* unsynchronized read of epoch/repl_seq: both advance
               monotonically, so a momentarily stale watermark can only
               understate the follower's lag *)
            let wm = if f.wm then Some (t.epoch, t.repl_seq) else None in
            f.msg
            ^ Proto.render_attrs
                { Proto.a_trace = trace;
                  a_ts = (if trace <> None then Some now else None);
                  a_wm = wm }
          | item -> render_item item
        in
        (match item with
         | O_event e ->
           acct t e.sub (fun a ->
               a.sa_bytes <- a.sa_bytes + String.length payload;
               a.sa_events <- a.sa_events + 1)
         | _ -> ());
        (match Frame.write sess.fd payload with
         | Ok () ->
           Sink.observe t.sink "moq_stage_write_ns"
             ((Unix.gettimeofday () -. now) *. 1e9);
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
      (match Proto.parse_request_attrs ~dim:t.dim payload with
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
            { sid; fd; qm = Mutex.create (); qc = Condition.create (); outq = [];
              qlen = 0; closing = false; dead = false; repl = false; subs = [];
              writer = None }
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
    List.iter
      (fun sess ->
        enqueue t sess
          (O_msg (Proto.render_server_msg (Proto.E_shutdown { reason = "draining" })));
        with_lock sess.qm (fun () ->
            sess.closing <- true;
            Condition.broadcast sess.qc);
        (* unblock a reader waiting for the next request *)
        try Unix.shutdown sess.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      sessions;
    let readers = with_lock t.lock (fun () -> t.readers) in
    List.iter (fun th -> try Thread.join th with _ -> ()) readers;
    with_lock t.lock (fun () ->
        Store.checkpoint_now t.store;
        Store.close t.store);
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.cfg.listen with
     | Unix_sock path -> (try Sys.remove path with Sys_error _ -> ())
     | Tcp _ -> ())
  end

(* ---------------------------------------------------------------- *)
(* Follower: bootstrap from the primary and tail its commit stream.  *)

let fresh_epoch () = int_of_float (Unix.gettimeofday () *. 1e6) land max_int

(* t.lock held.  Replace local state with the primary's shipped image.
   Local subscriptions were built over the old history, so their sessions
   are told to go away ([SHUTDOWN repl-reset]) and re-subscribe against
   the new one; chained followers are cut the same way and re-handshake,
   landing on a snapshot of our new epoch. *)
let snapshot_reset t db =
  Store.close t.store;
  t.store <-
    Store.init ~fsync:t.cfg.fsync ~checkpoint_every:t.cfg.checkpoint_every
      ~sink:t.sink ~dir:t.cfg.store_dir db;
  t.san <- Sanitize.create ~sink:t.sink ();
  t.epoch <- fresh_epoch ();
  t.repl_seq <- 0;
  Queue.clear t.repl_backlog_q;
  t.repl_since_digest <- 0;
  Sink.count t.sink "moq_repl_resets_total" 1;
  Log.info ~fields:[ ("epoch", Json.Int t.epoch) ]
    "snapshot reset: state replaced from primary image";
  List.iter
    (fun sess ->
      if sess.repl || sess.subs <> [] then begin
        sess.subs <- [];
        enqueue t sess
          (O_msg
             (Proto.render_server_msg (Proto.E_shutdown { reason = "repl-reset" })));
        with_lock sess.qm (fun () ->
            sess.closing <- true;
            Condition.broadcast sess.qc);
        try Unix.shutdown sess.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()
      end)
    t.sessions

(* t.lock held.  Refresh the freshness gauges from a commit watermark:
   [head] is the primary's head seq as carried on the last repl frame.
   Lag-in-updates is the watermark/applied delta; lag-in-ms is measured
   against the receiver-local instant we first fell behind — no cross-host
   clock comparison is ever involved. *)
let note_lag t ~head =
  let applied = match t.repl_pos with Some (_, s) -> s | None -> 0 in
  let now = Unix.gettimeofday () in
  if head > applied then begin
    if head > t.lag_target then begin
      if t.lag_target <= applied then t.lag_anchor <- now;
      t.lag_target <- head
    end;
    Sink.set t.sink "moq_repl_lag_updates" (float_of_int (head - applied));
    Sink.set t.sink "moq_repl_lag_ms" ((now -. t.lag_anchor) *. 1000.)
  end
  else begin
    t.lag_target <- applied;
    Sink.set t.sink "moq_repl_lag_updates" 0.;
    Sink.set t.sink "moq_repl_lag_ms" 0.
  end

(* One replication session over [fd]: handshake, apply the bootstrap
   snapshot or resume as a delta, then pump the commit stream.  Returns
   [true] when the handshake succeeded (resets the reconnect backoff). *)
let repl_tail t fd =
  let hello =
    Proto.render_request
      (Proto.Repl_hello { version = Proto.version; since = t.repl_pos })
  in
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
     | Some (Ok (dim, epoch, seq, snapshot)) ->
       if dim <> t.dim then begin
         Sink.count t.sink "moq_repl_dim_mismatch_total" 1;
         false
       end
       else begin
         let bootstrapped =
           with_lock t.lock (fun () ->
               match snapshot with
               | None -> true
               | Some image ->
                 (match IO.db_of_string image with
                  | Error _ -> false
                  | Ok db when DB.dim db <> t.dim -> false
                  | Ok db ->
                    snapshot_reset t db;
                    true))
         in
         if not bootstrapped then false
         else begin
           with_lock t.lock (fun () ->
               (* on a snapshot the image embodies state through [seq]; on a
                  delta our own position stands — the head seq in the reply
                  may be ahead of us, and the backlog replay covers the gap *)
               (match snapshot, t.repl_pos with
                | Some _, _ | None, None -> t.repl_pos <- Some (epoch, seq)
                | None, Some (_, s) ->
                  (* a delta is only granted within our epoch *)
                  t.repl_pos <- Some (epoch, s));
               t.repl_connected <- true;
               (* the handshake names the primary's head: seed the lag
                  gauges so a resume shows its backlog immediately *)
               note_lag t ~head:seq);
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
                | Ok (Proto.E_repl_update { seq = useq; dim = _; u }, attrs) ->
                  let arrival = Unix.gettimeofday () in
                  record_link t attrs ~arrival;
                  let trace = req_trace t attrs in
                  let contiguous, handoff =
                    with_lock t.lock @@ fun () ->
                    commit_traced t (fun () ->
                        let last =
                          match t.repl_pos with Some (_, s) -> s | None -> -1
                        in
                        let r =
                          if useq <= last then true (* resume replay overlap *)
                          else if useq = last + 1 then begin
                            (match Store.append t.store u with
                             | Ok () -> committed ?trace t u
                             | Error _ ->
                               (* the primary accepted it; refusing it here is
                                  itself a divergence signal *)
                               Sink.count t.sink "moq_repl_apply_errors_total" 1);
                            t.repl_pos <- Some (epoch, useq);
                            true
                          end
                          else begin
                            (* a hole in the commit stream: the link delivered
                               frames out of order (a scrambling network, not
                               the primary).  Applying past the hole would lose
                               an update forever; drop the session instead and
                               delta-resume from our last applied position *)
                            Sink.count t.sink "moq_repl_stream_gaps_total" 1;
                            Log.warn
                              ~fields:
                                [ ("expected", Json.Int (last + 1));
                                  ("got", Json.Int useq) ]
                              "replication stream gap; dropping session to resume";
                            false
                          end
                        in
                        (* the frame's watermark names the primary's head at
                           send time — the freshness reference *)
                        (match attrs.Proto.a_wm with
                         | Some (we, head) when we = epoch -> note_lag t ~head
                         | _ -> note_lag t ~head:useq);
                        r)
                  in
                  let t_done = Unix.gettimeofday () in
                  Sink.observe t.sink "moq_stage_follower_apply_ns"
                    ((t_done -. arrival) *. 1e9);
                  (match trace with
                   | Some c ->
                     let stop = Option.value handoff ~default:t_done in
                     ignore
                       (Trace.record ~ctx:(tctx c) t.tracer ~name:"apply"
                          ~start:arrival ~dur:(stop -. arrival) ())
                   | None -> ());
                  if contiguous then pump ()
                | Ok (Proto.E_repl_digest { clock; bytes; crc }, attrs) ->
                  with_lock t.lock (fun () ->
                      (match attrs.Proto.a_wm with
                       | Some (we, head) when we = epoch -> note_lag t ~head
                       | _ -> ());
                      (* the stream is ordered, so at the digest's clock our
                         state must serialize to the primary's exact bytes *)
                      if Q.compare (Store.clock t.store) clock = 0 then begin
                        Sink.count t.sink "moq_repl_digest_checks_total" 1;
                        let got_bytes, got_crc = Store.digest t.store in
                        if got_bytes <> bytes || Crc32.to_hex got_crc <> crc
                        then begin
                          t.repl_divergence <- t.repl_divergence + 1;
                          Sink.count t.sink "moq_repl_divergence_total" 1;
                          Log.error
                            ~fields:
                              [ ("clock", Json.Str (Q.to_string clock));
                                ("expected_bytes", Json.Int bytes);
                                ("got_bytes", Json.Int got_bytes) ]
                            "replica state diverges from primary digest";
                          (* the audit-violation analogue of a crash: the
                             evidence is the recent event history, so dump
                             it while it is still in the ring *)
                          record t "repl_divergence"
                            [ ("clock", Json.Str (Q.to_string clock)) ];
                          ignore (flight_dump t ~reason:"repl-divergence")
                        end
                      end);
                  pump ()
                | Ok (Proto.E_shutdown _, _) -> ()
                | Ok _ | Error _ -> pump ())
           in
           pump ();
           true
         end
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
  let store_r =
    if Sys.file_exists (Filename.concat cfg.store_dir "checkpoint.mod") then
      match Store.open_ ~fsync:cfg.fsync ~checkpoint_every:cfg.checkpoint_every ~sink
              ~dir:cfg.store_dir () with
      | Ok (store, _) -> Ok store
      | Error e -> Error e
    else
      match cfg.init_db with
      | Some db ->
        Ok (Store.init ~fsync:cfg.fsync ~checkpoint_every:cfg.checkpoint_every ~sink
              ~dir:cfg.store_dir db)
      | None -> Error (cfg.store_dir ^ ": no checkpoint and no initial database")
  in
  match store_r with
  | Error e -> Error e
  | Ok store ->
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
       let san = Sanitize.create ~sink () in
       let tracer =
         Trace.create ~capacity:1024
           ~host:(match cfg.follow with Some _ -> "follower" | None -> "primary")
           ()
       in
       let t =
         { cfg; reg; sink; store; san; tracer; dim = Store.dim store;
           recorder = Recorder.create ~capacity:cfg.flight_capacity ();
           acct_m = Mutex.create (); subacct = Hashtbl.create 64;
           lock = Mutex.create ();
           sessions = []; next_sid = 1; next_sub = 1; stopping = false;
           crashed = false; listen_fd; wake_r; wake_w; accept_thread = None;
           readers = []; epoch = fresh_epoch (); repl_seq = 0;
           repl_backlog_q = Queue.create (); repl_since_digest = 0;
           repl_pos = None; repl_connected = false; repl_divergence = 0;
           lag_target = 0; lag_anchor = 0.;
           repl_fd = None; repl_thread = None; handoff = None }
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
       Store.close store;
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
let db_snapshot t = with_lock t.lock (fun () -> Store.db t.store)
let clock t = with_lock t.lock (fun () -> Store.clock t.store)
let is_follower t = t.cfg.follow <> None
let repl_connected t = with_lock t.lock (fun () -> t.repl_connected)
let repl_position t = with_lock t.lock (fun () -> t.repl_pos)
let repl_divergence t = with_lock t.lock (fun () -> t.repl_divergence)
let repl_seq t = with_lock t.lock (fun () -> t.repl_seq)

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
