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
module Trace = Moq_obs.Trace
module Log = Moq_obs.Log
module Json = Moq_obs.Json
module Recorder = Moq_obs.Recorder
module Explain = Moq_core.Explain
module Sweep_cost = Moq_core.Sweep_cost
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
module CS = Moq_core.Curve_store
module TL = Mon.TL

type output =
  | Pieces of { owner : int; sub : int; first_seq : int; pieces : Proto.piece list }
  | Complete of { owner : int; sub : int }
  | Repl of { owner : int; msg : string; digest : bool }
  | Reset of int

let backlog_bound = 4096

(* What a subscription evaluates: a monitor streaming validated timeline
   pieces, or a continuous POI aggregation streaming finalized window
   rows.  Both ride the same EVENT sequence numbering. *)
type body = S_mon of Mon.t | S_agg of AggB.Cont.t

type sub = {
  id : int;
  owner : int;
  hi : Q.t;
  shard : int * int;
      (* home cell of the subscription's reference trajectory under the
         affinity grid: the routing key a shard-affine worker pool
         partitions subscriptions by *)
  body : body;
  mutable next_seq : int;
}

type t = {
  reg : Registry.t;
  sink : Sink.t;
  tracer : Trace.t;
  recorder : Recorder.t;
  fsync : bool;
  checkpoint_every : int;
  dir : string;
  digest_every : int;
  slow_query_ms : float;
  hot_objects : bool;
  dim : int;
  euclid : CS.t;  (* squared distance to [origin_gamma dim] *)
  speed : CS.t;  (* squared speed *)
  mutable store : Store.t;  (* replaced wholesale on a follower snapshot reset *)
  mutable san : Sanitize.t;
  mutable subs : sub list;  (* newest first *)
  mutable next_sub : int;
  (* Replication.  [epoch] names one incarnation of this server's update
     history; [seq] counts commits within it.  The backlog keeps the last
     [backlog_bound] commits for delta resumes. *)
  mutable epoch : int;
  mutable seq : int;
  backlog : (int * U.t) Queue.t;
  mutable since_digest : int;
  mutable followers : int list;  (* owners tailing us via REPL-HELLO, newest first *)
  (* Follower side: the last applied primary (epoch, seq), and for
     freshness the highest primary head seq seen on a watermark with the
     local time we first fell behind it.  Lag is never a cross-host clock
     comparison: [lag_anchor] is our own clock. *)
  mutable pos : (int * int) option;
  mutable lag_target : int;
  mutable lag_anchor : float;
  mutable divergence : int;
}

(* The reference trajectory for origin-relative distances must be alive
   before any queried interval; a very early start covers every sane use. *)
let origin_gamma dim = T.stationary ~start:(Q.of_int (-1_000_000_000)) (Qvec.zero dim)

let fresh_epoch () = int_of_float (Unix.gettimeofday () *. 1e6) land max_int

let create ~reg ~sink ~tracer ~recorder ~fsync ~checkpoint_every ~dir ~init_db
    ~digest_every ~slow_query_ms ~hot_objects =
  let store_r =
    if Sys.file_exists (Store.checkpoint_file dir) then
      Result.map fst (Store.open_ ~fsync ~checkpoint_every ~sink ~dir ())
    else
      match init_db with
      | Some db -> Ok (Store.init ~fsync ~checkpoint_every ~sink ~dir db)
      | None -> Error (dir ^ ": no checkpoint and no initial database")
  in
  Result.map
    (fun store ->
      let dim = Store.dim store in
      { reg; sink; tracer; recorder; fsync; checkpoint_every; dir; digest_every;
        slow_query_ms; hot_objects; dim;
        euclid = CS.create (Gdist.euclidean_sq ~gamma:(origin_gamma dim));
        speed = CS.create Gdist.speed_sq; store;
        san = Sanitize.create ~sink (); subs = []; next_sub = 1;
        epoch = fresh_epoch (); seq = 0; backlog = Queue.create (); since_digest = 0;
        followers = []; pos = None; lag_target = 0; lag_anchor = 0.; divergence = 0 })
    store_r

let record t kind fields = Recorder.record t.recorder ~kind ~fields ()

(* Time [f], observe the duration under [ns_metric], and, when a trace
   context is being propagated, record it as a depth-1 stage span.  The
   span starts at a wall-clock instant, like every span it tiles with;
   its duration comes from the monotonic clock. *)
let stage_obs t ?trace ~name ~ns_metric f =
  let start = Sink.wall () and t0 = Sink.monotonic () in
  let r = f () in
  let dt = Sink.monotonic () -. t0 in
  Sink.observe t.sink ns_metric (dt *. 1e9);
  (match trace with
   | Some (trace_id, span_id) ->
     ignore
       (Trace.record ~depth:1 ~ctx:{ Trace.trace_id; span_id } t.tracer ~name ~start
          ~dur:dt ())
   | None -> ());
  r

(* ---------------------------------------------------------------- *)
(* Timeline pieces -> wire                                           *)

(* Printing an instant finds its polynomial in [Algnum]'s text memo (a
   deferred crossing first forms its monic difference), and a timeline
   names each event instant up to three times in a row: as a span's end,
   as the [At] at it, and as the next span's start.  So remember the last
   instant printed and print each physically distinct one once per
   call. *)
let wire_pieces pieces =
  let last = ref None in
  let wire i =
    match !last with
    | Some (j, w) when j == i -> w
    | _ ->
      let w = B.instant_to_string i in
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

let wire_row (r : Agg.row) =
  Proto.P_agg
    { poi = r.Agg.r_poi; widx = r.Agg.r_widx; w_lo = Q.to_string r.Agg.r_lo;
      w_hi = Q.to_string r.Agg.r_hi; count = r.Agg.r_count;
      density = r.Agg.r_density; distinct = r.Agg.r_distinct }

(* ---------------------------------------------------------------- *)
(* Queries and subscriptions                                         *)

(* Every curve store of the core, one per g-distance it sweeps. *)
let curve_stores t = [ t.euclid; t.speed ]

let store_of_kind t = function
  | Proto.Sub_knn _ | Proto.Sub_range _ | Proto.Sub_gdist (Proto.Euclidean_sq, _) -> t.euclid
  | Proto.Sub_gdist (Proto.Speed_sq, _) -> t.speed
  | Proto.Sub_agg _ ->
    (* never monitored through a single g-distance: the subscribe path
       builds one monitor per POI inside Agg.Cont instead *)
    invalid_arg "agg subscriptions have no single g-distance"

let gdist_of_kind t kind = CS.gdist (store_of_kind t kind)

let query_of_kind kind ~lo ~hi =
  let interval = Fof.Interval.closed lo hi in
  match kind with
  | Proto.Sub_knn k -> if k = 1 then Fof.nearest_q ~interval else Fof.knn_q ~k ~interval
  | Proto.Sub_range b | Proto.Sub_gdist (_, b) -> Fof.within_q ~bound:b ~interval
  | Proto.Sub_agg _ -> invalid_arg "agg subscriptions have no single query"

(* Shard affinity.  Subscriptions and updates both hash to a cell of one
   coarse affinity grid; an update whose object moves in (or next to) a
   subscription's cell is shard-local to it.  Today this only drives the
   moq_server_shard_{local,remote}_updates_total counters: the measured
   case for a shard-affine worker pool, which would route each update to
   the worker owning its cell. *)
let affinity_cell = 256.0

let affinity_shard_of_pos pos =
  let x = Q.to_float (Qvec.get pos 0) in
  let y = if Qvec.dim pos >= 2 then Q.to_float (Qvec.get pos 1) else 0.0 in
  Moq_index.Grid.cell_of ~cell:affinity_cell (x, y)

(* The cell of the subscription's reference trajectory when the
   subscription starts.  Origin-relative subscriptions sit in the origin
   cell; speed-relative ones have no spatial anchor and share it. *)
let affinity_shard_of_sub t kind =
  match kind with
  | Proto.Sub_agg { pois; _ } ->
    (* anchored at the first POI; a multi-POI subscription has no single
       home cell, but the first is as good a routing key as any *)
    (match pois with
     | (x :: rest) :: _ ->
       let y = match rest with y :: _ -> y | [] -> Q.zero in
       Moq_index.Grid.cell_of ~cell:affinity_cell (Q.to_float x, Q.to_float y)
     | _ -> affinity_shard_of_pos (Qvec.zero t.dim))
  | Proto.Sub_knn _ | Proto.Sub_range _ | Proto.Sub_gdist _ ->
    affinity_shard_of_pos (Qvec.zero t.dim)

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

(* Emit wire pieces for [sub] with consecutive sequence numbers. *)
let push_wire t ~emit sub wire =
  if wire <> [] then begin
    let n = List.length wire in
    Sink.count t.sink "moq_server_pushed_events_total" n;
    emit (Pieces { owner = sub.owner; sub = sub.id; first_seq = sub.next_seq; pieces = wire });
    record t "sub_pieces" [ ("sub", Json.Int sub.id); ("n", Json.Int n) ];
    sub.next_seq <- sub.next_seq + n
  end

(* Push finalized aggregation rows, accounting the fanout per POI: each
   POI's row count lands in the flight recorder, the total in
   moq_agg_rows_pushed_total. *)
let push_agg_rows t ~emit sub (rows : Agg.row list) =
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
          [ ("sub", Json.Int sub.id); ("poi", Json.Int poi); ("n", Json.Int n) ])
      per_poi;
    push_wire t ~emit sub (List.map wire_row rows)
  end

(* Push freshly validated pieces (or finalized aggregation rows) of [sub];
   retire the subscription once its whole interval is valid. *)
let push_fresh t ~emit sub =
  (match sub.body with
   | S_mon mon -> push_wire t ~emit sub (wire_pieces (Mon.drain_valid mon))
   | S_agg agg -> push_agg_rows t ~emit sub (AggB.Cont.drain_rows agg));
  let clk =
    match sub.body with S_mon mon -> Mon.clock mon | S_agg agg -> AggB.Cont.clock agg
  in
  if Q.compare clk sub.hi >= 0 then begin
    (match sub.body with
     | S_mon _ -> ()
     | S_agg agg ->
       (* the per-POI monitors never close their trailing spans on their
          own; finalize them so the last windows' rows flush before the
          completion marker *)
       ignore (AggB.Cont.finalize agg);
       push_agg_rows t ~emit sub (AggB.Cont.drain_rows agg));
    Sink.count t.sink "moq_server_completed_subscriptions_total" 1;
    record t "sub_complete" [ ("sub", Json.Int sub.id) ];
    emit (Complete { owner = sub.owner; sub = sub.id });
    t.subs <- List.filter (fun s -> s.id <> sub.id) t.subs
  end

(* Apply one accepted update to every live subscription. *)
let fanout t ~emit u =
  let ushard = affinity_shard_of_update t u in
  List.iter
    (fun sub ->
      (match ushard with
       | Some c when shard_local c sub.shard ->
         Sink.count t.sink "moq_server_shard_local_updates_total" 1
       | Some _ | None -> Sink.count t.sink "moq_server_shard_remote_updates_total" 1);
      let t0 = Sink.monotonic () in
      (match
         match sub.body with
         | S_mon mon -> Mon.apply_update ~committed:(Store.db t.store) mon u
         | S_agg agg -> AggB.Cont.apply_update agg u
       with
       | Ok () -> ()
       | Error _ -> Sink.count t.sink "moq_server_fanout_errors_total" 1);
      let dt_ms = (Sink.monotonic () -. t0) *. 1e3 in
      Sink.observe t.sink "moq_stage_monitor_ns" (dt_ms *. 1e6);
      if t.slow_query_ms > 0. && dt_ms > t.slow_query_ms then begin
        Sink.count t.sink "moq_slowq_total" 1;
        Sink.count t.sink "moq_slowq_monitor_total" 1;
        let fields =
          [ ("source", Json.Str "monitor"); ("sub", Json.Int sub.id);
            ("ms", Json.Float dt_ms); ("oid", Json.Int (U.oid u)) ]
        in
        record t "slow_monitor_step" fields;
        Log.warn ~fields "slow monitor step"
      end;
      push_fresh t ~emit sub)
    t.subs

let repl_update t seq u =
  Proto.render_server_msg (Proto.E_repl_update { seq; dim = t.dim; u })

(* One update has been appended to the store.  Fan it out to the live
   subscriptions, remember it in the delta-resume backlog, and ship it,
   plus a periodic state digest, to tailing followers. *)
let committed t ?trace ~emit u =
  (* exactly one record per store append, in WAL order (quarantine
     graduates included): the invariant `moq blackbox` correlates on *)
  record t "update_admitted"
    [ ("oid", Json.Int (U.oid u)); ("tau", Json.Str (Q.to_string (U.time u))) ];
  stage_obs t ?trace ~name:"fanout" ~ns_metric:"moq_stage_fanout_ns" (fun () ->
      fanout t ~emit u);
  t.seq <- t.seq + 1;
  Queue.push (t.seq, u) t.backlog;
  if Queue.length t.backlog > backlog_bound then ignore (Queue.pop t.backlog);
  if t.followers <> [] then begin
    let msg = repl_update t t.seq u in
    Sink.count t.sink "moq_repl_streamed_updates_total" (List.length t.followers);
    List.iter (fun owner -> emit (Repl { owner; msg; digest = false })) t.followers;
    t.since_digest <- t.since_digest + 1;
    if t.digest_every > 0 && t.since_digest >= t.digest_every then begin
      t.since_digest <- 0;
      let bytes, crc = Store.digest t.store in
      let clock = Store.clock t.store in
      let msg =
        Proto.render_server_msg
          (Proto.E_repl_digest { clock; bytes; crc = Crc32.to_hex crc })
      in
      Sink.count t.sink "moq_repl_digests_total" 1;
      record t "repl_digest_sent" [ ("clock", Json.Str (Q.to_string clock)) ];
      List.iter (fun owner -> emit (Repl { owner; msg; digest = true })) t.followers
    end
  end

let wire_reason r = Format.asprintf "%a" Sanitize.pp_reason r

(* The primary's admission: sanitizer, then WAL, then fanout, for the
   update and every quarantined one its accept releases.  Only the update
   itself carries [trace]. *)
let ingest t ?trace ~emit u =
  let traced ~held = if held then None else trace in
  let hooks =
    { Store.stage =
        (fun ~held stage f ->
          let name, ns_metric =
            match stage with
            | `Sanitize -> ("sanitize", "moq_stage_sanitize_ns")
            | `Append -> ("append", "moq_stage_store_append_ns")
          in
          stage_obs t ?trace:(traced ~held) ~name ~ns_metric f);
      committed = (fun ~held u -> committed t ?trace:(traced ~held) ~emit u) }
  in
  match Store.ingest ~hooks t.store t.san u with
  | Sanitize.Accepted _ -> Proto.V_accepted
  | Sanitize.Rejected (r, _) ->
    record t "update_rejected"
      [ ("oid", Json.Int (U.oid u)); ("reason", Json.Str (wire_reason r)) ];
    Proto.V_rejected (wire_reason r)
  | Sanitize.Quarantined (r, _) ->
    record t "update_quarantined"
      [ ("oid", Json.Int (U.oid u)); ("reason", Json.Str (wire_reason r)) ];
    Proto.V_quarantined (wire_reason r)

let owned t owner = List.length (List.filter (fun s -> s.owner = owner) t.subs)

let subscribe t ~owner kind ~lo ~hi =
  let db = Store.db t.store in
  match
    match kind with
    | Proto.Sub_agg { d; window; pois } ->
      let pois = List.map Qvec.of_list pois in
      let agg = AggB.Cont.create ~sink:t.sink ~db ~pois ~d ~window ~lo ~hi () in
      Sink.count t.sink "moq_agg_subscriptions_total" 1;
      S_agg agg
    | _ ->
      let curves = store_of_kind t kind in
      let query = query_of_kind kind ~lo ~hi in
      S_mon
        (Mon.create ~sink:t.sink ~attr:t.hot_objects ~curves ~db ~gdist:(CS.gdist curves)
           ~query ())
  with
  | exception (Invalid_argument m | Failure m) -> Error m
  | body ->
    let id = t.next_sub in
    t.next_sub <- t.next_sub + 1;
    let shard = affinity_shard_of_sub t kind in
    t.subs <- { id; owner; hi; shard; body; next_seq = 0 } :: t.subs;
    Sink.count t.sink "moq_server_subscriptions_total" 1;
    (* distinct shards with a live subscription: the worker-pool size a
       shard-affine fanout would need right now *)
    Sink.set t.sink "moq_server_sub_shards"
      (float_of_int (List.length (List.sort_uniq compare (List.map (fun s -> s.shard) t.subs))));
    let si, sj = shard in
    record t "subscribe"
      [ ("sub", Json.Int id); ("session", Json.Int owner); ("shard_i", Json.Int si);
        ("shard_j", Json.Int sj) ];
    Ok id

let flush t ~emit id = List.iter (fun s -> if s.id = id then push_fresh t ~emit s) t.subs

let unsubscribe t ~owner id =
  match List.find_opt (fun s -> s.id = id && s.owner = owner) t.subs with
  | None -> None
  | Some sub ->
    t.subs <- List.filter (fun s -> s.id <> id) t.subs;
    Some
      (match sub.body with
       | S_mon mon -> wire_pieces (Mon.valid_timeline mon)
       | S_agg agg -> List.map wire_row (AggB.Cont.rows agg))

let retire t owner =
  t.subs <- List.filter (fun s -> s.owner <> owner) t.subs;
  t.followers <- List.filter (fun o -> o <> owner) t.followers

let n_subs t = List.length t.subs

(* Merge per-object sweep-cost attribution across every live subscription
   monitor and export the top-5 (plus their share of all attributed
   comparisons) as rank-indexed gauges. *)
let publish_hot t =
  List.filter_map
    (fun s -> match s.body with S_agg _ -> None | S_mon mon -> Some (Mon.hot_objects mon))
    t.subs
  |> Sweep_cost.merge_hot |> Sweep_cost.publish_hot t.sink

let query t db ~session kind ~lo ~hi =
  let cval name = Option.value ~default:0 (Registry.counter_value t.reg name) in
  let ev0 = cval "moq_sweep_events_total" in
  let cmp0 = cval "moq_sweep_comparisons_total" in
  let t0 = Sink.monotonic () in
  (* the explain report is only assembled when the run turns out slow.
     It has no filter block: Filtered's hit and miss counters are
     process-wide, shared with concurrent queries and the commit path *)
  let timeline, stats, hot, what =
    match kind with
    | Proto.Qk_knn k ->
      let r = Knn.run_store ~sink:t.sink ~store:t.euclid ~db ~k ~lo ~hi in
      (r.Knn.timeline, r.Knn.stats, Some r.Knn.hot, ("knn", Printf.sprintf "knn k=%d" k))
    | Proto.Qk_range b ->
      let r = Range.run_store ~store:t.euclid ~db ~bound:b ~lo ~hi in
      (r.Range.timeline, r.Range.stats, None, ("range", "range bound=" ^ Q.to_string b))
  in
  let dur_ms = (Sink.monotonic () -. t0) *. 1e3 in
  if t.slow_query_ms > 0. && dur_ms > t.slow_query_ms then begin
    Sink.count t.sink "moq_slowq_total" 1;
    Sink.count t.sink "moq_slowq_query_total" 1;
    (* counter deltas around the run stand in for a private registry:
       exact when this query ran alone, approximate under concurrency *)
    let counters =
      [ ("moq_sweep_events_total", float_of_int (cval "moq_sweep_events_total" - ev0));
        ("moq_sweep_comparisons_total",
         float_of_int (cval "moq_sweep_comparisons_total" - cmp0)) ]
    in
    let ex =
      Explain.make ~kind:(fst what) ~query:("server query " ^ snd what) ~backend:B.name
        ~n_objects:(List.length (DB.objects db)) ~lo:(Q.to_float lo) ~hi:(Q.to_float hi)
        ~timeline_pieces:(List.length timeline) ~sweep:(Explain.sweep_of stats) ?hot
        ~phases:[ { Explain.name = "run"; ns = dur_ms *. 1e6 } ]
        ~counters ()
    in
    let fields =
      [ ("source", Json.Str "query"); ("session", Json.Int session);
        ("ms", Json.Float dur_ms); ("explain", Explain.to_json ex) ]
    in
    record t "slow_query" fields;
    Log.warn ~fields "slow query"
  end;
  wire_pieces timeline

(* ---------------------------------------------------------------- *)
(* Replication                                                       *)

let follow t ~owner ~since =
  (* a delta resume is honest only within our own epoch and while the
     backlog still covers the follower's gap *)
  let delta_from =
    match since with
    | Some (e, s) when e = t.epoch && s <= t.seq ->
      if s = t.seq then Some s
      else (
        match Queue.peek_opt t.backlog with
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
  if not (List.mem owner t.followers) then t.followers <- owner :: t.followers;
  ( Proto.R_repl_hello
      { dim = t.dim; clock = Store.clock t.store; epoch = t.epoch; seq = t.seq; snapshot },
    delta_from )

let replay t ~emit ~owner ~after =
  Queue.iter
    (fun (q, u) -> if q > after then emit (Repl { owner; msg = repl_update t q u; digest = false }))
    t.backlog

(* Replace local state with the primary's shipped image.  Subscriptions
   were built over the old history and chained followers stream it, so
   every owner of either is reset: it re-subscribes, or re-handshakes and
   lands on a snapshot of our new epoch. *)
let reset t ~emit db =
  Store.close t.store;
  t.store <-
    Store.init ~fsync:t.fsync ~checkpoint_every:t.checkpoint_every ~sink:t.sink ~dir:t.dir db;
  t.san <- Sanitize.create ~sink:t.sink ();
  List.iter CS.clear (curve_stores t);
  t.epoch <- fresh_epoch ();
  t.seq <- 0;
  Queue.clear t.backlog;
  t.since_digest <- 0;
  Sink.count t.sink "moq_repl_resets_total" 1;
  Log.info ~fields:[ ("epoch", Json.Int t.epoch) ]
    "snapshot reset: state replaced from primary image";
  let owners = List.sort_uniq compare (t.followers @ List.map (fun s -> s.owner) t.subs) in
  t.subs <- [];
  t.followers <- [];
  List.iter (fun o -> emit (Reset o)) owners

(* Refresh the freshness gauges from a commit watermark: [head] is the
   primary's head seq as carried on the last repl frame.  Lag-in-updates
   is the watermark/applied delta; lag-in-ms is measured against the
   local instant we first fell behind, on the monotonic clock. *)
let note_lag t ~head =
  let applied = match t.pos with Some (_, s) -> s | None -> 0 in
  let now = Sink.monotonic () in
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

let bootstrap t ~emit ~epoch ~seq snapshot =
  let ok =
    match snapshot with
    | None -> true
    | Some image ->
      (match IO.db_of_string image with
       | Ok db when DB.dim db = t.dim ->
         reset t ~emit db;
         true
       | Ok _ | Error _ -> false)
  in
  if ok then begin
    (* on a snapshot the image embodies state through [seq]; on a delta
       our own position stands: the head seq in the reply may be ahead of
       us, and the backlog replay covers the gap *)
    (match snapshot, t.pos with
     | Some _, _ | None, None -> t.pos <- Some (epoch, seq)
     | None, Some (_, s) -> t.pos <- Some (epoch, s));
    (* the handshake names the primary's head: seed the lag gauges so a
       resume shows its backlog immediately *)
    note_lag t ~head:seq
  end;
  ok

let head_of ~epoch = function Some (we, head) when we = epoch -> Some head | _ -> None

let apply t ?trace ~emit ~epoch ~wm ~seq u =
  let last = match t.pos with Some (_, s) -> s | None -> -1 in
  let contiguous =
    if seq <= last then true (* resume replay overlap *)
    else if seq = last + 1 then begin
      (match Store.append t.store u with
       | Ok () -> committed t ?trace ~emit u
       | Error _ ->
         (* the primary accepted it; refusing it here is itself a
            divergence signal *)
         Sink.count t.sink "moq_repl_apply_errors_total" 1);
      t.pos <- Some (epoch, seq);
      true
    end
    else begin
      (* a hole in the commit stream: the link delivered frames out of
         order (a scrambling network, not the primary).  Applying past the
         hole would lose an update forever; the caller drops the session
         and delta-resumes from our last applied position *)
      Sink.count t.sink "moq_repl_stream_gaps_total" 1;
      Log.warn
        ~fields:[ ("expected", Json.Int (last + 1)); ("got", Json.Int seq) ]
        "replication stream gap; dropping session to resume";
      false
    end
  in
  (* the frame's watermark names the primary's head at send time: the
     freshness reference *)
  note_lag t ~head:(Option.value (head_of ~epoch wm) ~default:seq);
  contiguous

let digest_check t ~epoch ~wm ~clock ~bytes ~crc =
  Option.iter (fun head -> note_lag t ~head) (head_of ~epoch wm);
  (* the stream is ordered, so at the digest's clock our state must
     serialize to the primary's exact bytes *)
  Q.compare (Store.clock t.store) clock = 0
  && begin
    Sink.count t.sink "moq_repl_digest_checks_total" 1;
    let got_bytes, got_crc = Store.digest t.store in
    (got_bytes <> bytes || Crc32.to_hex got_crc <> crc)
    && begin
      t.divergence <- t.divergence + 1;
      Sink.count t.sink "moq_repl_divergence_total" 1;
      Log.error
        ~fields:
          [ ("clock", Json.Str (Q.to_string clock)); ("expected_bytes", Json.Int bytes);
            ("got_bytes", Json.Int got_bytes) ]
        "replica state diverges from primary digest";
      record t "repl_divergence" [ ("clock", Json.Str (Q.to_string clock)) ];
      true
    end
  end

(* ---------------------------------------------------------------- *)

let db t = Store.db t.store
let clock t = Store.clock t.store
let dim t = t.dim
let snapshot t = Store.snapshot t.store
let watermark t = (t.epoch, t.seq)
let seq t = t.seq
let position t = t.pos
let divergence t = t.divergence

let close t ~checkpoint =
  if checkpoint then Store.checkpoint_now t.store;
  Store.close t.store
