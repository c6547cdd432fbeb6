(* moq — command-line front end for the moving-object query engine.

     moq trace example12        replay the paper's Example 12 / Figure 3
     moq trace figure2          replay Figure 2's redirections
     moq knn ...                k-NN timeline on a random workload
     moq monitor ...            continuous query under a random update stream
     moq classify ...           past/continuing/future classification
     moq reduction ...          the Theorem 2 halting reduction
     moq replay ...             ingest an update stream into a durable store
     moq recover ...            rebuild a MOD from checkpoint + write-ahead log *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module BX = Moq_core.Backend.Exact
module EX = Moq_core.Engine.Make (BX)
module KnnX = Moq_core.Knn.Make (BX)
module MonX = Moq_core.Monitor.Make (BX)
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist
module Classify = Moq_core.Classify
module Gen = Moq_workload.Gen
module Scenario = Moq_workload.Scenario
module Turing = Moq_decide.Turing
module Reduction = Moq_decide.Reduction
module Store = Moq_durable.Store
module Sanitize = Moq_durable.Sanitize
module Wal = Moq_durable.Wal
module Registry = Moq_obs.Registry
module Sink = Moq_obs.Sink
module Export = Moq_obs.Export
module Trace = Moq_obs.Trace
module J = Moq_obs.Json
module Log = Moq_obs.Log
module Recorder = Moq_obs.Recorder
module Explain = Moq_core.Explain
module Sweep_cost = Moq_core.Sweep_cost
module Agg = Moq_agg.Agg
module AggX = Moq_agg.Agg.Make (BX)
module AlibiX = Moq_agg.Alibi.Make (BX)
module Ingest = Moq_ingest.Ingest

open Cmdliner

let q = Q.of_int

(* Parse and filesystem failures exit with a diagnostic, never a raw
   exception.  Mod_io's string errors look like "line N: msg"; rewrite them
   to the conventional "file:N: msg". *)
let die fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

let die_parse path e =
  let file_line =
    if String.length e > 5 && String.sub e 0 5 = "line " then begin
      match String.index_opt e ':' with
      | Some i -> Some (String.sub e 5 (i - 5), String.sub e (i + 1) (String.length e - i - 1))
      | None -> None
    end
    else None
  in
  match file_line with
  | Some (line, msg) -> die "%s:%s:%s" path line msg
  | None -> die "%s: %s" path e

let setup_logging level json =
  (match Log.level_of_string level with
   | Ok l -> Log.set_level l
   | Error e -> die "%s" e);
  Log.set_json json

let trace_example12 () =
  let o1, o2, o3, o4 = Scenario.example12_curves () in
  let eng =
    EX.create ~start:(q 0) ~horizon:(q 40)
      [ (EX.Obj (1, 0), o1); (EX.Obj (2, 0), o2); (EX.Obj (3, 0), o3); (EX.Obj (4, 0), o4) ]
  in
  let order () =
    String.concat " < "
      (List.map (fun e -> Format.asprintf "%a" EX.pp_label (EX.label e)) (EX.order eng))
  in
  Format.printf "Example 12 (2-NN over [0,40]); initial order: %s@." (order ());
  let emit = function
    | EX.Point i -> Format.printf "  event at t = %a; order: %s@." BX.pp_instant i (order ())
    | EX.Span _ -> ()
  in
  EX.advance eng ~upto:(q 20) ~emit;
  Format.printf "  update chdir(o1) at t = 20@.";
  EX.replace_curve eng ~at:(q 20) (EX.Obj (1, 0)) (Scenario.example12_o1_after_chdir o1);
  EX.advance eng ~upto:(q 40) ~emit;
  Format.printf "done; %d crossings processed@." (EX.stats eng).EX.crossings

let trace_figure2 () =
  let c1, c2 = Scenario.figure2_curves () in
  let eng = EX.create ~start:(q 0) ~horizon:(q 20) [ (EX.Obj (1, 0), c1); (EX.Obj (2, 0), c2) ] in
  let emit = function
    | EX.Point i -> Format.printf "  crossing at t = %a@." BX.pp_instant i
    | EX.Span _ -> ()
  in
  Format.printf "Figure 2: o2 closer, crossing expected at D = 8@.";
  EX.advance eng ~upto:(q 3) ~emit;
  EX.replace_curve eng ~at:(q 3) (EX.Obj (1, 0)) (Scenario.figure2_o1_after_a c1);
  Format.printf "  chdir(o1) at A = 3 (crossing cancelled)@.";
  EX.advance eng ~upto:(q 5) ~emit;
  EX.replace_curve eng ~at:(q 5) (EX.Obj (2, 0)) (Scenario.figure2_o2_after_b c2);
  Format.printf "  chdir(o2) at B = 5 (earlier crossing C expected)@.";
  EX.advance eng ~upto:(q 20) ~emit

let seed_arg = Common_args.seed
let n_arg = Common_args.n
let db_arg = Common_args.db

let load_or_gen dbfile seed n =
  match dbfile with
  | Some path ->
    (match Moq_mod.Mod_io.load_db path with
     | Ok db -> db
     | Error e -> die_parse path e)
  | None -> Gen.uniform_db ~seed ~n ~extent:100 ~speed:6 ()

let load_updates path =
  match Moq_mod.Mod_io.load_updates path with
  | Ok us -> us
  | Error e -> die_parse path e

(* Trace a monitored workload: one span per phase, one per update (annotated
   with the update itself), emitted as an indented span log or JSON. *)
let trace_workload seed n count gap dbfile updates_file as_json =
  let tr = Trace.create () in
  let db = Trace.with_span tr "load-db" (fun () -> load_or_gen dbfile seed n) in
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let hi = q (count * gap + 20) in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) hi) in
  let m =
    Trace.with_span tr "monitor-init" (fun () -> MonX.create ~db ~gdist ~query ())
  in
  let updates =
    match updates_file with
    | Some path -> load_updates path
    | None -> Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q 0) ~gap:(q gap) ~count ()
  in
  Trace.with_span tr "apply-updates" (fun () ->
      List.iter
        (fun u ->
          let sp = Trace.begin_span tr "update" in
          Trace.annotate sp (Format.asprintf "%a" Moq_mod.Update.pp u);
          (match MonX.apply_update m u with
           | Ok () -> ()
           | Error e -> Trace.annotate sp (Format.asprintf "rejected: %a" DB.pp_error e));
          Trace.end_span tr sp)
        updates);
  ignore (Trace.with_span tr "finalize" (fun () -> MonX.finalize m));
  if as_json then print_endline (Moq_obs.Json.to_string (Trace.to_json tr))
  else Format.printf "%a@." Trace.pp tr

(* moq trace pipeline: in-process primary → chaos proxy → follower →
   subscribed client.  One traced UPDATE flows the whole way; the spans it
   left in all four tracers (primary, follower, and the client's two
   connections) are stitched into one causal trace, and the depth-0 stage
   spans — which tile the interval from client send to client delivery —
   are summed and checked against the measured end-to-end latency. *)
let trace_pipeline as_json =
  let module Server = Moq_server.Server in
  let module Client = Moq_server.Client in
  let module Chaos = Moq_chaos.Chaos in
  let module Proto = Moq_proto.Proto in
  let module Sink = Moq_obs.Sink in
  let module Registry = Moq_obs.Registry in
  let fresh_dir tag =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "moq-pipeline-%s-%d" tag (Unix.getpid ()))
    in
    let rec rm p =
      if Sys.file_exists p then
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
    in
    rm d;
    Unix.mkdir d 0o755;
    d
  in
  let loop = "127.0.0.1" in
  let srv_cfg ~dir ~init_db ~follow =
    { (Server.default_config ~listen:(Server.Tcp (loop, 0)) ~store_dir:dir) with
      Server.init_db; fsync = false; follow; trace = true }
  in
  let db = Gen.uniform_db ~seed:42 ~n:4 ~extent:100 ~speed:6 () in
  let pdir = fresh_dir "primary" and fdir = fresh_dir "follower" in
  let primary =
    match Server.start (srv_cfg ~dir:pdir ~init_db:(Some db) ~follow:None) with
    | Ok s -> s
    | Error e -> die "primary: %s" e
  in
  let pport =
    match Server.bound_addr primary with Server.Tcp (_, p) -> p | _ -> die "no port"
  in
  (* the replication link runs through a (quiet) chaos proxy: the stitched
     trace crosses the same path the chaos tests exercise *)
  let proxy =
    Chaos.start ~profile:Chaos.quiet ~seed:7
      ~upstream:(Unix.ADDR_INET (Unix.inet_addr_loopback, pport)) ()
  in
  let follower =
    match
      Server.start
        (srv_cfg ~dir:fdir
           ~init_db:(Some (DB.empty ~dim:2 ~tau:(q 0)))
           ~follow:(Some (Server.Tcp (loop, Chaos.port proxy))))
    with
    | Ok s -> s
    | Error e -> die "follower: %s" e
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Server.repl_connected follower)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if not (Server.repl_connected follower) then die "follower never connected";
  let creg = Registry.create () in
  let csink = Sink.of_registry creg in
  let ctr = Trace.create ~host:"client" () in
  let conn addr =
    match Client.connect ~timeout:10. ~sink:csink ~tracer:ctr addr with
    | Ok c -> c
    | Error e -> die "connect: %s" (Client.error_to_string e)
  in
  let c_up = conn (Server.bound_addr primary) in
  let c_sub = conn (Server.bound_addr follower) in
  (match (Client.hello c_up, Client.hello c_sub) with
   | Ok _, Ok _ -> ()
   | _ -> die "handshake failed");
  (match
     Client.request c_sub
       (Proto.Subscribe { kind = Proto.Sub_knn 1; lo = q 0; hi = q 100 })
   with
   | Ok (Proto.R_subscribe _) -> ()
   | Ok m -> die "subscribe: %s" (Proto.render_server_msg m)
   | Error e -> die "subscribe: %s" (Client.error_to_string e));
  let updates =
    Gen.mixed_stream ~seed:1 ~db ~start:(q 1) ~gap:(q 5) ~count:3 ()
  in
  let warm, traced =
    match List.rev updates with
    | last :: rev_warm -> (List.rev rev_warm, last)
    | [] -> die "empty update stream"
  in
  List.iter
    (fun u ->
      match Client.request c_up (Proto.Update u) with
      | Ok (Proto.R_update _) -> ()
      | Ok m -> die "update: %s" (Proto.render_server_msg m)
      | Error e -> die "update: %s" (Client.error_to_string e))
    warm;
  let ctx = Trace.new_ctx () in
  let t0 = Unix.gettimeofday () in
  (match
     Client.request_attrs c_up
       { Proto.no_attrs with Proto.a_trace = Some (ctx.Trace.trace_id, ctx.Trace.span_id) }
       (Proto.Update traced)
   with
   | Ok (Proto.R_update Proto.V_accepted) -> ()
   | Ok m -> die "traced update not accepted: %s" (Proto.render_server_msg m)
   | Error e -> die "traced update: %s" (Client.error_to_string e));
  (* wait for an event caused by the traced update to reach the client
     through the follower *)
  let rec await deadline =
    if Unix.gettimeofday () > deadline then die "no traced event within 10s"
    else
      match Client.next_event_full ~timeout:0.5 c_sub with
      | Some (_, attrs, _) ->
        (match attrs.Proto.a_trace with
         | Some (tid, _) when tid = ctx.Trace.trace_id -> Unix.gettimeofday ()
         | _ -> await deadline)
      | None -> await deadline
  in
  let t1 = await (t0 +. 10.) in
  let e2e = t1 -. t0 in
  Thread.delay 0.05;  (* let the follower's queue/write spans land *)
  let all_spans =
    List.concat_map Trace.spans
      [ Server.tracer primary; Server.tracer follower; ctr ]
    |> List.filter (fun s ->
        match Trace.span_ctx s with
        | Some c -> c.Trace.trace_id = ctx.Trace.trace_id
        | None -> false)
    |> List.sort (fun a b -> Float.compare (Trace.span_start a) (Trace.span_start b))
  in
  let stage_sum =
    List.fold_left
      (fun acc s -> if Trace.span_depth s = 0 then acc +. Trace.duration s else acc)
      0. all_spans
  in
  let covered = if e2e > 0. then 100. *. stage_sum /. e2e else 0. in
  let ok = Float.abs (stage_sum -. e2e) <= Float.max (0.1 *. e2e) 0.002 in
  if as_json then
    print_endline
      (Moq_obs.Json.to_string
         (Moq_obs.Json.Obj
            [ ("trace", Moq_obs.Json.Str (Trace.ctx_to_string ctx));
              ("e2e_ms", Moq_obs.Json.Float (1e3 *. e2e));
              ("stage_sum_ms", Moq_obs.Json.Float (1e3 *. stage_sum));
              ("covered_pct", Moq_obs.Json.Float covered);
              ("within_tolerance", Moq_obs.Json.Bool ok);
              ("spans",
               Moq_obs.Json.List
                 (List.map
                    (fun s ->
                      Moq_obs.Json.Obj
                        [ ("host", Moq_obs.Json.Str (Trace.span_host s));
                          ("name", Moq_obs.Json.Str (Trace.span_name s));
                          ("depth", Moq_obs.Json.Int (Trace.span_depth s));
                          ("start_ms", Moq_obs.Json.Float (1e3 *. (Trace.span_start s -. t0)));
                          ("dur_ms", Moq_obs.Json.Float (1e3 *. Trace.duration s)) ])
                    all_spans)) ]))
  else begin
    Format.printf "one UPDATE, client → primary → follower → client (trace %s):@."
      (Trace.ctx_to_string ctx);
    List.iter
      (fun s ->
        Format.printf "  [%+8.3f ms] %*s%-10s %-9s %8.3f ms@."
          (1e3 *. (Trace.span_start s -. t0))
          (2 * Trace.span_depth s) "" (Trace.span_name s) (Trace.span_host s)
          (1e3 *. Trace.duration s))
      all_spans;
    Format.printf "stage sum %.3f ms vs end-to-end %.3f ms (%.1f%% covered) — %s@."
      (1e3 *. stage_sum) (1e3 *. e2e) covered
      (if ok then "within tolerance" else "OUT OF TOLERANCE")
  end;
  ignore (Client.request c_up Proto.Bye);
  ignore (Client.request c_sub Proto.Bye);
  Client.close c_up;
  Client.close c_sub;
  Server.stop follower;
  Chaos.stop proxy;
  Server.stop primary;
  if not ok then exit 3

let trace_cmd =
  let scenario =
    Arg.(required
         & pos 0
             (some (enum
                [ ("example12", `Example12); ("figure2", `Figure2);
                  ("workload", `Workload); ("pipeline", `Pipeline) ]))
             None
         & info [] ~docv:"SCENARIO"
             ~doc:"example12, figure2, workload (monitored update stream with \
                   span tracing), or pipeline (one traced update through \
                   primary → follower → client, stitched cross-process)")
  in
  let updates = Common_args.updates_file in
  let count = Common_args.count ~default:10 () in
  let gap = Common_args.gap in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the span log as JSON") in
  let run scenario seed n count gap dbfile updates json =
    match scenario with
    | `Example12 -> trace_example12 ()
    | `Figure2 -> trace_figure2 ()
    | `Workload -> trace_workload seed n count gap dbfile updates json
    | `Pipeline -> trace_pipeline json
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay a scenario from the paper, or a workload with span tracing")
    Term.(const run $ scenario $ seed_arg $ n_arg $ count $ gap $ db_arg $ updates $ json)

let generate_run seed n count gap out updates_out =
  let db = Gen.uniform_db ~seed ~n ~extent:100 ~speed:6 () in
  Moq_mod.Mod_io.save_db db out;
  Format.printf "wrote %d objects to %s@." n out;
  match updates_out with
  | Some path ->
    let us = Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q 0) ~gap:(q gap) ~count () in
    Moq_mod.Mod_io.save_updates ~dim:(DB.dim db) us path;
    Format.printf "wrote %d updates to %s@." (List.length us) path
  | None -> ()

let generate_cmd =
  let count = Common_args.count ~extra_names:[ "updates" ] ~default:10 () in
  let gap = Common_args.gap in
  let out = Arg.(value & opt string "workload.mod" & info [ "o"; "out" ] ~doc:"Output MOD file") in
  let uout = Arg.(value & opt (some string) None & info [ "updates-out" ] ~doc:"Also write an update stream") in
  Cmd.v (Cmd.info "generate" ~doc:"Generate and save a random workload")
    Term.(const generate_run $ seed_arg $ n_arg $ count $ gap $ out $ uout)

let show_run path =
  match Moq_mod.Mod_io.load_db path with
  | Ok db -> Format.printf "%a@." DB.pp db
  | Error e -> die_parse path e

let show_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "show" ~doc:"Pretty-print a saved MOD") Term.(const show_run $ path)

(* Backend selection: one table.  [m] is the numeric backend the sweep,
   monitor and k-NN functors run on; [sharded] runs k-NN on the spatially
   sharded, index-pruned driver; [filtered] says Filtered's hit and miss
   counters describe the run. *)
module BFl = Moq_core.Backend.Filtered

type backend = {
  id : string;
  m : (module Moq_core.Backend.S);
  sharded : bool;
  filtered : bool;
}

let backends =
  [ { id = "exact"; m = (module BX); sharded = false; filtered = false };
    { id = "filtered"; m = (module BFl); sharded = false; filtered = true };
    { id = "approx"; m = (module Moq_core.Backend.Approx); sharded = false;
      filtered = false };
    { id = "sharded-filtered"; m = (module BFl); sharded = true;
      filtered = true } ]

let exact_backend = List.hd backends

let backend_arg =
  Arg.(value
       & opt (enum (List.map (fun b -> (b.id, b)) backends)) exact_backend
       & info [ "backend" ]
           ~doc:"Numeric backend: $(b,exact) (rational/algebraic), $(b,filtered) \
                 (float-interval fast path with exact fallback, same answers as exact), \
                 $(b,approx) (plain floats), or $(b,sharded-filtered) \
                 (filtered arithmetic under the spatially sharded, \
                 index-pruned sweep driver — same answers as exact)")

(* One k-NN run to the origin, whichever driver swept it. *)
type knn_out = {
  pp_timeline : Format.formatter -> unit;
  pieces : int;
  cost : Sweep_cost.stats;
  hot : Sweep_cost.hot list;
  shards : Explain.shards option;  (* sharded runs only *)
}

module Pipeline (B : Moq_core.Backend.S) = struct
  module K = Moq_core.Knn.Make (B)
  module Sh = Moq_core.Shard.Make (B)
  module Sw = Moq_core.Sweep.Make (B)
  module Mon = Moq_core.Monitor.Make (B)

  let knn ~sink ~sharded ~db ~gamma ~k ~lo ~hi =
    if sharded then
      let r = Sh.run_obs ~sink ~db ~gamma ~k ~lo ~hi () in
      { pp_timeline = (fun ppf -> Sh.TL.pp ppf r.Sh.timeline);
        pieces = List.length r.Sh.timeline; cost = r.Sh.stats; hot = r.Sh.hot;
        shards = Some (Sh.shards_block r.Sh.shard) }
    else
      let gdist = Gdist.euclidean_sq ~gamma in
      let r = K.run_obs ~sink ~db ~gdist ~k ~lo ~hi in
      { pp_timeline = (fun ppf -> K.TL.pp ppf r.K.timeline);
        pieces = List.length r.K.timeline; cost = r.K.stats; hot = r.K.hot;
        shards = None }
end

let knn_run seed n k hi dbfile backend =
  let db = load_or_gen dbfile seed n in
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  BFl.reset_filter_stats ();
  let module B = (val backend.m) in
  let module P = Pipeline (B) in
  let r =
    P.knn ~sink:Sink.noop ~sharded:backend.sharded ~db ~gamma ~k ~lo:(q 0)
      ~hi:(q hi)
  in
  Format.printf "%d-NN to the origin over [0, %d] (%d objects):@.%t@." k hi
    (DB.cardinal db) r.pp_timeline;
  Format.printf "%d support changes@." r.cost.crossings;
  Option.iter
    (fun (s : Explain.shards) ->
      Format.printf "shards: %d/%d touched, %d admitted, %d pruned@."
        s.s_touched s.s_total s.s_admitted s.s_pruned)
    r.shards;
  if backend.filtered then begin
    let s = BFl.filter_stats () in
    Format.printf "filter: %d hits, %d misses (%.1f%% hit rate)@." s.BFl.hits s.BFl.misses
      (100.0 *. float_of_int s.BFl.hits /. float_of_int (max 1 s.BFl.decisions))
  end

let knn_cmd =
  let k = Arg.(value & opt int 1 & info [ "k"; "neighbours" ] ~doc:"Number of neighbours") in
  let hi = Arg.(value & opt int 50 & info [ "horizon" ] ~doc:"Interval end") in
  Cmd.v (Cmd.info "knn" ~doc:"k-nearest-neighbour timeline on a random workload")
    Term.(const knn_run $ seed_arg $ n_arg $ k $ hi $ db_arg $ backend_arg)

let monitor_run seed n count gap dbfile =
  let db = load_or_gen dbfile seed n in
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let hi = q (count * gap + 20) in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) hi) in
  let m = MonX.create ~db ~gdist ~query () in
  let updates = Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q 0) ~gap:(q gap) ~count () in
  List.iter
    (fun u ->
      MonX.apply_update_exn m u;
      Format.printf "applied %a@." Moq_mod.Update.pp u)
    updates;
  Format.printf "@.validated timeline:@.%a@." MonX.TL.pp (MonX.finalize m)

let monitor_cmd =
  let count = Common_args.count ~extra_names:[ "updates" ] ~default:5 () in
  let gap = Common_args.gap in
  Cmd.v (Cmd.info "monitor" ~doc:"Monitor a continuing 1-NN query under random updates")
    Term.(const monitor_run $ seed_arg $ n_arg $ count $ gap $ db_arg)

let classify_run lo hi tau =
  let db = DB.empty ~dim:2 ~tau:(q tau) in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q lo) (q hi)) in
  Format.printf "interval [%d, %d], last update %d: %a@." lo hi tau Classify.pp
    (Classify.classify db query)

let classify_cmd =
  let lo = Arg.(value & opt int 0 & info [ "lo" ] ~doc:"Interval start") in
  let hi = Arg.(value & opt int 10 & info [ "hi" ] ~doc:"Interval end") in
  let tau = Arg.(value & opt int 5 & info [ "tau" ] ~doc:"MOD last-update time") in
  Cmd.v (Cmd.info "classify" ~doc:"Past/continuing/future classification of an FO(f) query")
    Term.(const classify_run $ lo $ hi $ tau)

let reduction_run machine steps =
  let m = match machine with `Bb3 -> Turing.busy_beaver_3 () | `Loop -> Turing.loop_forever () in
  Format.printf "machine %s, bound %d: query still past? %b@."
    (match machine with `Bb3 -> "busy-beaver-3" | `Loop -> "loop-forever")
    steps
    (Reduction.is_past_up_to m ~max_steps:steps)

let reduction_cmd =
  let machine =
    Arg.(value & opt (enum [ ("bb3", `Bb3); ("loop", `Loop) ]) `Bb3
         & info [ "machine" ] ~doc:"bb3 or loop")
  in
  let steps = Arg.(value & opt int 100 & info [ "steps" ] ~doc:"Step bound") in
  Cmd.v (Cmd.info "reduction" ~doc:"Theorem 2: halting reduction demo")
    Term.(const reduction_run $ machine $ steps)

(* ------------------------------------------------------------------ *)
(* moq agg / alibi / ingest: the workload subsystem                    *)
(* ------------------------------------------------------------------ *)

let rat_of_string_arg what s =
  try Q.of_string s with _ -> die "%s: not a rational: %s" what s

(* "--poi x,y" values; when none are given, [npois] points are spread on
   the diagonal of the default [0,100] extent — deterministic without any
   dependence on the workload seed. *)
let resolve_pois poi_strs npois =
  match poi_strs with
  | _ :: _ ->
    List.map
      (fun s ->
        match String.split_on_char ',' s with
        | [ x; y ] ->
          Qvec.of_list [ rat_of_string_arg "poi" x; rat_of_string_arg "poi" y ]
        | _ -> die "poi: expected x,y (got %s)" s)
      poi_strs
  | [] ->
    if npois < 1 then die "agg: need at least one POI";
    List.init npois (fun i ->
        let c = Q.div (q ((i + 1) * 100)) (q (npois + 1)) in
        Qvec.of_list [ c; c ])

let row_json (r : Agg.row) =
  J.Obj
    [ ("poi", J.Int r.Agg.r_poi);
      ("window", J.Int r.Agg.r_widx);
      ("lo", J.Str (Q.to_string r.Agg.r_lo));
      ("hi", J.Str (Q.to_string r.Agg.r_hi));
      ("count", J.Int r.Agg.r_count);
      ("density", J.Float r.Agg.r_density);
      ("distinct", J.Int r.Agg.r_distinct);
    ]

let agg_run seed n count gap dbfile poi_strs npois d window lo hi check_rescan
    as_json =
  if hi <= lo then die "agg: need lo < hi (got [%d, %d])" lo hi;
  let db = load_or_gen dbfile seed n in
  let pois = resolve_pois poi_strs npois in
  let d = rat_of_string_arg "d" d in
  let window = rat_of_string_arg "window" window in
  let cont =
    try
      AggX.Cont.create ~db ~pois ~d ~window ~lo:(q lo) ~hi:(q hi) ()
    with Invalid_argument m -> die "agg: %s" m
  in
  let updates =
    Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q lo) ~gap:(q gap) ~count ()
  in
  List.iter
    (fun u ->
      match AggX.Cont.apply_update cont u with
      | Ok () -> ()
      | Error e -> die "agg: update rejected: %a" DB.pp_error e)
    updates;
  let rows = AggX.Cont.finalize cont in
  let identical =
    if not check_rescan then None
    else begin
      let ground =
        let db' = DB.apply_all_exn db updates in
        AggX.rescan ~db:db' ~pois ~d ~window ~lo:(q lo) ~hi:(q hi) ()
      in
      Some (AggX.equal_rows rows ground)
    end
  in
  let s = AggX.Cont.stats cont in
  if as_json then begin
    let doc =
      J.Obj
        ([ ("rows", J.List (List.map row_json rows));
           ("pois", J.Int s.Agg.pois);
           ("windows", J.Int s.Agg.windows);
           ("watch_admitted", J.Int s.Agg.admitted);
           ("watch_pruned", J.Int s.Agg.pruned);
           ("updates", J.Int s.Agg.updates);
           ("forwarded", J.Int s.Agg.forwarded);
         ]
         @ match identical with
           | None -> []
           | Some ok -> [ ("rescan_identical", J.Bool ok) ])
    in
    print_endline (J.to_string doc)
  end
  else begin
    List.iter (fun r -> Format.printf "%a@." Agg.pp_row r) rows;
    Format.printf
      "%d POI(s) x %d window(s): %d row(s); watch %d admitted / %d pruned; \
       %d update(s), %d forwarded@."
      s.Agg.pois s.Agg.windows s.Agg.rows s.Agg.admitted s.Agg.pruned
      s.Agg.updates s.Agg.forwarded;
    match identical with
    | None -> ()
    | Some true -> Format.printf "rescan cross-check: bit-identical@."
    | Some false -> die "agg: incremental rows differ from the rescan baseline"
  end;
  match identical with Some false -> exit 1 | _ -> ()

let agg_cmd =
  let count = Common_args.count ~default:10 () in
  let poi =
    Arg.(value & opt_all string []
         & info [ "poi" ] ~docv:"X,Y"
             ~doc:"A place of interest (repeatable); exact rationals or decimals")
  in
  let npois =
    Arg.(value & opt int 2
         & info [ "pois" ]
             ~doc:"Number of POIs to place on the extent diagonal when no \
                   $(b,--poi) is given")
  in
  let d =
    Arg.(value & opt string "25"
         & info [ "dist" ] ~docv:"DIST"
             ~doc:"POI radius: objects within distance DIST count as present")
  in
  let window =
    Arg.(value & opt string "10"
         & info [ "window" ] ~docv:"W" ~doc:"Tumbling window length")
  in
  let lo = Arg.(value & opt int 0 & info [ "lo" ] ~doc:"Aggregation start") in
  let hi = Arg.(value & opt int 40 & info [ "hi" ] ~doc:"Aggregation end") in
  let check =
    Arg.(value & flag
         & info [ "check-rescan" ]
             ~doc:"Recompute every window by a full per-window sweep and \
                   require bit-identical rows")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit rows and stats as JSON") in
  Cmd.v
    (Cmd.info "agg"
       ~doc:"Continuous per-POI aggregation: count, time-weighted density and \
             distinct visitors per tumbling window, maintained incrementally \
             from the update stream")
    Term.(const agg_run $ seed_arg $ n_arg $ count $ Common_args.gap $ db_arg
          $ poi $ npois $ d $ window $ lo $ hi $ check $ json)

let alibi_run seed n dbfile oid1 oid2 d lo hi as_json =
  let db = load_or_gen dbfile seed n in
  let find oid =
    match DB.find db oid with
    | Some tr -> tr
    | None -> die "alibi: no object %d in the MOD" oid
  in
  let o1 = find oid1 and o2 = find oid2 in
  let d = rat_of_string_arg "d" d in
  let verdict = AlibiX.decide ~o1 ~o2 ~d ~lo:(q lo) ~hi:(q hi) in
  if as_json then
    print_endline
      (J.to_string
         (J.Obj
            (( "verdict",
               J.Str (match verdict with
                 | AlibiX.No_meet -> "no_meet"
                 | AlibiX.Meet _ -> "meet") )
             :: (match verdict with
                 | AlibiX.No_meet -> []
                 | AlibiX.Meet w ->
                   [ ("witness", J.Str (Format.asprintf "%a" BX.pp_instant w)) ]))))
  else begin
    match verdict with
    | AlibiX.No_meet ->
      Format.printf
        "alibi holds: objects %d and %d could not have been within %a of \
         each other during [%d, %d]@."
        oid1 oid2 Q.pp d lo hi
    | AlibiX.Meet w ->
      Format.printf
        "no alibi: objects %d and %d are within %a at t = %a (earliest \
         such instant in [%d, %d])@."
        oid1 oid2 Q.pp d BX.pp_instant w lo hi
  end

let alibi_cmd =
  let o1 = Arg.(value & opt int 1 & info [ "o1" ] ~doc:"First object id") in
  let o2 = Arg.(value & opt int 2 & info [ "o2" ] ~doc:"Second object id") in
  let d =
    Arg.(value & opt string "5"
         & info [ "dist" ] ~docv:"DIST"
             ~doc:"Meeting distance; exact rational or decimal")
  in
  let lo = Arg.(value & opt int 0 & info [ "lo" ] ~doc:"Window start") in
  let hi = Arg.(value & opt int 40 & info [ "hi" ] ~doc:"Window end") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the verdict as JSON") in
  Cmd.v
    (Cmd.info "alibi"
       ~doc:"The alibi query: decide exactly whether two objects could have \
             been within distance DIST of each other during [lo, hi], with \
             the earliest possible meeting instant as witness")
    Term.(const alibi_run $ seed_arg $ n_arg $ db_arg $ o1 $ o2 $ d $ lo $ hi
          $ json)

let ingest_run csv dim quant terminate out as_json =
  let quant = rat_of_string_arg "quant" quant in
  match Ingest.csv_to_updates ~dim ~quant ~terminate (Moq_mod.Mod_io.read_file csv) with
  | Error e -> die_parse csv e
  | Ok (updates, s) ->
    let stats_line oc =
      Printf.fprintf oc
        "ingested %d sample(s) of %d object(s): %d update(s), %d moving + %d \
         stationary segment(s)\n"
        s.Ingest.samples s.Ingest.objects s.Ingest.updates
        s.Ingest.moving_segments s.Ingest.stationary_segments
    in
    (match out with
     | Some path ->
       Moq_mod.Mod_io.save_updates ~dim updates path;
       if as_json then () else stats_line stdout
     | None ->
       (* update lines to stdout (pipe-friendly), summary to stderr *)
       if not as_json then begin
         List.iter
           (fun u -> print_endline (Moq_mod.Mod_io.update_to_line u))
           updates;
         stats_line stderr
       end);
    if as_json then
      print_endline
        (J.to_string
           (J.Obj
              [ ("samples", J.Int s.Ingest.samples);
                ("objects", J.Int s.Ingest.objects);
                ("updates", J.Int s.Ingest.updates);
                ("moving_segments", J.Int s.Ingest.moving_segments);
                ("stationary_segments", J.Int s.Ingest.stationary_segments);
              ]))

let ingest_cmd =
  let csv =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"CSV" ~doc:"Trace file: oid,t,x,y rows")
  in
  let dim = Arg.(value & opt int 2 & info [ "dim" ] ~doc:"Coordinate dimension") in
  let quant =
    Arg.(value & opt string "1/10"
         & info [ "quant" ] ~docv:"Q"
             ~doc:"Quantisation threshold: inter-sample displacement of \
                   length <= Q parks the object instead of moving it")
  in
  let terminate =
    Arg.(value & flag
         & info [ "terminate" ]
             ~doc:"Terminate each object at its last sample instead of \
                   parking it")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the update stream here (mod_io format) instead of \
                   stdout")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as JSON") in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:"Turn a sampled GPS-style CSV trace into a piecewise-linear \
             update stream: exact pass-through of moving samples, \
             sub-threshold jitter absorbed as stationary segments, \
             equal-time samples serialized by an arbitrarily small rational \
             deferral")
    Term.(const ingest_run $ csv $ dim $ quant $ terminate $ out $ json)

(* ------------------------------------------------------------------ *)
(* moq explain: plan + cost report for one query run                   *)
(* ------------------------------------------------------------------ *)

let explain_report kind seed n k lo hi dbfile backend =
  if hi < lo then die "explain: empty window [%d, %d]" lo hi;
  let reg = Registry.create () in
  let sink = Sink.of_registry reg in
  let t0 = Unix.gettimeofday () in
  let db = load_or_gen dbfile seed n in
  let t_load = Unix.gettimeofday () -. t0 in
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q lo) (q hi)) in
  let classification =
    Format.asprintf "%a" Classify.pp (Classify.classify db query)
  in
  (* agg always evaluates on the exact backend *)
  let backend = if kind = `Agg then exact_backend else backend in
  BFl.reset_filter_stats ();
  let module B = (val backend.m) in
  let module P = Pipeline (B) in
  let run_past () =
    let r = P.Sw.run_obs ~sink ~db ~gdist ~query in
    (Explain.sweep_of r.P.Sw.stats, r.P.Sw.hot, List.length r.P.Sw.timeline,
     None)
  in
  let t1 = Unix.gettimeofday () in
  let agg_block = ref None in
  let kind_s, qdesc, classification, (sweep, hot, pieces, shards) =
    match kind with
    | `Agg ->
      (* continuous POI aggregation over the generated workload: k POIs on
         the extent diagonal, the monitor/harvest path under a short mixed
         update stream *)
      let pois = resolve_pois [] (max 1 k) in
      let cont =
        try
          AggX.Cont.create ~sink ~db ~pois ~d:(q 25) ~window:(q 10)
            ~lo:(q lo) ~hi:(q hi) ()
        with Invalid_argument m -> die "explain agg: %s" m
      in
      let gap = Q.div (Q.sub (q hi) (q lo)) (q 12) in
      let updates =
        if Q.sign gap > 0 then
          Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q lo) ~gap ~count:10 ()
        else []
      in
      List.iter (fun u -> ignore (AggX.Cont.apply_update cont u)) updates;
      let rows = AggX.Cont.finalize cont in
      let s = AggX.Cont.stats cont in
      agg_block :=
        Some
          { Explain.a_pois = s.Agg.pois; a_windows = s.Agg.windows;
            a_rows = s.Agg.rows; a_admitted = s.Agg.admitted;
            a_pruned = s.Agg.pruned; a_updates = s.Agg.updates;
            a_forwarded = s.Agg.forwarded };
      ( "agg",
        Printf.sprintf
          "%d POI(s), radius 25, window 10, aggregated over [%d, %d]"
          (List.length pois) lo hi,
        "continuing",
        (Explain.zero_sweep, [], List.length rows, None) )
    | `Knn ->
      ( "knn",
        Printf.sprintf "%d-NN to the origin over [%d, %d]" k lo hi,
        "n/a",
        let r =
          P.knn ~sink ~sharded:backend.sharded ~db ~gamma ~k ~lo:(q lo)
            ~hi:(q hi)
        in
        (Explain.sweep_of r.cost, r.hot, r.pieces, r.shards) )
    | `Past ->
      ( "past",
        Printf.sprintf "nearest-neighbour query swept over [%d, %d]" lo hi,
        classification,
        run_past () )
    | `Cql ->
      (* the Definition 5 classification is the plan: a past query is
         frozen and swept in full; otherwise the sweep belongs to the
         monitor's semi-evaluation and nothing runs here *)
      let run =
        if classification = "past" then run_past ()
        else (Explain.zero_sweep, [], 0, None)
      in
      ( "cql",
        Printf.sprintf "FO(f) nearest query over [%d, %d] — %s" lo hi
          (if classification = "past" then "frozen, swept in full (Theorem 4)"
           else "semi-evaluated by the monitor (not swept here)"),
        classification,
        run )
  in
  let t_run = Unix.gettimeofday () -. t1 in
  let filter =
    if not backend.filtered then None
    else begin
      BFl.publish sink;
      let s = BFl.filter_stats () in
      Some
        { Explain.f_hits = s.BFl.hits; f_misses = s.BFl.misses;
          f_decisions = s.BFl.decisions; f_fallback_ns = s.BFl.fallback_ns;
          f_straddles = s.BFl.straddles }
    end
  in
  Explain.make ~kind:kind_s ~query:qdesc ~backend:backend.id
    ~classification ~n_objects:(DB.cardinal db) ~lo:(float_of_int lo)
    ~hi:(float_of_int hi) ~timeline_pieces:pieces ~sweep ?filter ?shards
    ?agg:!agg_block ~hot
    ~phases:
      [ { Explain.name = "load_db"; ns = 1e9 *. t_load };
        { Explain.name = "run"; ns = 1e9 *. t_run } ]
    ~counters:(Registry.flatten reg) ()

let explain_run kind seed n k lo hi dbfile backend as_json log_level log_json =
  setup_logging log_level log_json;
  let report = explain_report kind seed n k lo hi dbfile backend in
  if as_json then print_endline (J.to_string (Explain.to_json report))
  else print_string (Explain.to_text report)

let explain_cmd =
  let kind =
    Arg.(value
         & pos 0
             (enum
                [ ("knn", `Knn); ("past", `Past); ("cql", `Cql);
                  ("agg", `Agg) ])
             `Knn
         & info [] ~docv:"KIND"
             ~doc:"What to explain: $(b,knn) (k-NN timeline), $(b,past) \
                   (nearest-neighbour past query), $(b,cql) \
                   (classification-driven: sweeps only if the query is past), \
                   or $(b,agg) (continuous POI aggregation — the agg block)")
  in
  let k =
    Arg.(value & opt int 2
         & info [ "k"; "neighbours" ]
             ~doc:"Neighbours for knn; POI count for agg")
  in
  let lo = Arg.(value & opt int 0 & info [ "lo" ] ~doc:"Window start") in
  let hi = Arg.(value & opt int 50 & info [ "hi" ] ~doc:"Window end") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON (stable schema)") in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Run one query and report its plan and cost: backend chosen, \
             sweep events and comparisons, Lemma 9 per-event work vs bound, \
             filter hits/misses and straddled instants, hottest objects")
    Term.(const explain_run $ kind $ seed_arg $ n_arg $ k $ lo $ hi $ db_arg
          $ backend_arg $ json $ Common_args.log_level $ Common_args.log_json)

(* ------------------------------------------------------------------ *)
(* moq blackbox: read a flight-recorder dump, correlate with the WAL   *)
(* ------------------------------------------------------------------ *)

let blackbox_correlate d wal_path =
  match Wal.read wal_path with
  | Error e -> Error (Printf.sprintf "%s: %s" wal_path e)
  | Ok w ->
    let wal_last =
      match List.rev w.Wal.updates with [] -> None | u :: _ -> Some u
    in
    let rec_last =
      List.fold_left
        (fun acc (e : Recorder.event) ->
          if e.Recorder.kind = "update_admitted" then Some e else acc)
        None d.Recorder.d_events
    in
    let field e name =
      match List.assoc_opt name e.Recorder.fields with
      | Some (J.Str s) -> Some s
      | Some (J.Int i) -> Some (string_of_int i)
      | _ -> None
    in
    (match (wal_last, rec_last) with
     | None, None -> Ok "both empty: no updates in WAL, none recorded"
     | Some u, Some e ->
       let w_oid = string_of_int (Moq_mod.Update.oid u) in
       let w_tau = Q.to_string (Moq_mod.Update.time u) in
       if field e "oid" = Some w_oid && field e "tau" = Some w_tau then
         Ok
           (Printf.sprintf
              "last recorded update (oid %s at tau %s) agrees with the WAL tail"
              w_oid w_tau)
       else
         Error
           (Printf.sprintf
              "DIVERGED: WAL tail has oid %s at tau %s; recorder has oid %s at tau %s"
              w_oid w_tau
              (Option.value ~default:"?" (field e "oid"))
              (Option.value ~default:"?" (field e "tau")))
     | Some u, None ->
       Error
         (Printf.sprintf
            "WAL tail has oid %d at tau %s but the recorder saw no admitted update \
             (ring wrapped? dropped=%d)"
            (Moq_mod.Update.oid u)
            (Q.to_string (Moq_mod.Update.time u))
            d.Recorder.d_dropped)
     | None, Some e ->
       Error
         (Printf.sprintf
            "recorder admitted an update (oid %s at tau %s) absent from the WAL"
            (Option.value ~default:"?" (field e "oid"))
            (Option.value ~default:"?" (field e "tau"))))

let blackbox_run dump_path wal_with as_json =
  match Recorder.load dump_path with
  | Error e -> die "%s" e
  | Ok d ->
    let wal_path =
      Option.map
        (fun p -> if Sys.is_directory p then Store.wal_file p else p)
        wal_with
    in
    let correlation = Option.map (blackbox_correlate d) wal_path in
    if as_json then begin
      let corr_json =
        match correlation with
        | None -> []
        | Some (Ok m) ->
          [ ("wal_agrees", J.Bool true); ("wal_verdict", J.Str m) ]
        | Some (Error m) ->
          [ ("wal_agrees", J.Bool false); ("wal_verdict", J.Str m) ]
      in
      print_endline
        (J.to_string
           (J.Obj
              ([ ("file", J.Str dump_path);
                 ("reason", J.Str d.Recorder.d_reason);
                 ("wall", J.Float d.Recorder.d_wall);
                 ("pid", J.Int d.Recorder.d_pid);
                 ("recorded", J.Int d.Recorder.d_recorded);
                 ("dropped", J.Int d.Recorder.d_dropped);
                 ("events",
                  J.List
                    (List.map
                       (fun (e : Recorder.event) ->
                         J.Obj
                           [ ("seq", J.Int e.Recorder.seq);
                             ("ts", J.Float e.Recorder.ts);
                             ("kind", J.Str e.Recorder.kind);
                             ("fields", J.Obj e.Recorder.fields) ])
                       d.Recorder.d_events)) ]
              @ corr_json)))
    end
    else begin
      Format.printf "flight recorder dump %s@." dump_path;
      Format.printf "  reason    %s@." d.Recorder.d_reason;
      Format.printf "  pid       %d@." d.Recorder.d_pid;
      Format.printf "  recorded  %d event(s), %d overwritten@."
        d.Recorder.d_recorded d.Recorder.d_dropped;
      List.iter
        (fun (e : Recorder.event) ->
          Format.printf "  [%6d] %+9.3fs  %-20s %s@." e.Recorder.seq
            (e.Recorder.ts -. d.Recorder.d_wall)
            e.Recorder.kind
            (String.concat " "
               (List.map
                  (fun (k, v) -> Printf.sprintf "%s=%s" k (J.to_string v))
                  e.Recorder.fields)))
        d.Recorder.d_events;
      match correlation with
      | None -> ()
      | Some (Ok m) -> Format.printf "wal: %s@." m
      | Some (Error m) -> Format.printf "wal: %s@." m
    end;
    match correlation with Some (Error _) -> exit 5 | _ -> ()

let blackbox_cmd =
  let dump =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DUMP"
         ~doc:"A flight-<ms>-<reason>.json dump file")
  in
  let wal =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"PATH"
             ~doc:"Correlate against this write-ahead log (a wal.log file or \
                   a store directory); exits 5 when the dump's last admitted \
                   update disagrees with the WAL tail")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the dump (and verdict) as JSON") in
  Cmd.v
    (Cmd.info "blackbox"
       ~doc:"Pretty-print a flight-recorder dump and correlate it against \
             the store's write-ahead log")
    Term.(const blackbox_run $ dump $ wal $ json)

(* ------------------------------------------------------------------ *)
(* Durable store: replay (ingest) and recover                          *)
(* ------------------------------------------------------------------ *)

let store_arg = Common_args.store_req

let replay_run store_dir dbfile updates_file seed n count gap every no_fsync
    log_level log_json =
  setup_logging log_level log_json;
  let fsync = not no_fsync in
  let store =
    if Sys.file_exists (Filename.concat store_dir "checkpoint.mod") then begin
      match Store.open_ ~fsync ~checkpoint_every:every ~dir:store_dir () with
      | Ok (store, r) ->
        Format.printf "opened store %s: %a@." store_dir Store.pp_recovery r;
        (match r.Store.tail with
         | Wal.Clean -> ()
         | Wal.Corrupt _ as tail ->
           Format.eprintf "warning: %s/wal.log %a (tail dropped)@." store_dir Wal.pp_tail tail);
        store
      | Error e -> die "%s" e
    end
    else begin
      let db = load_or_gen dbfile seed n in
      Format.printf "initialized store %s from %s (%d objects)@." store_dir
        (match dbfile with Some p -> p | None -> "a generated workload")
        (DB.cardinal db);
      Store.init ~fsync ~checkpoint_every:every ~dir:store_dir db
    end
  in
  let updates =
    match updates_file with
    | Some path ->
      (match Moq_mod.Mod_io.load_updates path with
       | Ok us -> us
       | Error e -> die_parse path e)
    | None ->
      Gen.mixed_stream ~seed:(seed + 1) ~db:(Store.db store) ~start:(Store.clock store)
        ~gap:(q gap) ~count ()
  in
  let san = Sanitize.create () in
  List.iter (fun u -> ignore (Store.ingest store san u)) updates;
  Store.close store;
  Format.printf "ingested %d updates: %a@." (List.length updates) Sanitize.pp_counters
    (Sanitize.counters san);
  (match Sanitize.quarantined san with
   | [] -> ()
   | held -> Format.printf "%d updates left in quarantine@." (List.length held));
  Format.printf "store now at clock %s with %d objects@."
    (Q.to_string (Store.clock store)) (DB.cardinal (Store.db store))

let replay_cmd =
  let updates = Common_args.updates_file in
  let count = Common_args.count ~default:20 () in
  let gap = Common_args.gap in
  let every = Common_args.checkpoint_every in
  let no_fsync = Common_args.no_fsync in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Ingest an update stream into a durable store through the sanitizer (WAL + checkpoints)")
    Term.(const replay_run $ store_arg $ db_arg $ updates $ seed_arg $ n_arg $ count $ gap $ every $ no_fsync
          $ Common_args.log_level $ Common_args.log_json)

let recover_run store_dir log_level log_json =
  setup_logging log_level log_json;
  match Store.recover ~dir:store_dir with
  | Ok r ->
    Format.printf "%a@." Store.pp_recovery r;
    (* machine-greppable recovery stats, kept off stdout *)
    Format.eprintf
      "recovery-stats: checkpoint=%s replayed=%d dropped=%d stale=%d invalid=%d tail=%a@."
      (Filename.concat store_dir "checkpoint.mod")
      r.Store.replayed
      (r.Store.stale_skipped + r.Store.invalid_skipped)
      r.Store.stale_skipped r.Store.invalid_skipped Wal.pp_tail r.Store.tail;
    (match r.Store.tail with
     | Wal.Clean -> ()
     | Wal.Corrupt _ as tail ->
       Format.eprintf "warning: %s/wal.log %a; recovered to the last good record@."
         store_dir Wal.pp_tail tail)
  | Error e -> die "recovery failed: %s" e

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Reconstruct the MOD and clock from a store's checkpoint + write-ahead log")
    Term.(const recover_run $ store_arg $ Common_args.log_level $ Common_args.log_json)

(* ------------------------------------------------------------------ *)
(* Telemetry: replay a workload end to end with a live sink, dump the  *)
(* registry.                                                           *)
(* ------------------------------------------------------------------ *)

let stats_run seed n count gap dbfile updates_file store_dir every format backend
    log_level log_json =
  setup_logging log_level log_json;
  let reg = Registry.create () in
  let sink = Sink.of_registry reg in
  let dir =
    match store_dir with
    | Some d -> d
    | None ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "moq-stats-%d" (Unix.getpid ()))
  in
  let db = load_or_gen dbfile seed n in
  let store = Store.init ~fsync:false ~checkpoint_every:every ~sink ~dir db in
  let san = Sanitize.create ~sink () in
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let hi = q (count * gap + 20) in
  let query = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) hi) in
  let updates =
    match updates_file with
    | Some path -> load_updates path
    | None -> Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q 0) ~gap:(q gap) ~count ()
  in
  BFl.reset_filter_stats ();
  let module B = (val backend.m) in
  let module P = Pipeline (B) in
  let m = P.Mon.create ~sink ~db ~gdist ~query () in
  List.iter
    (fun u ->
      match Store.ingest store san u with
      | Sanitize.Accepted _ ->
        (match P.Mon.apply_update m u with Ok () -> () | Error _ -> ())
      | Sanitize.Rejected _ | Sanitize.Quarantined _ -> ())
    updates;
  ignore (P.Mon.audit_and_heal m);
  Sweep_cost.publish_hot sink (P.Mon.hot_objects m);
  ignore (P.Mon.finalize m);
  Store.close store;
  (* past-query path, so the sweep metrics are populated too *)
  ignore
    (P.knn ~sink ~sharded:backend.sharded ~db:(Store.db store) ~gamma ~k:2
       ~lo:(q 0) ~hi);
  (* filtered backend: surface moq_filter_* alongside the engine metrics *)
  if backend.filtered then BFl.publish sink;
  (match Store.recover_obs ~sink ~dir with Ok _ -> () | Error _ -> ());
  match format with
  | `Json -> print_endline (Export.json_string reg)
  | `Prometheus -> print_string (Export.prometheus reg)

let stats_cmd =
  let updates = Common_args.updates_file in
  let count = Common_args.count ~default:20 () in
  let gap = Common_args.gap in
  let store = Common_args.store_opt in
  let every = Common_args.checkpoint_every in
  let format =
    Arg.(value
         & opt (enum [ ("json", `Json); ("prometheus", `Prometheus) ]) `Json
         & info [ "format" ] ~doc:"json or prometheus")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Replay a workload through the instrumented store, monitor and sweep; dump the metric registry")
    Term.(const stats_run $ seed_arg $ n_arg $ count $ gap $ db_arg $ updates $ store $ every $ format $ backend_arg
          $ Common_args.log_level $ Common_args.log_json)

(* ------------------------------------------------------------------ *)
(* Serving: moq serve (the concurrent MOD server) and moq client (a    *)
(* scriptable moqp driver)                                             *)
(* ------------------------------------------------------------------ *)

module Server = Moq_server.Server
module Client = Moq_server.Client
module Proto = Moq_proto.Proto
module Chaos = Moq_chaos.Chaos

let default_listen = "tcp:127.0.0.1:7407"

let parse_addr s =
  match Server.addr_of_string s with Ok a -> a | Error e -> die "%s" e

let serve_run listen store_dir dbfile seed n every no_fsync max_sessions max_subs
    queue_soft queue_hwm idle_timeout follow digest_every trace slow_query_ms
    no_hot_objects flight_capacity log_level log_json =
  setup_logging log_level log_json;
  let listen = parse_addr listen in
  let follow = Option.map parse_addr follow in
  let init_db =
    if Sys.file_exists (Filename.concat store_dir "checkpoint.mod") then None
    else if follow <> None then
      (* a follower's real state arrives with the bootstrap snapshot *)
      Some (DB.empty ~dim:2 ~tau:(q 0))
    else Some (load_or_gen dbfile seed n)
  in
  let cfg =
    { (Server.default_config ~listen ~store_dir) with
      Server.init_db; fsync = not no_fsync; checkpoint_every = every;
      max_sessions; max_subs_per_session = max_subs; queue_soft; queue_hwm;
      idle_timeout; follow; repl_digest_every = digest_every; trace;
      slow_query_ms; hot_objects = not no_hot_objects; flight_capacity }
  in
  match Server.start cfg with
  | Error e -> die "%s" e
  | Ok srv ->
    let stopped = ref false in
    let stop _ =
      Server.request_stop srv;
      stopped := true
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    (* SIGQUIT: dump the flight recorder and keep serving — the live
       counterpart of the on-crash dump *)
    (try
       Sys.set_signal Sys.sigquit
         (Sys.Signal_handle
            (fun _ -> ignore (Server.flight_dump srv ~reason:"sigquit")))
     with Invalid_argument _ -> ());
    Format.printf "listening on %a (store %s, %d objects, clock %s)@."
      Server.pp_addr (Server.bound_addr srv) store_dir
      (DB.cardinal (Server.db_snapshot srv))
      (Q.to_string (Server.clock srv));
    (match follow with
     | Some p -> Format.printf "following %a as a read replica@." Server.pp_addr p
     | None -> ());
    (* keep the main thread in an interruptible sleep: with every server
       thread parked in a blocking syscall, a pending signal's OCaml handler
       only runs when some thread re-enters OCaml code *)
    while not !stopped do
      Thread.delay 0.2
    done;
    Server.run srv;
    Format.printf "drained; store checkpointed@."

let serve_cmd =
  let listen =
    Arg.(value & opt string default_listen
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Listen address: tcp:HOST:PORT, unix:PATH, or a bare port \
                   (port 0 picks a free one)")
  in
  let max_sessions =
    Arg.(value & opt int 64 & info [ "max-sessions" ] ~doc:"Concurrent session cap")
  in
  let max_subs =
    Arg.(value & opt int 8 & info [ "max-subs" ] ~doc:"Subscriptions per session cap")
  in
  let queue_soft =
    Arg.(value & opt int 64
         & info [ "queue-soft" ] ~doc:"Per-session queue length above which event frames coalesce")
  in
  let queue_hwm =
    Arg.(value & opt int 256
         & info [ "queue-hwm" ] ~doc:"Per-session queue length above which the oldest events drop")
  in
  let idle_timeout =
    Arg.(value & opt float 300.
         & info [ "idle-timeout" ] ~doc:"Seconds without a request before a session closes; 0 disables")
  in
  let follow =
    Arg.(value & opt (some string) None
         & info [ "follow" ] ~docv:"ADDR"
             ~doc:"Run as a read replica of this primary (tcp:HOST:PORT or \
                   unix:PATH): bootstrap from its snapshot, tail its commit \
                   stream, reject local UPDATEs")
  in
  let digest_every =
    Arg.(value & opt int 64
         & info [ "digest-every" ]
             ~doc:"Ship a state digest to followers every N streamed updates \
                   (the divergence audit); 0 disables")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Propagate trace= frame contexts and record pipeline spans \
                   (stage histograms are collected regardless)")
  in
  let slow_query_ms =
    Arg.(value & opt float 250.
         & info [ "slow-query-ms" ] ~docv:"MS"
             ~doc:"Capture the explain record of any server-side query or \
                   per-subscription monitor step slower than this into the \
                   structured log (moq_slowq_* counters); 0 disables")
  in
  let no_hot_objects =
    Arg.(value & flag
         & info [ "no-hot-objects" ]
             ~doc:"Disable per-object cost attribution in subscription \
                   monitors (drops the moq_hot_* gauges)")
  in
  let flight_capacity =
    Arg.(value & opt int 2048
         & info [ "flight-capacity" ] ~docv:"N"
             ~doc:"Flight-recorder ring capacity in events — dumped to the \
                   store directory on crash, SIGQUIT or replication \
                   divergence; 0 disables")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a durable MOD over moqp: concurrent sessions, chronological \
             updates through the WAL, live continuous-query subscriptions, \
             optional read replication")
    Term.(const serve_run $ listen $ Common_args.store_req $ Common_args.db
          $ Common_args.seed $ Common_args.n $ Common_args.checkpoint_every
          $ Common_args.no_fsync $ max_sessions $ max_subs $ queue_soft
          $ queue_hwm $ idle_timeout $ follow $ digest_every $ trace
          $ slow_query_ms $ no_hot_objects $ flight_capacity
          $ Common_args.log_level $ Common_args.log_json)

(* Script lines are raw moqp request heads ("SUBSCRIBE knn 1 0 40"), plus
   '#' comments and a "!sleep SECONDS" directive.  Events arriving between
   requests are printed as they drain. *)
let client_run connect script_file wait timeout connect_timeout log_level log_json =
  setup_logging log_level log_json;
  let addr = parse_addr connect in
  match Client.connect ~timeout ~connect_timeout addr with
  | Error e -> die "connect %s: %s" connect (Client.error_to_string e)
  | Ok c ->
    (* drops the server told us about but nothing re-delivered: the exit
       status must not claim a complete stream *)
    let dropped = ref [] in
    let print_msg m =
      (match m with
       | Proto.E_dropped { sub; from_seq; to_seq } ->
         dropped := (sub, from_seq, to_seq) :: !dropped
       | _ -> ());
      print_endline (Proto.render_server_msg m)
    in
    let dim =
      match Client.hello c with
      | Ok (Proto.R_hello { dim; _ } as m) ->
        print_msg m;
        dim
      | Ok m ->
        print_msg m;
        Client.close c;
        die "handshake refused"
      | Error e -> die "hello: %s" (Client.error_to_string e)
    in
    let lines =
      match script_file with
      | Some path ->
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            let rec go acc =
              match input_line ic with
              | l -> go (l :: acc)
              | exception End_of_file -> List.rev acc
            in
            go [])
      | None ->
        let rec go acc =
          match input_line stdin with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go []
    in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line <> "" && line.[0] <> '#' then begin
          match String.split_on_char ' ' line with
          | "!sleep" :: s :: _ ->
            (match float_of_string_opt s with
             | Some secs -> Thread.delay secs
             | None -> die "!sleep: bad duration %S" s)
          | _ ->
            (match Proto.parse_request ~dim line with
             | Error e -> die "bad request %S: %s" line e
             | Ok req ->
               (match Client.request c req with
                | Ok m -> print_msg m
                | Error e -> die "%S: %s" line (Client.error_to_string e)));
            List.iter print_msg (Client.drain_events c)
        end)
      lines;
    let deadline = Unix.gettimeofday () +. wait in
    let rec drain () =
      let left = deadline -. Unix.gettimeofday () in
      if left > 0. && Client.is_open c then
        match Client.next_event ~timeout:left c with
        | Some m ->
          print_msg m;
          drain ()
        | None -> ()
    in
    drain ();
    if Client.is_open c then ignore (Client.request c Proto.Bye);
    Client.close c;
    if !dropped <> [] then begin
      List.iter
        (fun (sub, from_seq, to_seq) ->
          Format.eprintf "unacknowledged drop: sub %d seqs %d..%d@." sub
            from_seq to_seq)
        (List.rev !dropped);
      exit 4
    end

let client_cmd =
  let connect =
    Arg.(value & opt string default_listen
         & info [ "connect" ] ~docv:"ADDR" ~doc:"Server address (tcp:HOST:PORT or unix:PATH)")
  in
  let script =
    Arg.(value & opt (some file) None
         & info [ "script" ] ~docv:"FILE"
             ~doc:"Request script, one moqp request per line ('#' comments, \
                   '!sleep SECONDS' pauses); stdin when absent")
  in
  let wait =
    Arg.(value & opt float 0.
         & info [ "wait" ] ~doc:"Keep draining pushed events this many seconds after the script")
  in
  let timeout =
    Arg.(value & opt float 30. & info [ "timeout" ] ~doc:"Per-response timeout in seconds")
  in
  let connect_timeout =
    Arg.(value & opt float 10.
         & info [ "connect-timeout" ]
             ~doc:"Connection-establishment timeout in seconds")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Drive a moq server from a request script; print responses and \
             pushed events.  Exits 4 if the server reported dropped events \
             that were never re-delivered.")
    Term.(const client_run $ connect $ script $ wait $ timeout $ connect_timeout
          $ Common_args.log_level $ Common_args.log_json)

let chaos_run upstream seed profile port duration log_level log_json =
  setup_logging log_level log_json;
  let upstream_addr = parse_addr upstream in
  let upstream_sock = Server.sockaddr_of upstream_addr in
  let profile =
    match profile with
    | "quiet" -> Chaos.quiet
    | "flaky" -> Chaos.flaky
    | "hostile" -> Chaos.hostile
    | p -> die "unknown chaos profile %S (quiet|flaky|hostile)" p
  in
  let t = Chaos.start ~profile ~port ~seed ~upstream:upstream_sock () in
  Format.printf "chaos proxy on tcp:127.0.0.1:%d -> %s (seed %d)@."
    (Chaos.port t) upstream seed;
  let stopped = ref false in
  let stop _ = stopped := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  let deadline =
    if duration > 0. then Some (Unix.gettimeofday () +. duration) else None
  in
  let expired () =
    match deadline with
    | Some d -> Unix.gettimeofday () >= d
    | None -> false
  in
  while not (!stopped || expired ()) do
    Thread.delay 0.2
  done;
  Chaos.stop t;
  let s = Chaos.stats t in
  Format.printf
    "conns %d refused %d chunks %d bytes %d delays %d corruptions %d tears %d \
     reorders %d@."
    s.Chaos.conns s.Chaos.refused s.Chaos.chunks s.Chaos.bytes s.Chaos.delays
    s.Chaos.corruptions s.Chaos.tears s.Chaos.reorders

let chaos_cmd =
  let upstream =
    Arg.(value & opt string default_listen
         & info [ "upstream" ] ~docv:"ADDR"
             ~doc:"Real server to relay to (tcp:HOST:PORT or unix:PATH)")
  in
  let seed =
    Arg.(value & opt int 0
         & info [ "seed" ] ~doc:"Deterministic fault-injection seed")
  in
  let profile =
    Arg.(value & opt string "flaky"
         & info [ "profile" ] ~docv:"NAME"
             ~doc:"Fault profile: quiet, flaky or hostile")
  in
  let port =
    Arg.(value & opt int 0
         & info [ "port" ] ~doc:"Listen port (0 picks a free one)")
  in
  let duration =
    Arg.(value & opt float 0.
         & info [ "duration" ]
             ~doc:"Stop after this many seconds (0: run until SIGINT/SIGTERM)")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run a seeded network chaos proxy in front of a moq server: \
             delays, torn frames, reordering, corruption, partitions")
    Term.(const chaos_run $ upstream $ seed $ profile $ port $ duration
          $ Common_args.log_level $ Common_args.log_json)

(* ------------------------------------------------------------------ *)
(* moq top: live fleet dashboard over STATS json                       *)
(* ------------------------------------------------------------------ *)

(* One short-lived session per poll: connect, HELLO, STATS json, BYE.
   Dashboards poll every couple of seconds; session churn at that rate is
   noise, and a fresh connection per sample means a restarted server just
   shows up again without reconnect bookkeeping here. *)
let fetch_stats ~timeout addr =
  match Client.connect ~timeout ~connect_timeout:timeout addr with
  | Error e -> Error (Client.error_to_string e)
  | Ok c ->
    let r =
      match Client.hello c with
      | Ok (Proto.R_hello _) ->
        (match Client.request c (Proto.Stats `Json) with
         | Ok (Proto.R_stats s) ->
           (match J.of_string s with
            | Ok j -> Ok j
            | Error e -> Error ("bad STATS json: " ^ e))
         | Ok _ -> Error "unexpected response to STATS"
         | Error e -> Error (Client.error_to_string e))
      | Ok _ -> Error "handshake refused"
      | Error e -> Error (Client.error_to_string e)
    in
    if Client.is_open c then ignore (Client.request c Proto.Bye);
    Client.close c;
    r

let jget j section name =
  Option.bind (Option.bind (J.member section j) (J.member name)) J.to_float_opt

(* Every moq_stage_*_ns histogram in the sample, as
   (short name, p50, p99, count); new stages appear without dashboard
   changes. *)
let stage_rows j =
  match J.member "histograms" j with
  | Some (J.Obj kvs) ->
    List.filter_map
      (fun (name, h) ->
        if not (String.length name > 10 && String.sub name 0 10 = "moq_stage_") then
          None
        else begin
          let short = String.sub name 10 (String.length name - 10) in
          let short =
            if Filename.check_suffix short "_ns" then
              String.sub short 0 (String.length short - 3)
            else short
          in
          let q k = Option.bind (J.member k h) J.to_float_opt in
          Some (short, q "p50", q "p99", q "count")
        end)
      kvs
  | _ -> []

(* Rank-indexed moq_hot_* gauges (top-K cost attribution, published by the
   server on STATS and by moq stats), re-assembled into rows. *)
let hot_rows j =
  let g name i = jget j "gauges" (Printf.sprintf "%s_%d" name i) in
  let rec go i acc =
    match g "moq_hot_oid" i with
    | None -> List.rev acc
    | Some oid ->
      go (i + 1)
        ((oid, g "moq_hot_comparisons" i, g "moq_hot_swaps" i) :: acc)
  in
  go 0 []

let hot_sub_rows j =
  let g name i = jget j "gauges" (Printf.sprintf "%s_%d" name i) in
  let rec go i acc =
    match g "moq_hot_sub_id" i with
    | None -> List.rev acc
    | Some id ->
      go (i + 1)
        ((id, g "moq_hot_sub_bytes" i, g "moq_hot_sub_queue" i) :: acc)
  in
  go 0 []

let top_endpoint_json name r ~rate =
  let fopt = function Some v -> J.Float v | None -> J.Null in
  match r with
  | Error e -> J.Obj [ ("endpoint", J.Str name); ("ok", J.Bool false); ("error", J.Str e) ]
  | Ok j ->
    let role =
      if jget j "gauges" "moq_repl_lag_updates" <> None then "follower" else "primary"
    in
    let ns_ms = Option.map (fun v -> v /. 1e6) in
    J.Obj
      [ ("endpoint", J.Str name);
        ("ok", J.Bool true);
        ("role", J.Str role);
        ("rps", fopt (rate "moq_server_rpcs_total"));
        ("pushed_per_s", fopt (rate "moq_server_pushed_events_total"));
        ("wal_appends_per_s", fopt (rate "moq_wal_appends_total"));
        ("fsyncs_per_s", fopt (rate "moq_wal_fsyncs_total"));
        ("sessions", fopt (jget j "gauges" "moq_server_connections"));
        ("subscriptions", fopt (jget j "gauges" "moq_server_subscriptions"));
        ("queue_depth", fopt (jget j "gauges" "moq_server_push_queue_depth"));
        ("dropped_events_total", fopt (jget j "counters" "moq_server_dropped_events_total"));
        ("repl_lag_updates", fopt (jget j "gauges" "moq_repl_lag_updates"));
        ("repl_lag_ms", fopt (jget j "gauges" "moq_repl_lag_ms"));
        ("slow_queries_total", fopt (jget j "counters" "moq_slowq_total"));
        ("hot_objects",
         J.List
           (List.map
              (fun (oid, cmp, swaps) ->
                J.Obj
                  [ ("oid", J.Int (int_of_float oid));
                    ("comparisons", fopt cmp); ("swaps", fopt swaps) ])
              (hot_rows j)));
        ("hot_subs",
         J.List
           (List.map
              (fun (id, bytes, queue) ->
                J.Obj
                  [ ("sub", J.Int (int_of_float id));
                    ("fanout_bytes", fopt bytes); ("queue", fopt queue) ])
              (hot_sub_rows j)));
        ("stages",
         J.Obj
           (List.map
              (fun (s, p50, p99, count) ->
                (s,
                 J.Obj
                   [ ("p50_ms", fopt (ns_ms p50)); ("p99_ms", fopt (ns_ms p99));
                     ("count", fopt count) ]))
              (stage_rows j)));
      ]

let top_endpoint_text name r ~rate =
  let fv = function Some v -> Printf.sprintf "%.1f" v | None -> "-" in
  let fms = function Some v -> Printf.sprintf "%.2f" (v /. 1e6) | None -> "-" in
  match r with
  | Error e -> Format.printf "%-28s DOWN  %s@." name e
  | Ok j ->
    let role =
      if jget j "gauges" "moq_repl_lag_updates" <> None then "follower" else "primary"
    in
    Format.printf "%-28s %-8s rps %-8s sessions %s subs %s queue %s dropped %s@."
      name role
      (fv (rate "moq_server_rpcs_total"))
      (fv (jget j "gauges" "moq_server_connections"))
      (fv (jget j "gauges" "moq_server_subscriptions"))
      (fv (jget j "gauges" "moq_server_push_queue_depth"))
      (fv (jget j "counters" "moq_server_dropped_events_total"));
    Format.printf "  wal %s appends/s, %s fsyncs/s"
      (fv (rate "moq_wal_appends_total"))
      (fv (rate "moq_wal_fsyncs_total"));
    (match (jget j "gauges" "moq_repl_lag_updates", jget j "gauges" "moq_repl_lag_ms") with
     | Some u, ms ->
       Format.printf "   repl lag %.0f updates / %s ms" u
         (match ms with Some v -> Printf.sprintf "%.1f" v | None -> "-")
     | None, _ -> ());
    Format.printf "@.";
    (match stage_rows j with
     | [] -> ()
     | rows ->
       Format.printf "  stage p50/p99 ms:";
       List.iter
         (fun (s, p50, p99, _) ->
           Format.printf " %s %s/%s" s (fms p50) (fms p99))
         rows;
       Format.printf "@.");
    (match hot_rows j with
     | [] -> ()
     | rows ->
       Format.printf "  hot objects:";
       List.iter
         (fun (oid, cmp, swaps) ->
           Format.printf " oid %.0f (%s cmp/%s swap)" oid (fv cmp) (fv swaps))
         rows;
       Format.printf "@.");
    (match hot_sub_rows j with
     | [] -> ()
     | rows ->
       Format.printf "  hot subs:";
       List.iter
         (fun (id, bytes, queue) ->
           Format.printf " #%.0f (%s B/%s queued)" id (fv bytes) (fv queue))
         rows;
       Format.printf "@.")

let top_run endpoints interval once as_json timeout =
  if as_json then Log.set_json true;
  let endpoints = if endpoints = [] then [ default_listen ] else endpoints in
  let addrs = List.map (fun e -> (e, parse_addr e)) endpoints in
  let prev : (string, float * J.t) Hashtbl.t = Hashtbl.create 8 in
  let stopped = ref false in
  let stop _ = stopped := true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop) with Invalid_argument _ -> ());
  let round () =
    let samples =
      List.map
        (fun (name, addr) ->
          let at = Unix.gettimeofday () in
          (name, at, fetch_stats ~timeout addr))
        addrs
    in
    let rendered =
      List.map
        (fun (name, at, r) ->
          let rate cname =
            match (r, Hashtbl.find_opt prev name) with
            | Ok j, Some (at0, j0) when at > at0 ->
              (match (jget j "counters" cname, jget j0 "counters" cname) with
               | Some v, Some v0 -> Some (Float.max 0. ((v -. v0) /. (at -. at0)))
               | _ -> None)
            | _ -> None
          in
          (name, r, rate))
        samples
    in
    let reachable =
      List.length (List.filter (fun (_, _, r) -> Result.is_ok r) samples)
    in
    if as_json then
      print_endline
        (J.to_string
           (J.Obj
              [ ("at", J.Float (Unix.gettimeofday ()));
                ("reachable", J.Int reachable);
                ("endpoints",
                 J.List
                   (List.map (fun (name, r, rate) -> top_endpoint_json name r ~rate)
                      rendered)) ]))
    else begin
      if not once then print_string "\027[2J\027[H";
      Format.printf "moq top — %d endpoint%s, every %gs@." (List.length addrs)
        (if List.length addrs = 1 then "" else "s")
        interval;
      List.iter (fun (name, r, rate) -> top_endpoint_text name r ~rate) rendered;
      Format.print_flush ()
    end;
    List.iter
      (fun (name, at, r) ->
        match r with Ok j -> Hashtbl.replace prev name (at, j) | Error _ -> ())
      samples;
    reachable
  in
  let reachable = round () in
  (* a fleet that is entirely down must not read like an empty-but-healthy
     one in scripts: structured error record + non-zero exit *)
  if once && reachable = 0 then begin
    Log.error "moq top: every endpoint unreachable"
      ~fields:
        [ ("endpoints", J.List (List.map (fun (n, _) -> J.Str n) addrs));
          ("polled", J.Int (List.length addrs)) ];
    exit 2
  end;
  if not once then
    while not !stopped do
      let slept = ref 0. in
      while (not !stopped) && !slept < interval do
        Thread.delay 0.1;
        slept := !slept +. 0.1
      done;
      if not !stopped then ignore (round ())
    done

let top_cmd =
  let endpoints =
    Arg.(value & pos_all string []
         & info [] ~docv:"ADDR"
             ~doc:"Endpoints to poll (tcp:HOST:PORT or unix:PATH); default the \
                   local server")
  in
  let interval =
    Arg.(value & opt float 2.
         & info [ "interval" ] ~doc:"Seconds between refreshes")
  in
  let once =
    Arg.(value & flag & info [ "once" ] ~doc:"Sample once and exit (for scripts)")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit samples as JSON instead of a screen")
  in
  let timeout =
    Arg.(value & opt float 5. & info [ "timeout" ] ~doc:"Per-endpoint poll timeout in seconds")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live fleet dashboard: poll STATS from one or more moq servers and \
             show rates, per-stage latency quantiles, replication lag and \
             backpressure counters")
    Term.(const top_run $ endpoints $ interval $ once $ json $ timeout)

let () =
  let doc = "moving-object queries: plane-sweep evaluation (PODS 2002 reproduction)" in
  try
    exit
      (Cmd.eval
         (Cmd.group (Cmd.info "moq" ~doc)
            [ trace_cmd; knn_cmd; monitor_cmd; classify_cmd; reduction_cmd; generate_cmd;
              show_cmd; agg_cmd; alibi_cmd; ingest_cmd; replay_cmd; recover_cmd;
              stats_cmd; serve_cmd; client_cmd; chaos_cmd; top_cmd; explain_cmd;
              blackbox_cmd ]))
  with
  | Moq_mod.Mod_io.Parse (line, msg) -> die "parse error at line %d: %s" line msg
  | Sys_error msg -> die "%s" msg
  | Unix.Unix_error (err, fn, arg) -> die "%s: %s (%s)" fn (Unix.error_message err) arg
