(* moqbench: the repository benchmark driver.  README.md in this directory
   explains the workloads, the metrics and why each exists.

     moqbench.exe --workload feed|watch|mixed|scan --seed N --seconds S
                  --trace 0|1 --moq PATH/TO/moq.exe --work DIR

   Inputs come from the seed alone.  The server workloads run the real
   [moq serve] as a child process and speak moqp to it over a Unix socket
   with Frame/Proto directly, single-threaded and in a closed loop; [scan]
   runs the sharded k-NN driver in this process.  Every run checks its
   answers.  With [--trace 1] the same inputs are then replayed through each
   layer's public functions inside spans, and the per-layer metrics are
   printed instead of the end-to-end ones.  The last stdout line is the
   result object {"correct", "attempted", "failed", "metrics"}. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module IO = Moq_mod.Mod_io
module Oid = Moq_mod.Oid
module Gen = Moq_workload.Gen
module Prng = Moq_workload.Prng
module Frame = Moq_proto.Frame
module Proto = Moq_proto.Proto
module Store = Moq_durable.Store
module Sanitize = Moq_durable.Sanitize
module Registry = Moq_obs.Registry
module Sink = Moq_obs.Sink
module Json = Moq_obs.Json
module Client = Moq_server.Client
module Server = Moq_server.Server
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist
module BX = Moq_core.Backend.Exact
module BFl = Moq_core.Backend.Filtered
module MonX = Moq_core.Monitor.Make (BX)
module KnnX = Moq_core.Knn.Make (BX)
module KnnFl = Moq_core.Knn.Make (BFl)
module ShF = Moq_core.Shard.Make (BFl)
module Agg = Moq_agg.Agg
module AggX = Moq_agg.Agg.Make (BX)
module A = Moq_poly.Algnum

let q = Q.of_int
let fail fmt = Printf.ksprintf failwith fmt
let say fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

(* ------------------------------------------------------------------ *)
(* Clock and order statistics                                          *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then fail "median of no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least 10 samples beyond it: the 11th
   largest sample, which sits at percentile 100 (n - 10) / n. *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n < 21 then fail "a tail needs at least 21 samples, got %d" n;
  (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

let ratio a b = if b = 0. then 0. else a /. b

(* CPU clocks, in seconds.  Time the hypervisor stole and time spent
   blocked, on the disk or on a peer, are not in them, so they measure
   the program rather than the tenants it shares a host with.

   [cpu_clock pid] sums the first field of each thread's schedstat (ns
   run).  It opens the files once and re-reads them on every call, a few
   us per thread; threads the process starts later are not seen, so it is
   made after the server has started its session threads.  [close] it
   when done. *)
let cpu_clock pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  let fds =
    Array.map
      (fun tid ->
        Unix.openfile (Filename.concat (Filename.concat dir tid) "schedstat")
          [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
      (Sys.readdir dir)
  in
  let buf = Bytes.create 128 in
  let read fd =
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> 0.
    | n -> Scanf.sscanf (Bytes.sub_string buf 0 n) "%Ld" Int64.to_float *. 1e-9
    | exception Unix.Unix_error _ -> 0. (* the thread has exited *)
  in
  ( (fun () -> Array.fold_left (fun acc fd -> acc +. read fd) 0. fds),
    fun () -> Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds )

(* This process's CPU time; Unix.times reads getrusage, to the us. *)
let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Spans: name, start, end, parent and op id, kept in memory           *)

(* Allocation and collections are Gc.quick_stat deltas, except minor
   words: OCaml 5 refreshes quick_stat's minor_words only at a minor
   collection, so they come from Gc.minor_words, exact on 4.14 and 5.
   quick_stat itself allocates; every read is counted, and [gc_cost] words
   per read (measured at start-up) are taken off each span, so a span
   reports only its callee's words. *)
let gc_reads = ref 0

let gc_read () =
  incr gc_reads;
  let s = Gc.quick_stat () in
  (Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words,
   s.Gc.minor_collections + s.Gc.major_collections)

let gc_cost =
  let best = ref infinity in
  for _ = 1 to 20 do
    let a0, _ = gc_read () in
    let a1, _ = gc_read () in
    best := Float.min !best (a1 -. a0)
  done;
  !best

module Spans = struct
  let tracing = ref false
  let n = ref 0
  let name = ref [||]
  let parent = ref [||]
  let op = ref [||]
  let gcs = ref [||]
  let t0 = ref (Float.Array.create 0)
  let t1 = ref (Float.Array.create 0)
  let alloc = ref (Float.Array.create 0)
  let cur = ref (-1)
  let cur_op = ref (-1)

  let reset cap =
    n := 0;
    cur := -1;
    cur_op := -1;
    name := Array.make cap "";
    parent := Array.make cap (-1);
    op := Array.make cap (-1);
    gcs := Array.make cap 0;
    t0 := Float.Array.make cap 0.;
    t1 := Float.Array.make cap 0.;
    alloc := Float.Array.make cap 0.

  let grow () =
    let cap = 2 * Array.length !name in
    let gi a d = let b = Array.make cap d in Array.blit a 0 b 0 (Array.length a); b in
    let gf a =
      let b = Float.Array.make cap 0. in
      Float.Array.blit a 0 b 0 (Float.Array.length a);
      b
    in
    name := gi !name "";
    parent := gi !parent (-1);
    op := gi !op (-1);
    gcs := gi !gcs 0;
    t0 := gf !t0;
    t1 := gf !t1;
    alloc := gf !alloc

  let reserve nm =
    if !n >= Array.length !name then grow ();
    let id = !n in
    incr n;
    !name.(id) <- nm;
    !parent.(id) <- !cur;
    !op.(id) <- !cur_op;
    id

  let span nm f =
    if not !tracing then f ()
    else begin
      let id = reserve nm in
      let up = !cur in
      cur := id;
      let r0 = !gc_reads in
      let a0, c0 = gc_read () in
      let s0 = now () in
      let finish () =
        let s1 = now () in
        let a1, c1 = gc_read () in
        cur := up;
        Float.Array.set !t0 id s0;
        Float.Array.set !t1 id s1;
        Float.Array.set !alloc id
          (a1 -. a0 -. (gc_cost *. float_of_int (!gc_reads - r0)));
        !gcs.(id) <- c1 - c0
      in
      match f () with
      | r -> finish (); r
      | exception e -> finish (); raise e
    end

  (* A root span for operation [i]. *)
  let op_span i nm f =
    cur_op := i;
    span nm f

  (* A span the library timed itself (a Sink [_seconds] observation that
     just ended), hung under the current span. *)
  let observed nm dur =
    if !tracing then begin
      let id = reserve nm in
      let s1 = now () in
      Float.Array.set !t0 id (s1 -. dur);
      Float.Array.set !t1 id s1
    end

  type layer = {
    mutable calls : int;
    mutable self : float;  (** seconds, span minus its children *)
    mutable words : float;
    mutable collections : int;
  }

  (* Per span name: calls, self time, self words, self collections.  Also
     the total of root op spans and the part of it their children cover. *)
  let aggregate () =
    let k = !n in
    let cdur = Float.Array.make k 0. and cwords = Float.Array.make k 0. in
    let cgcs = Array.make k 0 in
    for i = 0 to k - 1 do
      let p = !parent.(i) in
      if p >= 0 then begin
        Float.Array.set cdur p
          (Float.Array.get cdur p +. Float.Array.get !t1 i -. Float.Array.get !t0 i);
        Float.Array.set cwords p (Float.Array.get cwords p +. Float.Array.get !alloc i);
        cgcs.(p) <- cgcs.(p) + !gcs.(i)
      end
    done;
    let tbl = Hashtbl.create 32 in
    let roots = ref 0. and covered = ref 0. in
    for i = 0 to k - 1 do
      let d = Float.Array.get !t1 i -. Float.Array.get !t0 i in
      let l =
        match Hashtbl.find_opt tbl !name.(i) with
        | Some l -> l
        | None ->
          let l = { calls = 0; self = 0.; words = 0.; collections = 0 } in
          Hashtbl.add tbl !name.(i) l;
          l
      in
      l.calls <- l.calls + 1;
      l.self <- l.self +. d -. Float.Array.get cdur i;
      l.words <- l.words +. Float.Array.get !alloc i -. Float.Array.get cwords i;
      l.collections <- l.collections + !gcs.(i) - cgcs.(i);
      if !parent.(i) < 0 && !op.(i) >= 0 && String.length !name.(i) > 0
         && (String.starts_with ~prefix:"server." !name.(i)
             || String.starts_with ~prefix:"scan." !name.(i))
      then begin
        roots := !roots +. d;
        covered := !covered +. Float.Array.get cdur i
      end
    done;
    (tbl, !roots, !covered)

  let write path =
    let oc = open_out path in
    for i = 0 to !n - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"op\":%d,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f,\"alloc_words\":%.0f,\"collections\":%d}\n"
        i !name.(i) !op.(i) !parent.(i) (Float.Array.get !t0 i)
        (Float.Array.get !t1 i) (Float.Array.get !alloc i) !gcs.(i)
    done;
    close_out oc
end

let span = Spans.span

(* Counting sink for the traced replay: forwards to the registry sink the
   server would use, keeps counter totals, and turns the library's own
   [_seconds] observations of its inner phases into child spans. *)
let observed_spans =
  [ ("moq_shard_index_build_seconds", "index.build");
    ("moq_shard_sweep_seconds", "shard.sweep") ]

let counting_sink inner counts =
  { Sink.count =
      (fun name k ->
        Hashtbl.replace counts name
          (k + Option.value ~default:0 (Hashtbl.find_opt counts name));
        inner.Sink.count name k);
    observe =
      (fun name v ->
        (match List.assoc_opt name observed_spans with
         | Some nm -> Spans.observed nm v
         | None -> ());
        inner.Sink.observe name v);
    set = inner.Sink.set }

(* ------------------------------------------------------------------ *)
(* Files and processes                                                 *)

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p

let vm_hwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         else None)
  |> function
  | Some v -> v
  | None -> fail "no VmHWM in %s" path

type proc = { pid : int; out : in_channel; sock : string }

let children : proc list ref = ref []

let spawn_server ~moq ~work ~db_path =
  let store = Filename.concat work "store" and sock = Filename.concat work "moq.sock" in
  rm_rf store;
  rm_rf sock;
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (Filename.concat work "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process moq
      [| moq; "serve"; "--listen"; "unix:" ^ sock; "--store"; store; "--db"; db_path;
         "--no-fsync" |]
      null out_w log
  in
  List.iter Unix.close [ out_w; log; null ];
  let p = { pid; out = Unix.in_channel_of_descr out_r; sock } in
  children := p :: !children;
  (match input_line p.out with
   | l when String.starts_with ~prefix:"listening on" l -> ()
   | l -> fail "moq serve: unexpected first line %S" l
   | exception End_of_file -> fail "moq serve exited before listening (see %s/serve.log)" work);
  p

let reap p =
  let st = try snd (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> Unix.WEXITED 255 in
  close_in_noerr p.out;
  children := List.filter (fun c -> c.pid <> p.pid) !children;
  st

let kill_server p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap p)

(* SIGTERM is the graceful stop: the server drains its queues, checkpoints
   and says so on stdout before exiting 0. *)
let stop_server p =
  Unix.kill p.pid Sys.sigterm;
  let rest = In_channel.input_all p.out in
  match reap p with
  | Unix.WEXITED 0 when String.length rest > 0 -> ()
  | _ -> fail "moq serve did not stop cleanly (stdout: %S)" rest

let () = at_exit (fun () -> List.iter kill_server !children)

(* ------------------------------------------------------------------ *)
(* The raw moqp driver                                                 *)

type conn = { fd : Unix.file_descr; rd : Frame.reader }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; rd = Frame.reader fd }

let send c req =
  match Frame.write c.fd (Proto.render_request req) with
  | Ok () -> ()
  | Error e -> fail "send: %s" (Frame.error_to_string e)

let parse_msg p =
  match Proto.parse_server_msg p with
  | Ok m -> m
  | Error e -> fail "bad server frame %S: %s" p e

let recv c =
  match Frame.read ~timeout:120. c.rd with
  | `Frame p -> parse_msg p
  | `Eof -> fail "server closed the connection"
  | `Garbage e -> fail "bad frame: %s" (Frame.error_to_string e)
  | `Timeout -> fail "no answer from the server in 120 s"

(* A frame already readable, without blocking. *)
let poll c =
  match Frame.read ~timeout:0. c.rd with
  | `Frame p -> Some (parse_msg p)
  | `Timeout -> None
  | `Eof -> fail "server closed the connection"
  | `Garbage e -> fail "bad frame: %s" (Frame.error_to_string e)

let rec await c on_event =
  let m = recv c in
  if Proto.is_event m then (on_event m; await c on_event) else m

let rpc c on_event req =
  send c req;
  await c on_event

let no_events m = fail "unexpected event %s" (Proto.render_server_msg m)

(* ------------------------------------------------------------------ *)
(* What the server does with a subscription, restated for the replay   *)
(* (the server keeps these internal)                                   *)

let origin_gamma dim = T.stationary ~start:(q (-1_000_000_000)) (Qvec.zero dim)

let query_of_kind kind ~lo ~hi =
  let interval = Fof.Interval.closed lo hi in
  match kind with
  | Proto.Sub_knn k -> if k = 1 then Fof.nearest_q ~interval else Fof.knn_q ~k ~interval
  | Proto.Sub_range b | Proto.Sub_gdist (_, b) -> Fof.within_q ~bound:b ~interval
  | Proto.Sub_agg _ -> invalid_arg "query_of_kind: agg"

let wire_instant i = Format.asprintf "%a" BX.pp_instant i

let wire_piece = function
  | MonX.TL.At (i, s) -> Proto.P_at (wire_instant i, Oid.Set.elements s)
  | MonX.TL.Span (a, b, s) -> Proto.P_span (wire_instant a, wire_instant b, Oid.Set.elements s)

let wire_row (r : Agg.row) =
  Proto.P_agg
    { poi = r.Agg.r_poi; widx = r.Agg.r_widx; w_lo = Q.to_string r.Agg.r_lo;
      w_hi = Q.to_string r.Agg.r_hi; count = r.Agg.r_count;
      density = r.Agg.r_density; distinct = r.Agg.r_distinct }

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)

type sub_spec = { kind : Proto.sub_kind; lo : Q.t; hi : Q.t }

(* One closed-loop round: an optional query on connection A, then updates
   one at a time (on B when the round has a query, else on A). *)
type round = { query : (int * Q.t * Q.t) option; updates : U.t list }

type server_input = {
  db0 : DB.t;
  subs : sub_spec list;
  rounds : round list;
  two_conns : bool;
}

let updates_of rounds = List.concat_map (fun r -> r.updates) rounds

(* [Prng.create s] starts s golden-gamma steps along one SplitMix64
   sequence, so seeds s and s + k share all but k of their draws.  Derived
   seeds are therefore hashed apart: distinct (seed, k) start at unrelated
   points of the sequence, and parts draw independent inputs. *)
let sub_seed seed k =
  Int64.to_int (Int64.shift_right_logical (Prng.next64 (Prng.create ((seed * 1_000_003) + k))) 2)

let rand_vec st bound =
  Qvec.of_list (List.init 2 (fun _ -> q (Prng.int st ((2 * bound) + 1) - bound)))

(* Gen.mixed_stream's mix (2 in 10 new, 1 in 10 terminate, the rest
   chdir, one update per time unit), drawn from a live-object array so
   each update costs O(1) to generate instead of O(N). *)
let feed_stream ~seed ~db ~count =
  let st = Prng.create seed in
  let live = Array.make (DB.cardinal db + count) 0 in
  List.iteri (fun i o -> live.(i) <- o) (DB.oids db);
  let n = ref (DB.cardinal db) and next = ref (1 + List.fold_left max 0 (DB.oids db)) in
  let out = ref [] in
  for i = 1 to count do
    let tau = q i in
    let roll = Prng.int st 10 in
    let u =
      if roll < 2 || !n = 0 then begin
        let o = !next in
        incr next;
        live.(!n) <- o;
        incr n;
        U.New { oid = o; tau; a = rand_vec st 10; b = rand_vec st 1000 }
      end
      else begin
        let j = Prng.int st !n in
        let o = live.(j) in
        if roll = 2 && !n > 1 then begin
          live.(j) <- live.(!n - 1);
          decr n;
          U.Terminate { oid = o; tau }
        end
        else U.Chdir { oid = o; tau; a = rand_vec st 10 }
      end
    in
    out := u :: !out
  done;
  List.rev !out

let feed_input ~seed ~count =
  let db0 = Gen.uniform_db ~seed ~n:10_000 () in
  let us = feed_stream ~seed:(sub_seed seed 1) ~db:db0 ~count in
  { db0; subs = []; rounds = List.map (fun u -> { query = None; updates = [ u ] }) us;
    two_conns = false }

(* A heading of the given speed in a seeded direction, rounded to
   integers. *)
let heading st speed =
  let phi = Prng.float st (2. *. Float.pi) in
  let c x = q (Float.to_int (Float.round (speed *. x))) in
  Qvec.of_list [ c (cos phi); c (sin phi) ]

(* [n] objects on a disc of radius [r_max] around [center]: radii evenly
   spread, seeded angles and seeded headings at one speed.  Every seed
   gives the same density of objects and of crossings around the centre,
   so runs with different seeds do comparable work. *)
let disc_db ?(db = DB.empty ~dim:2 ~tau:(q 0)) ?(first = 1) ?(center = (0, 0)) ~seed ~n
    ~r_max ~speed () =
  let st = Prng.create seed in
  let cx, cy = center in
  let db = ref db in
  for j = 0 to n - 1 do
    let r = r_max *. (float_of_int j +. 0.5) /. float_of_int n in
    let th = Prng.float st (2. *. Float.pi) in
    let at x = Float.to_int (Float.round (r *. x)) in
    let b = Qvec.of_list [ q (cx + at (cos th)); q (cy + at (sin th)) ] in
    db := DB.add_initial !db (first + j) (T.linear ~start:(q 0) ~a:(heading st speed) ~b)
  done;
  !db

(* Round-robin chdirs: update i turns object i mod n to a fresh seeded
   heading at the same speed, [gap] after the previous update. *)
let turn_stream ~seed ~oids ~start ~gap ~count ~speed =
  let st = Prng.create seed in
  let oids = Array.of_list oids in
  let out = ref [] in
  for i = 0 to count - 1 do
    let tau = Q.add start (Q.mul (q (i + 1)) gap) in
    out := U.Chdir { oid = oids.(i mod Array.length oids); tau; a = heading st speed } :: !out
  done;
  List.rev !out

(* Motion per update sets the support changes, and so the pieces, that
   each update produces.  Half a time unit gives every update several,
   so update latency is not a mixture of updates with and without
   events, whose median jumps between the two. *)
let watch_gap = Q.of_ints 1 2

let watch_input ~seed ~count =
  let db0 = disc_db ~seed ~n:32 ~r_max:100. ~speed:6. () in
  let us =
    turn_stream ~seed:(sub_seed seed 1) ~oids:(DB.oids db0) ~start:(q 0) ~gap:watch_gap ~count
      ~speed:6.
  in
  let lo = q 0 and hi = Q.add (Q.mul (q count) watch_gap) (q 10) in
  let range r = { kind = Proto.Sub_range (q (r * r)); lo; hi } in
  let subs =
    List.map range [ 20; 30; 40; 50; 60; 80 ]
    @ [ { kind = Proto.Sub_knn 1; lo; hi };
        { kind =
            Proto.Sub_agg
              { d = q 25; window = q 8;
                pois = [ [ q 0; q 0 ]; [ q 40; q (-20) ]; [ q (-30); q 30 ] ] };
          lo; hi } ]
  in
  { db0; subs; rounds = List.map (fun u -> { query = None; updates = [ u ] }) us;
    two_conns = false }

(* Queries cycle through 18 half-unit past windows inside [0, 40], so a
   run's work averages over most of the seed's history; every update is
   timed after 40, so no update can change a query's answer or its sweep
   work. *)
let mixed_k = 8
let mixed_windows = Array.init 18 (fun i -> (q ((2 * i) + 2), Q.add (q ((2 * i) + 2)) (Q.of_ints 1 2)))
let mixed_per_round = 4
let mixed_think = 0.01

let mixed_input ~seed ~rounds =
  let db = disc_db ~seed ~n:100 ~r_max:200. ~speed:5. () in
  let db =
    disc_db ~db ~first:101 ~center:(10_000, 0) ~seed:(sub_seed seed 3) ~n:100 ~r_max:200. ~speed:5. ()
  in
  let oids = DB.oids db in
  let hist = turn_stream ~seed:(sub_seed seed 2) ~oids ~start:(q 0) ~gap:(Q.of_ints 1 5) ~count:200 ~speed:5. in
  let db0 = DB.apply_all_exn db hist in
  let us =
    turn_stream ~seed:(sub_seed seed 1) ~oids ~start:(q 40) ~gap:(q 1)
      ~count:(rounds * mixed_per_round) ~speed:5.
  in
  let rec cut i us =
    if i = rounds then []
    else begin
      let mine = List.filteri (fun j _ -> j < mixed_per_round) us in
      let rest = List.filteri (fun j _ -> j >= mixed_per_round) us in
      let lo, hi = mixed_windows.(i mod Array.length mixed_windows) in
      { query = Some (mixed_k, lo, hi); updates = mine } :: cut (i + 1) rest
    end
  in
  { db0; subs = []; rounds = cut 0 us; two_conns = true }

(* ------------------------------------------------------------------ *)
(* End-to-end run against moq serve                                    *)

type e2e = {
  setups : float list;
  rss_mb : float;
  upd_ms : float list;
  qry_ms : float list;
  wall : float;  (** the measured phase *)
  cpu : float;  (** CPU seconds of the server's threads in the measured phase *)
  upd_cpu_ms : float list;  (** server CPU per update *)
  qry_cpu_ms : float list;  (** server CPU from a query's send to its answer *)
  streams : Proto.piece list array;  (** per subscription, in arrival order *)
  answers : Proto.piece list list;  (** per query, in round order *)
  failed : int;
  dropped : int;
  counters : (string * int) list;  (** the server's STATS counters *)
  request_overhead_ms : float;
}

let stats_counters body =
  match Json.of_string body with
  | Error e -> fail "STATS: %s" e
  | Ok j ->
    (match Json.member "counters" j with
     | Some (Json.Obj kvs) ->
       List.filter_map (function k, Json.Int v -> Some (k, v) | _ -> None) kvs
     | _ -> fail "STATS without counters")

(* PING round trips through the threaded Client (whose response wait
   polls) against the same PING through the raw driver: the difference is
   the client library's own cost. *)
let request_overhead c sock =
  let pings f = List.init 200 (fun _ -> let t0 = now () in f (); (now () -. t0) *. 1e3) in
  let raw =
    pings (fun () ->
        match rpc c no_events Proto.Ping with
        | Proto.R_pong _ -> ()
        | m -> fail "PING: %s" (Proto.render_server_msg m))
  in
  match Client.connect (Server.Unix_sock sock) with
  | Error e -> fail "client connect: %s" (Client.error_to_string e)
  | Ok cl ->
    ignore (Client.hello cl);
    let lib =
      pings (fun () ->
          match Client.request cl Proto.Ping with
          | Ok (Proto.R_pong _) -> ()
          | _ -> fail "client PING failed")
    in
    Client.close cl;
    median lib -. median raw

(* Work counts the server reports; they must not depend on timing. *)
let work_counters =
  [ "moq_sanitize_accepted_total"; "moq_checkpoints_total"; "moq_sweep_events_total";
    "moq_sweep_comparisons_total"; "moq_sweep_support_changes_total" ]

let run_server ~moq ~work ~db_path ~trace (inp : server_input) =
  let nsubs = List.length inp.subs in
  let start () =
    let streams = Array.make nsubs [] and index = Hashtbl.create 8 in
    let dropped = ref 0 in
    let on_event = function
      | Proto.E_pieces { sub; pieces; _ } ->
        let i = Hashtbl.find index sub in
        streams.(i) <- List.rev_append pieces streams.(i)
      | Proto.E_dropped _ -> incr dropped
      | Proto.E_complete _ | Proto.E_shutdown _ -> ()
      | m -> fail "unexpected event %s" (Proto.render_server_msg m)
    in
    let t0 = now () in
    let p = spawn_server ~moq ~work ~db_path in
    let hello () =
      let c = connect p.sock in
      (match rpc c no_events (Proto.Hello Proto.version) with
       | Proto.R_hello _ -> ()
       | m -> fail "HELLO: %s" (Proto.render_server_msg m));
      c
    in
    let a = hello () in
    let b = if inp.two_conns then hello () else a in
    List.iteri
      (fun i s ->
        match rpc a on_event (Proto.Subscribe { kind = s.kind; lo = s.lo; hi = s.hi }) with
        | Proto.R_subscribe { sub } -> Hashtbl.replace index sub i
        | m -> fail "SUBSCRIBE: %s" (Proto.render_server_msg m))
      inp.subs;
    (now () -. t0, p, a, b, streams, on_event, dropped)
  in
  let close c = try Unix.close c.fd with Unix.Unix_error _ -> () in
  let setup, p, a, b, streams, on_event, dropped = start () in
    let upd = ref [] and qry = ref [] and answers = ref [] and failed = ref 0 in
    let server_cpu, close_cpu = cpu_clock p.pid in
    let upd_cpu = ref [] and qry_cpu = ref [] in
    let cpu0 = server_cpu () in
    let t_phase = now () in
    List.iter
      (fun r ->
        let pending =
          match r.query with
          | None -> None
          | Some (k, lo, hi) ->
            let c0 = server_cpu () in
            send a (Proto.Query { kind = Proto.Qk_knn k; lo; hi });
            let t0 = now () in
            (* let the query start sweeping, so the round's updates land
               beside it *)
            Unix.sleepf mixed_think;
            Some (t0, c0)
        in
        let pending = ref pending in
        let landed m (t0, c0) =
          pending := None;
          qry := ((now () -. t0) *. 1e3) :: !qry;
          qry_cpu := ((server_cpu () -. c0) *. 1e3) :: !qry_cpu;
          match m with
          | Proto.R_query pieces -> answers := pieces :: !answers
          | m ->
            incr failed;
            answers := [] :: !answers;
            say "query failed: %s" (Proto.render_server_msg m)
        in
        List.iter
          (fun u ->
            let c0 = server_cpu () in
            let t0 = now () in
            (match rpc b on_event (Proto.Update u) with
             | Proto.R_update Proto.V_accepted -> ()
             | m -> incr failed; say "update failed: %s" (Proto.render_server_msg m));
            upd := ((now () -. t0) *. 1e3) :: !upd;
            upd_cpu := ((server_cpu () -. c0) *. 1e3) :: !upd_cpu;
            match !pending with
            | Some t0 -> (match poll a with Some m -> landed m t0 | None -> ())
            | None -> ())
          r.updates;
        match !pending with Some t0 -> landed (await a no_events) t0 | None -> ())
      inp.rounds;
    let wall = now () -. t_phase in
    let cpu = server_cpu () -. cpu0 in
    close_cpu ();
    let request_overhead_ms = if trace then request_overhead a p.sock else 0. in
    let counters =
      match rpc a on_event (Proto.Stats `Json) with
      | Proto.R_stats body -> stats_counters body
      | m -> fail "STATS: %s" (Proto.render_server_msg m)
    in
    let rss_mb = vm_hwm_mb p.pid in
    stop_server p;
    close a;
    if b != a then close b;
    { setups = [ setup ]; rss_mb; upd_ms = List.rev !upd; qry_ms = List.rev !qry; wall; cpu;
      upd_cpu_ms = List.rev !upd_cpu; qry_cpu_ms = List.rev !qry_cpu;
      streams = Array.map List.rev streams; answers = List.rev !answers;
      failed = !failed; dropped = !dropped;
      counters = List.filter (fun (k, _) -> List.mem k work_counters) counters;
      request_overhead_ms }

(* ------------------------------------------------------------------ *)
(* Layer replay: the server's commit path, call by call                *)

type body = B_mon of MonX.t | B_agg of AggX.Cont.t

type replay = {
  r_streams : Proto.piece list array;
  r_answers : Proto.piece list list;
  r_checkpoints : int;
  r_failed : int;
  r_events : int;
  r_comparisons : int;
  r_support : int;  (** monitor support changes *)
  r_mon_calls : int;
  r_event_bytes : int;
  r_ops_wall : float;
  r_db : DB.t;
}

let checkpoint_every = 256

let replay ~dir ~sink (inp : server_input) =
  rm_rf dir;
  let dim = DB.dim inp.db0 in
  let store = Store.init ~fsync:false ~checkpoint_every:max_int ~sink ~dir inp.db0 in
  let san = Sanitize.create ~sink () in
  let gdist = Gdist.euclidean_sq ~gamma:(origin_gamma dim) in
  let bodies =
    Array.of_list
      (List.map
         (fun s ->
           match s.kind with
           | Proto.Sub_agg { d; window; pois } ->
             span "agg.create" (fun () ->
                 B_agg
                   (AggX.Cont.create ~sink ~db:(Store.db store)
                      ~pois:(List.map Qvec.of_list pois) ~d ~window ~lo:s.lo ~hi:s.hi ()))
           | kind ->
             span "monitor.create" (fun () ->
                 B_mon
                   (MonX.create ~sink ~attr:true ~db:(Store.db store) ~gdist
                      ~query:(query_of_kind kind ~lo:s.lo ~hi:s.hi) ())))
         inp.subs)
  in
  let drain = function
    | B_mon m -> List.map wire_piece (MonX.drain_valid m)
    | B_agg g -> List.map wire_row (AggX.Cont.drain_rows g)
  in
  let streams = Array.map (fun b -> List.rev (drain b)) bodies in
  let seqs = Array.map List.length streams in
  let pending = ref 0 and ckpts = ref 0 and failed = ref 0 and bytes = ref 0 in
  let events = ref 0 and cmps = ref 0 and mon_calls = ref 0 in
  let answers = ref [] in
  let engine_stats () =
    Array.fold_left
      (fun (e, c, s) -> function
        | B_mon m ->
          let st = MonX.E.stats m.MonX.engine in
          let sup = st.MonX.E.crossings + st.MonX.E.births + st.MonX.E.deaths in
          (e + sup + st.MonX.E.jumps, c + st.MonX.E.comparisons, s + sup)
        | B_agg _ -> (e, c, s))
      (0, 0, 0) bodies
  in
  let e0, c0, s0 = engine_stats () in
  let opi = ref 0 in
  let commit u =
    let payload = Proto.render_request (Proto.Update u) in
    Spans.op_span !opi "server.update" (fun () ->
        (match span "proto.parse" (fun () -> Proto.parse_request_attrs ~dim payload) with
         | Ok _ -> ()
         | Error _ -> incr failed);
        (match span "durable.sanitize" (fun () -> Sanitize.classify san (Store.db store) u) with
         | Sanitize.Accepted _ ->
           (match span "durable.append" (fun () -> Store.append store u) with
            | Ok () -> ()
            | Error _ -> incr failed);
           incr pending;
           if !pending >= checkpoint_every then begin
             span "durable.checkpoint" (fun () -> Store.checkpoint_now store);
             pending := 0;
             incr ckpts
           end;
           Array.iteri
             (fun j b ->
               let r =
                 match b with
                 | B_mon m ->
                   incr mon_calls;
                   span "monitor.update" (fun () -> MonX.apply_update m u)
                 | B_agg g -> span "agg.update" (fun () -> AggX.Cont.apply_update g u)
               in
               (match r with Ok () -> () | Error _ -> incr failed);
               span "proto.render" (fun () ->
                   match drain b with
                   | [] -> ()
                   | fresh ->
                     let msg =
                       Proto.render_server_msg
                         (Proto.E_pieces { sub = j; first_seq = seqs.(j); pieces = fresh })
                     in
                     seqs.(j) <- seqs.(j) + List.length fresh;
                     bytes := !bytes + String.length msg;
                     streams.(j) <- List.rev_append fresh streams.(j)))
             bodies
         | Sanitize.Rejected _ | Sanitize.Quarantined _ -> incr failed);
        ignore (span "proto.render" (fun () ->
            Proto.render_server_msg (Proto.R_update Proto.V_accepted))));
    incr opi
  in
  let query (k, lo, hi) =
    let payload = Proto.render_request (Proto.Query { kind = Proto.Qk_knn k; lo; hi }) in
    Spans.op_span !opi "server.query" (fun () ->
        (match span "proto.parse" (fun () -> Proto.parse_request_attrs ~dim payload) with
         | Ok _ -> ()
         | Error _ -> incr failed);
        let r =
          span "knn.query" (fun () -> KnnX.run_obs ~sink ~db:(Store.db store) ~gdist ~k ~lo ~hi)
        in
        let st = r.KnnX.stats in
        events := !events + st.KnnX.E.crossings + st.KnnX.E.births + st.KnnX.E.deaths
                  + st.KnnX.E.jumps;
        cmps := !cmps + st.KnnX.E.comparisons;
        let pieces =
          span "proto.render" (fun () ->
              let p = List.map wire_piece r.KnnX.timeline in
              ignore (Proto.render_server_msg (Proto.R_query p));
              p)
        in
        answers := pieces :: !answers);
    incr opi
  in
  let t0 = now () in
  List.iter
    (fun r ->
      Option.iter query r.query;
      List.iter commit r.updates)
    inp.rounds;
  let ops_wall = now () -. t0 in
  let e1, c1, s1 = engine_stats () in
  Store.close store;
  { r_streams = Array.map List.rev streams; r_answers = List.rev !answers;
    r_checkpoints = !ckpts; r_failed = !failed; r_events = !events + e1 - e0;
    r_comparisons = !cmps + c1 - c0; r_support = s1 - s0; r_mon_calls = !mon_calls;
    r_event_bytes = !bytes; r_ops_wall = ops_wall; r_db = Store.db store }

(* Monitor calls only, timed as a whole: materialize on/off gives the
   answer-evaluation cost, registry sink vs no-op the telemetry cost. *)
let monitor_pass ~materialize ~sink (inp : server_input) =
  let dim = DB.dim inp.db0 in
  let gdist = Gdist.euclidean_sq ~gamma:(origin_gamma dim) in
  let mons =
    List.filter_map
      (fun s ->
        match s.kind with
        | Proto.Sub_agg _ -> None
        | kind ->
          Some
            (MonX.create ~sink ~attr:true ~materialize ~db:inp.db0 ~gdist
               ~query:(query_of_kind kind ~lo:s.lo ~hi:s.hi) ()))
      inp.subs
  in
  let t = ref 0. and calls = ref 0 in
  List.iter
    (fun u ->
      List.iter
        (fun m ->
          let t0 = now () in
          ignore (MonX.apply_update m u);
          t := !t +. (now () -. t0);
          incr calls;
          ignore (MonX.drain_valid m))
        mons)
    (updates_of inp.rounds);
  (!t, !calls)

(* Mobdb.apply on its own, once per update (inside the server it runs in
   both the sanitizer and the store append). *)
let mod_pass db0 us =
  ignore
    (List.fold_left
       (fun (db, i) u ->
         Spans.cur_op := i;
         match span "mod.apply" (fun () -> DB.apply db u) with
         | Ok db' -> (db', i + 1)
         | Error _ -> (db, i + 1))
       (db0, 0) us)

let pieces_per_object db =
  let objs = DB.objects db in
  ratio
    (float_of_int (List.fold_left (fun acc (_, tr) -> acc + List.length (T.pieces tr)) 0 objs))
    (float_of_int (List.length objs))

(* ------------------------------------------------------------------ *)
(* Scan: the sharded k-NN driver in this process                      *)

(* Server workloads and scan run as [parts] independent parts, each on
   inputs from its own sub-seed.  Exact arithmetic costs depend on the
   particular instants an input produces, so several inputs keep one
   seed's algebra from setting a run's numbers.  The gated times are CPU
   times (see [cpu_clock]).  p50 is the median over the parts of each
   part's own, so a stretch that slows a few parts does not move it; the
   tail is taken over the pooled samples, as a part has too few for its
   own, and throughput over the CPU time all parts took together. *)
let parts = 10
let part_seed seed j = sub_seed seed (100 + j)

let scan_n = 5_000
let scan_k = 8
let scan_cell = 256.0
let scan_batch = 50


(* Query i looks at [2 (i+1), 2 (i+1) + 10]; before it, a batch of
   chdirs at instants in (2 i, 2 (i+1)] goes through Mobdb.apply. *)
let scan_window i = (q (2 * (i + 1)), q ((2 * (i + 1)) + 10))

let scan_batches ~seed ~n ~queries =
  let st = Prng.create (sub_seed seed 1) in
  List.init queries (fun i ->
      List.init scan_batch (fun j ->
          let tau = Q.add (q (2 * i)) (Q.of_ints (2 * (j + 1)) scan_batch) in
          let a = rand_vec st 5 in
          U.Chdir { oid = 1 + Prng.int st n; tau; a }))

(* Query i is anchored at the centre of cluster 37 i mod (N / 100) of
   Gen.clustered_db (clusters of 100 objects on a square grid, 10^4
   apart), so a run's work averages over most of the seed's clusters. *)
let scan_spacing = 10_000

let scan_center i =
  let clusters = scan_n / 100 in
  let w = int_of_float (Float.ceil (sqrt (float_of_int clusters))) in
  let c = 37 * i mod clusters in
  if c = 0 then (0, 0) else (c mod w * scan_spacing, c / w * scan_spacing)

(* Objects that can matter to a k-NN query at a cluster centre: that
   cluster.  Every other cluster starts 10^4 away and cannot close that
   gap within the windows used here. *)
let within_reach db ~center:(cx, cy) lo =
  List.fold_left
    (fun acc (o, tr) ->
      match T.position tr lo with
      | Some p
        when Float.abs (Q.to_float (Qvec.get p 0) -. float_of_int cx) < 5000.
             && Float.abs (Q.to_float (Qvec.get p 1) -. float_of_int cy) < 5000. ->
        DB.add_initial acc o tr
      | _ -> acc)
    (DB.empty ~dim:(DB.dim db) ~tau:(DB.last_update db))
    (DB.objects db)

let same_timeline (ta : ShF.TL.t) (tb : KnnFl.TL.t) =
  List.length ta = List.length tb
  && List.for_all2
       (fun pa pb ->
         match pa, pb with
         | ShF.TL.Span (a, b, s), KnnFl.TL.Span (a', b', s') ->
           A.compare (BFl.to_algnum a) (BFl.to_algnum a') = 0
           && A.compare (BFl.to_algnum b) (BFl.to_algnum b') = 0
           && Oid.Set.equal s s'
         | ShF.TL.At (a, s), KnnFl.TL.At (a', s') ->
           A.compare (BFl.to_algnum a) (BFl.to_algnum a') = 0 && Oid.Set.equal s s'
         | _ -> false)
       ta tb

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let metric name v unit = (name, v, unit)

let print_result r =
  let m =
    List.map
      (fun (name, v, unit) ->
        if not (Float.is_finite v) then fail "metric %s is not finite" name;
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
      r.metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool r.correct); ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed); ("metrics", Json.Obj m) ]))

let check ok fmt =
  Printf.ksprintf
    (fun s ->
      say "check %s: %s" (if ok then "ok  " else "FAIL") s;
      ok)
    fmt

(* The exact-repeat guard: the work counts of a (workload, seed, seconds)
   run are recorded in the work directory by the first run and must be
   identical on every later one. *)
let repeat_guard ~work ~key counts =
  let path = Filename.concat work ("counts-" ^ key ^ ".txt") in
  let text = String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) counts) in
  List.iter (fun (k, v) -> say "count %s = %d" k v) counts;
  if Sys.file_exists path then begin
    let before = In_channel.with_open_text path In_channel.input_all in
    check (before = text) "work counts repeat those of the first run with this seed (%s)" path
  end
  else begin
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    check true "work counts recorded for later runs with this seed (%s)" path
  end

let print_e2e_detail ~name ms =
  if List.length ms >= 21 then begin
    let t, p = tail ms in
    say "%s: p50 %.4f ms, tail p%.2f %.4f ms over %d samples" name (median ms) p t
      (List.length ms)
  end

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the aggregated spans                         *)

let layer_names = [ "proto"; "durable"; "mod"; "monitor"; "agg"; "knn"; "index"; "shard" ]

let layer_metrics ~tbl ~ops ~e2e_wall ~roots ~covered =
  let get nm = Hashtbl.find_opt tbl nm in
  let self nm = match get nm with Some l -> l.Spans.self | None -> 0. in
  let calls nm = match get nm with Some l -> l.Spans.calls | None -> 0 in
  let mean_us nm = ratio (self nm *. 1e6) (float_of_int (calls nm)) in
  let per_op_us nm = ratio (self nm *. 1e6) (float_of_int ops) in
  let by_layer f =
    List.concat_map
      (fun layer ->
        let words = ref 0. and colls = ref 0 and n = ref 0 in
        Hashtbl.iter
          (fun nm l ->
            if String.starts_with ~prefix:(layer ^ ".") nm then begin
              words := !words +. l.Spans.words;
              colls := !colls + l.Spans.collections;
              n := !n + l.Spans.calls
            end)
          tbl;
        f layer !words !colls !n)
      layer_names
  in
  ( [ metric "proto.parse_us" (per_op_us "proto.parse") "us";
      metric "proto.render_us" (per_op_us "proto.render") "us";
      metric "durable.sanitize_us" (mean_us "durable.sanitize") "us";
      metric "durable.append_us" (mean_us "durable.append") "us";
      metric "durable.checkpoint_ms" (mean_us "durable.checkpoint" /. 1e3) "ms";
      metric "durable.checkpoint_share_pct" (100. *. ratio (self "durable.checkpoint") roots) "%";
      metric "mod.apply_us" (mean_us "mod.apply") "us";
      metric "monitor.update_us" (mean_us "monitor.update") "us";
      metric "monitor.create_ms" (mean_us "monitor.create" /. 1e3) "ms";
      metric "knn.query_ms" (mean_us "knn.query" /. 1e3) "ms";
      metric "agg.update_us" (mean_us "agg.update") "us";
      metric "server.unattributed_pct" (100. *. (1. -. ratio covered e2e_wall)) "%" ],
    by_layer (fun layer words colls n ->
        [ metric (layer ^ ".alloc_words_per_op") (ratio words (float_of_int n)) "words";
          metric (layer ^ ".gc_collections") (float_of_int colls) "count" ]) )

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  moq : string;
  work : string;
}

let key o = Printf.sprintf "%s-s%d-t%d-trace%d" o.workload o.seed o.seconds (Bool.to_int o.trace)

(* Operation counts per measured second, so a run's work is fixed by
   --seconds and every run with the same arguments does the same work. *)
let feed_per_s = 6000
(* watch runs one update per part: its cost swings widely between
   configurations, so a run averages over as many as it can *)
let watch_per_s = 9
let mixed_rounds_per_s = 12
let scan_queries_per_s = 6

type part = {
  p_inp : server_input;
  p_e2e : e2e;
  p_ok : bool;
  p_counts : (string * int) list;
  p_plain : replay option;
}

(* One part of a server workload: a freshly started server, measured and
   checked. *)
let server_part o ~name ~trace (inp : server_input) =
  let db_path = Filename.concat o.work (name ^ ".mod") in
  IO.save_db inp.db0 db_path;
  let db0 =
    match IO.load_db db_path with Ok db -> db | Error _ -> fail "cannot reload %s" db_path
  in
  let inp = { inp with db0 } in
  let e = run_server ~moq:o.moq ~work:o.work ~db_path ~trace inp in
  let us = updates_of inp.rounds in
  let n_qry = List.length e.qry_ms in
  let counter k = Option.value ~default:0 (List.assoc_opt k e.counters) in
  let pushed = Array.fold_left (fun acc s -> acc + List.length s) 0 e.streams in
  (* The in-process replay of the same inputs: the oracle for watch's
     streams, and the layer trace of every server workload. *)
  let plain =
    if name = "watch" || trace then
      Some
        (replay ~dir:(Filename.concat o.work "replay-store")
           ~sink:(Sink.of_registry (Registry.create ())) inp)
    else None
  in
  let ok_replay =
    match plain with
    | None -> true
    | Some plain ->
      check (plain.r_failed = 0) "every replayed update and query succeeds"
      && check (plain.r_streams = e.streams)
           "streamed pieces of %d subscriptions (%d pieces) equal in-process Exact monitors"
           (Array.length e.streams) pushed
      && (n_qry = 0
          || check (plain.r_answers = e.answers)
               "%d query answers equal in-process Knn.run_obs, replayed in round order" n_qry)
      && check (plain.r_checkpoints = counter "moq_checkpoints_total" - 1)
           "replayed checkpoints (%d) equal the server's, less its initial one"
           plain.r_checkpoints
  in
  (* Every update is timed after every query window, so each answer must
     equal Knn.run on the final snapshot as well. *)
  let ok_answers =
    n_qry = 0
    ||
    let final = DB.apply_all_exn db0 us in
    let gdist = Gdist.euclidean_sq ~gamma:(origin_gamma (DB.dim final)) in
    let windows = List.filter_map (fun r -> r.query) inp.rounds in
    let refs = Hashtbl.create 32 in
    let reference ((k, lo, hi) as w) =
      match Hashtbl.find_opt refs w with
      | Some p -> p
      | None ->
        let p = List.map wire_piece (KnnX.run ~db:final ~gdist ~k ~lo ~hi).KnnX.timeline in
        Hashtbl.add refs w p;
        p
    in
    check
      (List.length windows = n_qry && List.for_all2 (fun w a -> reference w = a) windows e.answers)
      "%d query answers equal in-process Knn.run on the final snapshot" n_qry
  in
  let ok_feed =
    name <> "feed"
    ||
    match Store.recover ~dir:(Filename.concat o.work "store") with
    | Error e -> check false "store recovery: %s" e
    | Ok r ->
      let expect = Sanitize.ingest_all (Sanitize.create ()) db0 us in
      check (IO.db_to_string r.Store.db = IO.db_to_string expect)
        "MOD recovered after the graceful stop is byte-identical to an in-process Sanitize replay"
  in
  let counts =
    [ ("updates_accepted", counter "moq_sanitize_accepted_total");
      ("checkpoints", counter "moq_checkpoints_total");
      ("sweep_events", counter "moq_sweep_events_total");
      ("sweep_comparisons", counter "moq_sweep_comparisons_total");
      ("support_changes", counter "moq_sweep_support_changes_total");
      ("pieces_pushed", pushed) ]
  in
  (* drop the part's files now, so their unwritten pages are discarded
     rather than flushed to disk under a later measurement *)
  rm_rf (Filename.concat o.work "store");
  rm_rf (Filename.concat o.work "replay-store");
  { p_inp = inp; p_e2e = e; p_ok = ok_replay && ok_answers && ok_feed; p_counts = counts;
    p_plain = plain }

let server_workload o ~name (inputs : server_input list) =
  (* only the first part is traced *)
  let ps = List.mapi (fun j inp -> server_part o ~name ~trace:(o.trace && j = 0) inp) inputs in
  let all f = List.concat_map (fun p -> f p.p_e2e) ps in
  let upd_ms = all (fun e -> e.upd_ms) and qry_ms = all (fun e -> e.qry_ms) in
  let setups = all (fun e -> e.setups) in
  let wall = List.fold_left (fun acc p -> acc +. p.p_e2e.wall) 0. ps in
  let cpu = List.fold_left (fun acc p -> acc +. p.p_e2e.cpu) 0. ps in
  let rss_mb = median (List.map (fun p -> p.p_e2e.rss_mb) ps) in
  let n_upd = List.length upd_ms and n_qry = List.length qry_ms in
  let attempted = n_upd + n_qry in
  let failed = List.fold_left (fun acc p -> acc + p.p_e2e.failed + p.p_e2e.dropped) 0 ps in
  say "%s: %d parts, %d updates, %d queries in %.3f s (server CPU %.3f s); setup %s s; server VmHWM %.1f MB"
    name (List.length ps) n_upd n_qry wall cpu
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups))
    rss_mb;
  print_e2e_detail ~name:"update" upd_ms;
  print_e2e_detail ~name:"update server CPU" (all (fun e -> e.upd_cpu_ms));
  print_e2e_detail ~name:"query" qry_ms;
  print_e2e_detail ~name:"query server CPU" (all (fun e -> e.qry_cpu_ms));
  let pushed =
    List.fold_left
      (fun acc p -> Array.fold_left (fun acc s -> acc + List.length s) acc p.p_e2e.streams)
      0 ps
  in
  if pushed > 0 then say "events_per_s: %.3f" (float_of_int pushed /. wall);
  let ok_fail = check (failed = 0) "%d of %d operations failed" failed attempted in
  let counts =
    List.map
      (fun (k, _) -> (k, List.fold_left (fun acc p -> acc + List.assoc k p.p_counts) 0 ps))
      (List.hd ps).p_counts
  in
  let ok_repeat = repeat_guard ~work:o.work ~key:(key o) counts in
  let correct = List.for_all (fun p -> p.p_ok) ps && ok_fail && ok_repeat in
  let ops_ms = if n_qry > 0 then qry_ms else upd_ms in
  let metrics =
    match ps with
    | { p_plain = Some plain; p_inp = inp; p_e2e = e; _ } :: _ when o.trace ->
      let sink =
        counting_sink (Sink.of_registry (Registry.create ())) (Hashtbl.create 64)
      in
      let us = updates_of inp.rounds in
      Spans.reset 65536;
      Spans.tracing := true;
      let r = replay ~dir:(Filename.concat o.work "replay-store") ~sink inp in
      mod_pass inp.db0 us;
      Spans.tracing := false;
      rm_rf (Filename.concat o.work "replay-store");
      let ok_same =
        check
          (r.r_streams = plain.r_streams && r.r_answers = plain.r_answers
          && r.r_events = plain.r_events && r.r_comparisons = plain.r_comparisons
          && r.r_checkpoints = plain.r_checkpoints)
          "traced replay repeats the untraced replay's pieces and counts exactly"
      in
      if not ok_same then fail "traced replay diverged";
      let tbl, roots, covered = Spans.aggregate () in
      Spans.write (Filename.concat o.work ("trace-" ^ key o ^ ".jsonl"));
      let n_upd = List.length us and n_qry = List.length e.qry_ms in
      let core, alloc =
        layer_metrics ~tbl ~ops:(n_upd + n_qry) ~e2e_wall:e.wall ~roots ~covered
      in
      let pass ~materialize ~sink = monitor_pass ~materialize ~sink inp in
      let registry () = Sink.of_registry (Registry.create ()) in
      let mon_on, calls = pass ~materialize:true ~sink:(registry ()) in
      let mon_off, _ = pass ~materialize:false ~sink:(registry ()) in
      let mon_noop, _ = pass ~materialize:true ~sink:Sink.noop in
      let stalled = List.length (List.filter (fun ms -> ms > 5.) e.upd_ms) in
      let per_event x = ratio (float_of_int x) (float_of_int r.r_events) in
      core @ alloc
      @ [ metric "proto.event_bytes_per_update"
            (ratio (float_of_int r.r_event_bytes) (float_of_int n_upd)) "bytes";
          metric "durable.checkpoints" (float_of_int r.r_checkpoints) "count";
          metric "mod.pieces_per_object" (pieces_per_object r.r_db) "count";
          metric "monitor.answer_us"
            (ratio ((mon_on -. mon_off) *. 1e6) (float_of_int calls)) "us";
          metric "monitor.support_changes_per_update"
            (ratio (float_of_int r.r_support) (float_of_int r.r_mon_calls)) "count";
          metric "engine.events" (float_of_int r.r_events) "count";
          metric "engine.comparisons_per_event" (per_event r.r_comparisons) "count";
          metric "engine.comparisons_vs_lemma9"
            (ratio (per_event r.r_comparisons)
               (8. +. (4. *. Float.log2 (float_of_int (DB.cardinal r.r_db + 1))))) "ratio";
          metric "index.build_ms" 0. "ms"; metric "shard.sweep_ms" 0. "ms";
          metric "shard.ns_per_event" 0. "ns"; metric "shard.prune_rate" 0. "ratio";
          metric "backend.filter_hit_rate" 0. "ratio";
          metric "server.stalled_updates" (float_of_int stalled) "count";
          metric "obs.sink_overhead_pct" (100. *. ratio (mon_on -. mon_noop) mon_noop) "%";
          metric "client.request_overhead_ms" e.request_overhead_ms "ms";
          metric "trace.overhead_pct"
            (100. *. ratio (r.r_ops_wall -. plain.r_ops_wall) plain.r_ops_wall) "%";
          metric "trace.spans" (float_of_int !Spans.n) "count" ]
    | _ ->
      let op_cpu e = if n_qry > 0 then e.qry_cpu_ms else e.upd_cpu_ms in
      let t, _ = tail (all op_cpu) in
      let p50 = median (List.map (fun p -> median (op_cpu p.p_e2e)) ps) in
      [ metric "setup_s" (median setups) "s"; metric "peak_rss_mb" rss_mb "MB";
        metric "ops_per_cpu_s" (float_of_int (List.length ops_ms) /. cpu) "1/s";
        metric "op_cpu_p50_ms" p50 "ms"; metric "op_cpu_tail_ms" t "ms" ]
  in
  { correct; attempted; failed; metrics }

let scan_path ~work j = Filename.concat work (Printf.sprintf "scan-%d.mod" j)

(* Writes the scan databases; run in a child process, so the measured
   process's memory high-water mark is its own. *)
let scan_gen ~seed ~work =
  for j = 0 to parts - 1 do
    IO.save_db (Gen.clustered_db ~seed:(part_seed seed j) ~n:scan_n ()) (scan_path ~work j)
  done

(* scan also runs as [parts] parts, each on its own database; query i of
   part j is the run's query j * per_part + i, which picks its cluster. *)
let scan_workload o =
  let self = Sys.executable_name in
  (match
     Unix.create_process self
       [| self; "--gen-scan"; o.work; "--seed"; string_of_int o.seed |]
       Unix.stdin Unix.stdout Unix.stderr
   with
   | pid ->
     (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> fail "scan database generation failed"));
  let per_part = scan_queries_per_s * o.seconds / parts in
  let queries = per_part * parts in
  let gamma i =
    let cx, cy = scan_center i in
    T.stationary ~start:(q 0) (Qvec.of_list [ q cx; q cy ])
  in
  let run ~sink ~part db0 ~on_query =
    let batches = scan_batches ~seed:(part_seed o.seed part) ~n:scan_n ~queries:per_part in
    let db = ref db0 and upd = ref [] and qry = ref [] and qcpu = ref [] and tls = ref [] in
    List.iteri
      (fun i batch ->
        let g = (part * per_part) + i in
        Spans.op_span g "scan.query" (fun () ->
            List.iter
              (fun u ->
                let t0 = now () in
                db := span "mod.apply" (fun () -> DB.apply_exn !db u);
                upd := ((now () -. t0) *. 1e3) :: !upd)
              batch;
            let lo, hi = scan_window i in
            let c0 = self_cpu () in
            let t0 = now () in
            let r =
              span "shard.query" (fun () ->
                  ShF.run_obs ~sink ~db:!db ~gamma:(gamma g) ~k:scan_k ~lo ~hi ~cell:scan_cell ())
            in
            qry := ((now () -. t0) *. 1e3) :: !qry;
            qcpu := ((self_cpu () -. c0) *. 1e3) :: !qcpu;
            on_query r;
            tls := (g, !db, lo, hi, r) :: !tls))
      batches;
    let qry = List.rev !qry and upd = List.rev !upd in
    ((List.fold_left ( +. ) 0. qry +. List.fold_left ( +. ) 0. upd) /. 1e3, upd, qry,
     List.rev !qcpu, List.rev !tls)
  in
  let events r =
    let s = r.ShF.stats in
    s.ShF.E.crossings + s.ShF.E.births + s.ShF.E.deaths + s.ShF.E.jumps
  in
  let count_names =
    [ "shard_events"; "events"; "comparisons"; "admitted"; "pruned"; "timeline_pieces" ]
  in
  let part_counts results =
    let total f = List.fold_left (fun acc (_, _, _, _, r) -> acc + f r) 0 results in
    [ total (fun r -> r.ShF.shard.ShF.shard_events); total events;
      total (fun r -> r.ShF.stats.ShF.E.comparisons);
      total (fun r -> r.ShF.shard.ShF.admitted); total (fun r -> r.ShF.shard.ShF.pruned);
      total (fun r -> List.length r.ShF.timeline) ]
  in
  (* Each part is checked as soon as it has been measured and then
     dropped, so no part sweeps beside another part's live data. *)
  let cpu = ref 0. in
  let qry_cpu = ref [] (* per part, in reverse *) in
  let runs =
    List.init parts (fun j ->
        let path = scan_path ~work:o.work j in
        let t0 = now () in
        let db =
          match IO.load_db path with Ok db -> db | Error _ -> fail "cannot parse %s" path
        in
        let setup = now () -. t0 in
        Sys.remove path;
        let cpu0 = self_cpu () in
        let wall, upd, qry, qcpu, results = run ~sink:Sink.noop ~part:j db ~on_query:ignore in
        cpu := !cpu +. (self_cpu () -. cpu0);
        qry_cpu := qcpu :: !qry_cpu;
        let ok =
          List.for_all
            (fun (i, db, lo, hi, r) ->
              let near = within_reach db ~center:(scan_center i) lo in
              let gdist = Gdist.euclidean_sq ~gamma:(gamma i) in
              same_timeline r.ShF.timeline
                (KnnFl.run ~db:near ~gdist ~k:scan_k ~lo ~hi).KnnFl.timeline)
            results
        in
        (setup, (if j = 0 then Some db else None), wall, upd, qry, ok, part_counts results))
  in
  let setups = List.map (fun (s, _, _, _, _, _, _) -> s) runs in
  let db0 =
    match runs with (_, Some db, _, _, _, _, _) :: _ -> db | _ -> fail "no first part"
  in
  let wall = List.fold_left (fun acc (_, _, w, _, _, _, _) -> acc +. w) 0. runs in
  let upd_ms = List.concat_map (fun (_, _, _, u, _, _, _) -> u) runs in
  let qry_ms = List.concat_map (fun (_, _, _, _, q, _, _) -> q) runs in
  let rss_mb = vm_hwm_mb 0 in
  say "scan: %d parts of N=%d, %d queries and %d updates in %.3f s (CPU %.3f s); setup %s s; VmHWM %.1f MB"
    parts scan_n queries (List.length upd_ms) wall !cpu
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups))
    rss_mb;
  print_e2e_detail ~name:"query" qry_ms;
  print_e2e_detail ~name:"query CPU" (List.concat !qry_cpu);
  print_e2e_detail ~name:"update" upd_ms;
  let ok_answers =
    check
      (List.for_all (fun (_, _, _, _, _, ok, _) -> ok) runs)
      "%d sharded answers equal an unsharded Filtered sweep over the objects within reach"
      queries
  in
  let counts =
    List.mapi
      (fun k name ->
        (name, List.fold_left (fun acc (_, _, _, _, _, _, c) -> acc + List.nth c k) 0 runs))
      count_names
  in
  let ok_repeat = repeat_guard ~work:o.work ~key:(key o) counts in
  let correct = ok_answers && ok_repeat in
  let attempted = queries + List.length upd_ms in
  let metrics =
    if not o.trace then
      let t, _ = tail (List.concat !qry_cpu) in
      let p50 = median (List.map median !qry_cpu) in
      [ metric "setup_s" (median setups) "s"; metric "peak_rss_mb" rss_mb "MB";
        metric "ops_per_cpu_s" (float_of_int queries /. !cpu) "1/s";
        metric "op_cpu_p50_ms" p50 "ms"; metric "op_cpu_tail_ms" t "ms" ]
    else begin
      (* the first part again, untraced and then traced *)
      let plain_wall, _, _, _, _ = run ~sink:Sink.noop ~part:0 db0 ~on_query:ignore in
      let sink_counts = Hashtbl.create 64 in
      let sink = counting_sink Sink.noop sink_counts in
      let hits = ref 0 and misses = ref 0 in
      Spans.reset 65536;
      Spans.tracing := true;
      let traced_wall, _, _, _, tr =
        run ~sink ~part:0 db0 ~on_query:(fun _ ->
            let f = BFl.filter_stats () in
            hits := !hits + f.BFl.hits;
            misses := !misses + f.BFl.misses;
            BFl.reset_filter_stats ())
      in
      Spans.tracing := false;
      let tbl, roots, covered = Spans.aggregate () in
      Spans.write (Filename.concat o.work ("trace-" ^ key o ^ ".jsonl"));
      let part0_wall = match runs with (_, _, w, _, _, _, _) :: _ -> w | [] -> 0. in
      let core, alloc =
        layer_metrics ~tbl ~ops:per_part ~e2e_wall:part0_wall ~roots ~covered
      in
      let self nm = match Hashtbl.find_opt tbl nm with Some l -> l.Spans.self | None -> 0. in
      let c k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt sink_counts k)) in
      let sum_tr f = List.fold_left (fun acc (_, _, _, _, r) -> acc + f r) 0 tr in
      let n_events = float_of_int (sum_tr events)
      and cmp = float_of_int (sum_tr (fun r -> r.ShF.stats.ShF.E.comparisons)) in
      let adm = c "moq_shard_admissions_total" and pr = c "moq_shard_prunes_total" in
      let db_final = match List.rev tr with (_, db, _, _, _) :: _ -> db | [] -> db0 in
      core @ alloc
      @ [ metric "proto.event_bytes_per_update" 0. "bytes";
          metric "durable.checkpoints" 0. "count";
          metric "mod.pieces_per_object" (pieces_per_object db_final) "count";
          metric "monitor.answer_us" 0. "us";
          metric "monitor.support_changes_per_update" 0. "count";
          metric "engine.events" n_events "count";
          metric "engine.comparisons_per_event" (ratio cmp n_events) "count";
          metric "engine.comparisons_vs_lemma9"
            (ratio (ratio cmp n_events) (8. +. (4. *. Float.log2 (float_of_int (scan_n + 1))))) "ratio";
          metric "index.build_ms" (ratio (self "index.build" *. 1e3) (float_of_int per_part)) "ms";
          metric "shard.sweep_ms" (ratio (self "shard.sweep" *. 1e3) (float_of_int per_part)) "ms";
          metric "shard.ns_per_event" (ratio (self "shard.sweep" *. 1e9) (c "moq_shard_events_total")) "ns";
          metric "shard.prune_rate" (ratio pr (adm +. pr)) "ratio";
          metric "backend.filter_hit_rate" (ratio (float_of_int !hits) (float_of_int (!hits + !misses))) "ratio";
          metric "server.stalled_updates" 0. "count";
          metric "obs.sink_overhead_pct" 0. "%";
          metric "client.request_overhead_ms" 0. "ms";
          metric "trace.overhead_pct" (100. *. ratio (traced_wall -. plain_wall) plain_wall) "%";
          metric "trace.spans" (float_of_int !Spans.n) "count" ]
    end
  in
  { correct; attempted; failed = 0; metrics }

(* Each part does [rate * seconds / parts] operations. *)
let part_inputs ?(parts = parts) o make rate =
  List.init parts (fun j -> make ~seed:(part_seed o.seed j) ~n:(rate * o.seconds / parts))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let moq = ref "" and work = ref "" and gen_scan = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "feed|watch|mixed|scan");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "run length (scales the fixed operation count)");
      ("--trace", Arg.Set_int trace, "1: print the per-layer metrics of a traced replay");
      ("--moq", Arg.Set_string moq, "path to moq.exe");
      ("--work", Arg.Set_string work, "scratch directory");
      ("--gen-scan", Arg.Set_string gen_scan, "write the scan databases into this directory and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "moqbench --workload W --seed N --seconds S --trace 0|1 --moq PATH --work DIR";
  if !gen_scan <> "" then scan_gen ~seed:!seed ~work:!gen_scan
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let o =
      { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
        moq = !moq; work = !work }
    in
    if o.seconds < 1 then fail "--seconds must be positive";
    let r =
      match o.workload with
      | "feed" ->
        server_workload o ~name:"feed"
          (part_inputs o (fun ~seed ~n -> feed_input ~seed ~count:n) feed_per_s)
      | "watch" ->
        server_workload o ~name:"watch"
          (part_inputs ~parts:(watch_per_s * o.seconds) o
             (fun ~seed ~n -> watch_input ~seed ~count:n) watch_per_s)
      | "mixed" ->
        server_workload o ~name:"mixed"
          (part_inputs o (fun ~seed ~n -> mixed_input ~seed ~rounds:n) mixed_rounds_per_s)
      | "scan" -> scan_workload o
      | w -> fail "unknown workload %S" w
    in
    print_result r
  end
