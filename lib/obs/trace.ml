(* Lightweight span tracer.  A span records wall-clock start/stop
   (Unix.gettimeofday) and process-CPU start/stop (Sys.time — monotone
   non-decreasing, so durations survive wall-clock adjustments), its nesting
   depth at open time, and timestamped event annotations.  Finished spans
   land in a bounded ring buffer: a long-running monitor can trace forever
   in constant memory, keeping the most recent [capacity] spans.

   Cross-process stitching: a span may carry a {!ctx} — a (trace id, span
   id) pair that rides moqp frames as a `trace=<id>/<span>` attribute — and
   every tracer carries a host label, so spans harvested from several
   tracers (primary, follower, client) can be correlated into one causal
   trace.  {!record} inserts an already-measured span (start + duration)
   directly into the ring; that is how pipeline stages observed on other
   threads (queue wait, link transit) become spans without a begin/end
   bracket on the recording thread. *)

type ctx = { trace_id : int; span_id : int }

let ctx_to_string c = Printf.sprintf "%x/%x" c.trace_id c.span_id

(* Process-global id generator: a splitmix-style counter seeded from wall
   clock + pid, masked to 60 bits so ids stay positive on 64-bit OCaml and
   render compactly in hex. *)
let id_state =
  ref
    (Hashtbl.hash (Unix.gettimeofday ()) lxor (Unix.getpid () lsl 20)
     lxor Hashtbl.hash (Sys.executable_name))

let id_m = Mutex.create ()

let fresh_id () =
  Mutex.lock id_m;
  let z = !id_state + 0x2545F4914F6CDD1D in
  id_state := z;
  Mutex.unlock id_m;
  let z = (z lxor (z lsr 30)) * 0x27BB2EE687B0B0FD in
  let z = (z lxor (z lsr 27)) * 0x2545F4914F6CDD1D in
  (z lxor (z lsr 31)) land 0xFFF_FFFF_FFFF_FFF

let new_ctx () = { trace_id = fresh_id (); span_id = fresh_id () }

type span = {
  id : int;
  name : string;
  depth : int;
  ctx : ctx option;  (* cross-process correlation, when propagated *)
  host : string;     (* tracer host label at record time *)
  wall_start : float;
  cpu_start : float;
  mutable wall_stop : float;
  mutable cpu_stop : float;
  mutable events : (float * string) list; (* (wall time, note), newest first *)
  mutable closed : bool;
}

type t = {
  capacity : int;
  ring : span option array;
  mutable pos : int;       (* next write slot *)
  mutable finished : int;  (* total spans ever finished *)
  mutable dropped : int;   (* finished spans evicted by the ring *)
  mutable stack : span list;
  mutable next_id : int;
  host : string;
  epoch : float;           (* wall time at creation; offsets are relative *)
  m : Mutex.t;             (* spans are begun/ended/recorded from many threads *)
}

let create ?(capacity = 512) ?(host = "") () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; ring = Array.make capacity None; pos = 0; finished = 0; dropped = 0;
    stack = []; next_id = 0; host; epoch = Unix.gettimeofday (); m = Mutex.create () }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let epoch t = t.epoch
let host t = t.host
let finished_count t = locked t @@ fun () -> t.finished
let dropped_count t = locked t @@ fun () -> t.dropped
let open_count t = locked t @@ fun () -> List.length t.stack

let begin_span ?ctx t name =
  locked t @@ fun () ->
  let s =
    { id = t.next_id; name; depth = List.length t.stack; ctx; host = t.host;
      wall_start = Unix.gettimeofday (); cpu_start = Sys.time ();
      wall_stop = nan; cpu_stop = nan; events = []; closed = false }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  s

let annotate s note =
  if not s.closed then s.events <- (Unix.gettimeofday (), note) :: s.events

let push_finished t s =
  if t.ring.(t.pos) <> None then t.dropped <- t.dropped + 1;
  t.ring.(t.pos) <- Some s;
  t.pos <- (t.pos + 1) mod t.capacity;
  t.finished <- t.finished + 1

let end_span t s =
  locked t @@ fun () ->
  if not s.closed then begin
    s.wall_stop <- Unix.gettimeofday ();
    s.cpu_stop <- Sys.time ();
    s.closed <- true;
    t.stack <- List.filter (fun x -> x != s) t.stack;
    push_finished t s
  end

(* Insert an already-measured span: [start] is an absolute wall time, [dur]
   wall seconds.  CPU time is unknown for externally-measured intervals and
   reports as zero. *)
let record ?(depth = 0) ?ctx t ~name ~start ~dur () =
  locked t @@ fun () ->
  let s =
    { id = t.next_id; name; depth; ctx; host = t.host;
      wall_start = start; cpu_start = 0.0;
      wall_stop = start +. dur; cpu_stop = 0.0; events = []; closed = true }
  in
  t.next_id <- t.next_id + 1;
  push_finished t s;
  s

let with_span ?ctx t name f =
  let s = begin_span ?ctx t name in
  Fun.protect ~finally:(fun () -> end_span t s) f

(* Finished spans, oldest retained first. *)
let spans t =
  locked t @@ fun () ->
  let out = ref [] in
  for k = t.capacity - 1 downto 0 do
    let i = (t.pos + k) mod t.capacity in
    match t.ring.(i) with Some s -> out := s :: !out | None -> ()
  done;
  !out

let duration s = s.wall_stop -. s.wall_start
let cpu_duration s = s.cpu_stop -. s.cpu_start
let events s = List.rev s.events
let span_name s = s.name
let span_depth s = s.depth
let span_ctx (s : span) = s.ctx
let span_host (s : span) = s.host
let span_start (s : span) = s.wall_start

let span_tag (s : span) =
  match (s.host, s.ctx) with
  | "", None -> ""
  | h, None -> Printf.sprintf " [%s]" h
  | "", Some c -> Printf.sprintf " [%s]" (ctx_to_string c)
  | h, Some c -> Printf.sprintf " [%s %s]" h (ctx_to_string c)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf fmt "%*s[%+9.6fs] %s (%.3f ms wall, %.3f ms cpu)%s@,"
        (2 * s.depth) "" (s.wall_start -. t.epoch) s.name
        (1e3 *. duration s) (1e3 *. cpu_duration s) (span_tag s);
      List.iter
        (fun (at, note) ->
          Format.fprintf fmt "%*s  - [%+9.6fs] %s@," (2 * s.depth) "" (at -. t.epoch) note)
        (events s))
    (spans t);
  if dropped_count t > 0 then
    Format.fprintf fmt "(%d earlier spans evicted by the %d-span ring)@,"
      (dropped_count t) t.capacity;
  Format.fprintf fmt "@]"

let to_json t =
  let span_json s =
    Json.Obj
      ([ ("id", Json.Int s.id);
         ("name", Json.Str s.name);
         ("depth", Json.Int s.depth);
         ("start_s", Json.Float (s.wall_start -. t.epoch));
         ("wall_s", Json.Float (duration s));
         ("cpu_s", Json.Float (cpu_duration s));
       ]
       @ (match s.host with "" -> [] | h -> [ ("host", Json.Str h) ])
       @ (match s.ctx with
          | None -> []
          | Some c -> [ ("trace", Json.Str (ctx_to_string c)) ])
       @ [ ("events",
            Json.List
              (List.map
                 (fun (at, note) ->
                   Json.Obj [ ("at_s", Json.Float (at -. t.epoch)); ("note", Json.Str note) ])
                 (events s)));
         ])
  in
  Json.Obj
    [ ("finished", Json.Int (finished_count t));
      ("dropped", Json.Int (dropped_count t));
      ("spans", Json.List (List.map span_json (spans t)));
    ]
