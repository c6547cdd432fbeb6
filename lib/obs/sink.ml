(* The instrumentation boundary.  Hot paths (engine batches, WAL appends)
   hold a [Sink.t] — three closures — and the default is {!noop}, so an
   uninstrumented engine pays one physical-equality test per batch and
   nothing else.  {!of_registry} builds a live sink that resolves metric
   names to registry handles once and caches them, so steady-state cost is
   one hashtable hit per call. *)

type t = {
  count : string -> int -> unit;     (* monotonic counter increment *)
  observe : string -> float -> unit; (* histogram observation *)
  set : string -> float -> unit;     (* gauge assignment *)
}

let noop = { count = (fun _ _ -> ()); observe = (fun _ _ -> ()); set = (fun _ _ -> ()) }

let active t = t != noop

let count t name n = t.count name n
let observe t name v = t.observe name v
let set t name v = t.set name v

let wall = Unix.gettimeofday

(* Durations are differences of this clock: unlike [wall], it never
   steps back or jumps when the system time is set. *)
let monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Time [f] and observe its duration under [name]; free on the no-op
   sink. *)
let time t name f =
  if t == noop then f ()
  else begin
    let t0 = monotonic () in
    Fun.protect ~finally:(fun () -> t.observe name (monotonic () -. t0)) f
  end

let of_registry reg =
  (* One mutex guards all three handle caches: sinks are shared across
     session/monitor/repl threads and Hashtbl is not thread-safe. *)
  let cache_m = Mutex.create () in
  let counters : (string, Registry.counter) Hashtbl.t = Hashtbl.create 32 in
  let gauges : (string, Registry.gauge) Hashtbl.t = Hashtbl.create 16 in
  let histos : (string, Histo.t) Hashtbl.t = Hashtbl.create 16 in
  let cached tbl make name =
    Mutex.lock cache_m;
    let v =
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
        let v = try make name with e -> Mutex.unlock cache_m; raise e in
        Hashtbl.add tbl name v;
        v
    in
    Mutex.unlock cache_m;
    v
  in
  (* Attach the glossary HELP text (when the name has one) at handle
     creation, so sink-counted metrics export with a [# HELP] line. *)
  let counter name =
    cached counters (fun n -> Registry.counter ?help:(Help.find n) reg n) name
  in
  let gauge name =
    cached gauges (fun n -> Registry.gauge ?help:(Help.find n) reg n) name
  in
  let histo name =
    cached histos (fun n -> Registry.histogram ?help:(Help.find n) reg n) name
  in
  { count = (fun name n -> Registry.add (counter name) n);
    observe = (fun name v -> Histo.observe (histo name) v);
    set = (fun name v -> Registry.set (gauge name) v);
  }
