(** Span tracer with a bounded ring buffer.

    Spans carry wall-clock and process-CPU start/stop times, the nesting
    depth at open time, and timestamped annotations.  Finished spans are
    kept in a ring of [capacity] entries — tracing is constant-memory over
    arbitrarily long runs, retaining the most recent spans (evictions are
    counted).

    Cross-process stitching: a {!ctx} is a (trace id, span id) pair carried
    across moqp as a [trace=<id>/<span>] attribute; spans tagged with a ctx
    and harvested from several tracers (each labelled with a host) correlate
    into one causal trace.  All operations are thread-safe. *)

type t
type span

type ctx = { trace_id : int; span_id : int }
(** Cross-process correlation handle; ids are 60-bit non-negative. *)

val new_ctx : unit -> ctx

val ctx_to_string : ctx -> string
(** Wire form ["<trace_id>/<span_id>"], lowercase hex. *)

val create : ?capacity:int -> ?host:string -> unit -> t
(** Default capacity 512.  [host] labels every span recorded through this
    tracer (e.g. ["primary"]).  @raise Invalid_argument when capacity is
    non-positive. *)

val host : t -> string

val begin_span : ?ctx:ctx -> t -> string -> span
val end_span : t -> span -> unit
(** Idempotent — a second end is ignored. *)

val annotate : span -> string -> unit
(** Attach a timestamped note; ignored on a closed span. *)

val record :
  ?depth:int -> ?ctx:ctx -> t -> name:string -> start:float -> dur:float -> unit -> span
(** Insert an already-measured span: [start] is absolute wall time, [dur]
    wall seconds.  Used for intervals measured outside a begin/end bracket
    (queue waits, cross-process link transit).  CPU time reports zero. *)

val with_span : ?ctx:ctx -> t -> string -> (unit -> 'a) -> 'a
(** Exception-safe begin/end bracket. *)

val spans : t -> span list
(** Finished spans, oldest retained first. *)

val duration : span -> float
(** Wall seconds. *)

val events : span -> (float * string) list
val span_name : span -> string
val span_depth : span -> int
val span_ctx : span -> ctx option
val span_host : span -> string
val span_start : span -> float
(** Absolute wall time of span start. *)

val epoch : t -> float
val finished_count : t -> int
val dropped_count : t -> int
val open_count : t -> int

val pp : Format.formatter -> t -> unit
(** Human-readable span log: offsets relative to the trace epoch,
    indentation by depth, annotations inline, host/ctx tags appended. *)

val to_json : t -> Json.t
