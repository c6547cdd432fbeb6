(** The instrumentation boundary between the engine/durable hot paths and
    the metrics registry.

    Components take a [Sink.t] (defaulting to {!noop}) instead of a
    registry, so the functors stay agnostic of the telemetry backend and an
    uninstrumented run costs one physical-equality test per batch. *)

type t = {
  count : string -> int -> unit;     (** monotonic counter increment *)
  observe : string -> float -> unit; (** histogram observation *)
  set : string -> float -> unit;     (** gauge assignment *)
}

val noop : t
(** Discards everything.  Compare with [==]/{!active} for fast-path guards. *)

val active : t -> bool
(** [t != noop]. *)

val count : t -> string -> int -> unit
val observe : t -> string -> float -> unit
val set : t -> string -> float -> unit

val wall : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]), for instants that other
    clocks' readings are set beside (trace span starts); exposed so
    instrumented libraries need no direct unix dependency. *)

val monotonic : unit -> float
(** Seconds on a monotonic clock with an arbitrary origin: time
    durations with it, as the difference of two readings. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run [f], observing its duration on the {!monotonic} clock under
    [name]; calls [f] directly on the no-op sink. *)

val of_registry : Registry.t -> t
(** Live sink: metric names resolve to registry handles once and are
    cached. *)
