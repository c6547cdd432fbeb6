(** Leveled structured logger to stderr (JSON-lines or human text).

    One process-global configuration; emission is mutex-serialized so lines
    from concurrent threads never interleave.  Fields are [Json.t] values:

    {[ Log.info ~fields:[ ("addr", Json.Str addr); ("n", Json.Int n) ] "accepted" ]} *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> (level, string) result

val set_level : level -> unit
(** Minimum level that is emitted (default [Info]). *)

val set_json : bool -> unit
(** [true] renders one JSON object per line; [false] (default) renders
    [TIMESTAMP LEVEL msg key=value ...]. *)

val enabled : level -> bool

val debug : ?fields:(string * Json.t) list -> string -> unit
val info : ?fields:(string * Json.t) list -> string -> unit
val warn : ?fields:(string * Json.t) list -> string -> unit
val error : ?fields:(string * Json.t) list -> string -> unit
