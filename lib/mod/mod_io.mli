(** Plain-text serialization of MODs and update streams.

    A line-oriented format with exact rational coordinates, so databases and
    workloads round-trip losslessly:

    {v
    moddb 1 <dim> <last-update>
    object <oid> [death <q>]
    piece <start> <a_1> .. <a_dim> <b_1> .. <b_dim>
    ...
    v}

    and for update streams:

    {v
    updates 1 <dim>
    new <oid> <tau> <a_1> .. <a_dim> <b_1> .. <b_dim>
    chdir <oid> <tau> <a_1> .. <a_dim>
    terminate <oid> <tau>
    v} *)

exception Parse of int * string
(** Raised internally with (line, reason); the string-level entry points
    below catch it and return [Error].  Exposed so lower-level per-line
    consumers (the write-ahead log, the CLI) can report precise positions. *)

val db_to_string : Mobdb.t -> string
(** [header_line db] followed by [object_lines] of every object in OID
    order. *)

val header_line : Mobdb.t -> string
(** The [moddb] line, newline included. *)

val object_lines : Oid.t -> Trajectory.t -> string
(** One object's [object] line and its [piece] lines, each
    newline-terminated: the unit a durable store caches between
    checkpoints, so that a checkpoint re-renders only the objects that
    changed. *)

val db_of_string : string -> (Mobdb.t, string) result
(** Parse; the error carries a line number and reason.  Rejects non-positive
    dimensions, malformed rationals, and duplicate or non-increasing piece
    start times, each with the offending line number. *)

val updates_to_string : dim:int -> Update.t list -> string
val updates_of_string : string -> (Update.t list, string) result

val update_to_line : Update.t -> string
(** One update in the line format above, without the trailing newline — the
    write-ahead log's record payload. *)

val update_of_line : dim:int -> string -> (Update.t, string) result
(** Parse a single update line (inverse of {!update_to_line}). *)

val read_file : string -> string
(** Whole-file slurp. @raise Sys_error *)

val write_file : string -> string -> unit
(** [write_file path contents]. @raise Sys_error *)

val save_db : Mobdb.t -> string -> unit
(** [save_db db path]. *)

val load_db : string -> (Mobdb.t, string) result
val save_updates : dim:int -> Update.t list -> string -> unit
val load_updates : string -> (Update.t list, string) result
