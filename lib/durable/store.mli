(** Durable moving-object store: checkpoint + write-ahead log.

    A store is a directory holding

    - [checkpoint.mod] — a {!Moq_mod.Mod_io.db_to_string} snapshot with a
      CRC-32 trailer, written atomically (tmp file + rename);
    - [wal.log] — a {!Wal} of every accepted update since that snapshot;
    - [checkpoint.mod.prev] / [wal.log.prev] — the previous checkpoint
      generation, kept at rotation as a fallback.

    Accepted updates are fsync'd to the log before the in-memory database
    advances; every [checkpoint_every] accepts the snapshot is rewritten and
    the log rotated.  {!recover} rebuilds [(db, clock)] from snapshot + log
    suffix after a crash: log records at or before the snapshot's clock are
    skipped as stale (a crash between checkpoint and log rotation leaves
    them), and a corrupt log tail is cut at the last good record and
    reported — never raised.  When the current checkpoint itself is
    unreadable — a torn rotation or bit rot — recovery falls back to the
    previous checkpoint and replays both logs over it, reaching the same
    state.

    {b Log bound.}  After any {!append} or {!ingest} returns (an ingest's
    quarantine drain included), [wal.log] holds at most
    [checkpoint_every - 1] records: the accept that would make it
    [checkpoint_every] rotates it.  A store reopened by {!open_} counts the
    records its log already holds towards that rotation.  Recovery
    therefore replays at most [checkpoint_every - 1] records over the
    current checkpoint.

    {b Render cache.}  A checkpoint is written from a per-store cache of
    each object's rendered lines ({!Moq_mod.Mod_io.object_lines}), keyed
    by OID and holding the trajectory it rendered.  An entry is reused
    only while the database still binds that OID to the physically same
    ([==]) trajectory.  {!Moq_mod.Mobdb} is a persistent map, so an update
    rebinds one OID and leaves every other trajectory shared; a
    checkpoint then renders only the objects changed since the last one
    and copies the rest.  The bytes are exactly
    {!Moq_mod.Mod_io.db_to_string}'s.  The cache costs one rendered
    string per object (about the checkpoint's size) plus a table entry,
    and keeps at most one superseded trajectory per object alive until
    the next render.  It starts cold in {!init} and {!open_}.  The
    checkpoint streams the pieces through one 64 KiB buffer per store
    into {!Fsutil.write_all}, computing the CRC on the way. *)

module DB := Moq_mod.Mobdb
module Q := Moq_numeric.Rat
module U := Moq_mod.Update

type t

val checkpoint_file : string -> string
(** [checkpoint_file dir] — the current snapshot's path; exposed so fault
    harnesses can tear or corrupt it deliberately. *)

val checkpoint_prev_file : string -> string
val wal_file : string -> string

type recovery = {
  db : DB.t;
  clock : Q.t;  (** the recovered update clock, [DB.last_update db] *)
  replayed : int;  (** log records applied on top of the checkpoint *)
  stale_skipped : int;  (** log records predating the checkpoint *)
  invalid_skipped : int;
      (** CRC-valid records the database nevertheless refused — checkpoint
          and log disagree; counted, skipped, reported, not fatal *)
  tail : Wal.tail;
  fallback : bool;
      (** the current checkpoint was unreadable and recovery rebuilt from
          the previous generation ([checkpoint.mod.prev] + both logs) *)
}

val pp_recovery : Format.formatter -> recovery -> unit

val init :
  ?fsync:bool -> ?checkpoint_every:int -> ?sink:Moq_obs.Sink.t ->
  dir:string -> DB.t -> t
(** Create (or reset) a store seeded with a database snapshot.
    [checkpoint_every] defaults to 256 accepted updates.  [sink] receives
    WAL/checkpoint/append telemetry. *)

val recover : dir:string -> (recovery, string) result
(** Read-only reconstruction.  [Error] only when the store is absent or
    both checkpoint generations are unreadable/corrupt. *)

val recover_obs :
  sink:Moq_obs.Sink.t -> dir:string -> (recovery, string) result
(** {!recover} reporting replay telemetry ([moq_recover_*] counters and the
    replay latency) to [sink]. *)

val open_ :
  ?fsync:bool -> ?checkpoint_every:int -> ?sink:Moq_obs.Sink.t ->
  dir:string -> unit -> (t * recovery, string) result
(** {!recover}, then reopen the log for appending — truncating any corrupt
    tail so subsequent appends stay replayable. *)

val append : t -> U.t -> (unit, DB.error) result
(** Validate against the in-memory database; on acceptance, log (fsync) and
    advance.  A rejected update leaves both the log and the database
    untouched. *)

type hooks = {
  stage : 'a. held:bool -> [ `Sanitize | `Append ] -> (unit -> 'a) -> 'a;
      (** wraps each update's classification and, on an accept, its log
          append; [held] is [true] for an update the quarantine released *)
  committed : held:bool -> U.t -> unit;
      (** called once per logged update, in log order *)
}

val ingest : ?hooks:hooks -> t -> Sanitize.t -> U.t -> Sanitize.verdict
(** Run one update through the sanitizer against the store's database.
    An accept is logged like an {!append}, advancing to the database the
    sanitizer already built (each accepted update is applied once); it
    then drains the sanitizer's quarantine, logging any updates it
    releases.  Rejects and quarantines leave the store untouched.  Never
    raises unless a hook does. *)

val db : t -> DB.t
val clock : t -> Q.t
val dim : t -> int

val checkpoint_now : t -> unit
(** Force a snapshot + log reset. *)

val digest : t -> int * int
(** [(bytes, crc)] of [Mod_io.db_to_string (db t)], rendered through the
    cache without building the string. *)

val snapshot : t -> string
(** [Mod_io.db_to_string (db t)], rendered through the cache. *)

val close : t -> unit
