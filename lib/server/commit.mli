(** The commit step of [moq serve], with no sockets and no threads.

    A chronological update (Definition 3) is admitted by the sanitizer,
    logged and applied to the MOD by the {!Moq_durable.Store}, pushed
    through every continuing subscription's sweep (Theorem 5), and the
    subscription's newly valid pieces (Definition 4) are rendered for the
    wire.  This module owns all of that state: the store and sanitizer,
    one table of subscriptions (each tagged with the id of the session
    that owns it), the backend binding, and the replication state of both
    roles.  {!Server} calls it with its lock held and enqueues what it
    emits.

    Every operation that produces output reports it through one [emit]
    callback, in the order a session must receive it.  A subscription's
    events come newest subscription first. *)

module Q := Moq_numeric.Rat
module DB := Moq_mod.Mobdb
module U := Moq_mod.Update
module Proto := Moq_proto.Proto

type output =
  | Pieces of { owner : int; sub : int; first_seq : int; pieces : Proto.piece list }
      (** a subscription's newly valid pieces, numbered from [first_seq] *)
  | Complete of { owner : int; sub : int }
      (** the subscription's whole interval is valid; it is retired *)
  | Repl of { owner : int; msg : string; digest : bool }
      (** a rendered [REPL-UPDATE] (or, with [digest], [REPL-DIGEST])
          frame for the follower [owner] *)
  | Reset of int
      (** a snapshot reset ended this owner's subscriptions or stream *)

val backlog_bound : int
(** Commits kept for delta resumes (4096).  A follower further behind
    than this resumes from a snapshot. *)

type t

val create :
  reg:Moq_obs.Registry.t -> sink:Moq_obs.Sink.t -> tracer:Moq_obs.Trace.t ->
  recorder:Moq_obs.Recorder.t -> fsync:bool -> checkpoint_every:int -> dir:string ->
  init_db:DB.t option -> digest_every:int -> slow_query_ms:float -> hot_objects:bool ->
  (t, string) result
(** Recover the store in [dir], or seed it with [init_db] when [dir] has
    no checkpoint.  [digest_every] is the repl digest cadence in streamed
    updates (0 = never); a subscription step or query slower than
    [slow_query_ms] is logged with its explain record (0 disables);
    [hot_objects] turns on per-object sweep-cost attribution. *)

(** {1 The subscription -> query mapping and wire rows}

    Every server sweep runs on the Filtered backend, which makes Exact's
    decisions and prints Exact's canonical instants, so the wire bytes
    are Exact's. *)

val wire_row : Moq_agg.Agg.row -> Proto.piece

val origin_gamma : int -> Moq_mod.Trajectory.t
(** The stationary origin every origin-relative g-distance is taken
    against, alive long before any queried interval. *)

val gdist_of_kind : t -> Proto.sub_kind -> Moq_core.Gdist.t
(** The g-distance a subscription of this kind sweeps, as this core holds
    it: built once per core, not per call.
    @raise Invalid_argument on [Sub_agg]. *)

val curve_stores : t -> Moq_core.Curve_store.t list
(** One store per g-distance the core sweeps (squared distance to
    {!origin_gamma}, squared speed).  QUERY and subscription monitors
    read their curves through them; a snapshot reset empties them. *)

val query_of_kind : Proto.sub_kind -> lo:Q.t -> hi:Q.t -> Moq_core.Fof.query
(** @raise Invalid_argument on [Sub_agg]. *)

(** {1 Primary} *)

val ingest : t -> ?trace:int * int -> emit:(output -> unit) -> U.t -> Proto.verdict
(** Admit one update: sanitize, log, fan out and stream it, then do the
    same for every quarantined update its accept releases.  Stage spans
    carry [trace] for the update itself only. *)

val follow : t -> owner:int -> since:(int * int) option -> Proto.server_msg * int option
(** A REPL-HELLO from [owner]: make it a follower and answer it.  The
    answer carries a snapshot unless [since] names a position of this
    epoch still covered by the backlog; then the second component is that
    position, for {!replay}. *)

val replay : t -> emit:(output -> unit) -> owner:int -> after:int -> unit
(** Emit the backlog's commits after sequence number [after] to [owner]. *)

(** {1 Follower} *)

val bootstrap :
  t -> emit:(output -> unit) -> epoch:int -> seq:int -> string option -> bool
(** The primary's REPL-HELLO answer: with a snapshot image, reset to it
    (emitting {!Reset}); then take the primary's position.  [false] when
    the image does not parse or has the wrong dimension. *)

val apply :
  t -> ?trace:int * int -> emit:(output -> unit) -> epoch:int -> wm:(int * int) option ->
  seq:int -> U.t -> bool
(** Apply the primary's commit [seq].  A replayed one is skipped; [false]
    on a hole in the sequence, after which the stream must be resumed. *)

val digest_check :
  t -> epoch:int -> wm:(int * int) option -> clock:Q.t -> bytes:int -> crc:string -> bool
(** [true] when our state at the digest's clock does not serialize to the
    primary's bytes. *)

(** {1 Subscriptions} *)

val subscribe : t -> owner:int -> Proto.sub_kind -> lo:Q.t -> hi:Q.t -> (int, string) result
(** Register a subscription and return its id; {!flush} emits its
    already-valid prefix. *)

val flush : t -> emit:(output -> unit) -> int -> unit

val unsubscribe : t -> owner:int -> int -> Proto.piece list option
(** Retire [owner]'s subscription and return its valid timeline; [None]
    when [owner] has no such subscription. *)

val retire : t -> int -> unit
(** Forget every subscription and the follow stream of an owner. *)

val owned : t -> int -> int
val n_subs : t -> int

val publish_hot : t -> unit
(** Export the merged per-object sweep cost of every subscription monitor
    as the [moq_hot_*] gauges. *)

val query :
  t -> DB.t -> session:int -> Proto.query_kind -> lo:Q.t -> hi:Q.t -> Proto.piece list
(** Evaluate a QUERY over [db], a snapshot taken under the lock; safe to
    call without it. *)

(** {1 State} *)

val db : t -> DB.t
val clock : t -> Q.t
val dim : t -> int
val snapshot : t -> string
val watermark : t -> int * int
(** [(epoch, seq)] of this server's own commit stream. *)

val seq : t -> int
val position : t -> (int * int) option
(** Follower: last applied primary [(epoch, seq)]. *)

val divergence : t -> int
val close : t -> checkpoint:bool -> unit
