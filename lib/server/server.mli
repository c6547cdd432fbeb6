(** The moq serving layer: a concurrent MOD server.

    One process owns a durable {!Moq_durable.Store} (sanitizer → WAL →
    checkpoint) and serves the moqp protocol (see {!Moq_proto.Proto}) over
    TCP or a Unix-domain socket.  Updates are globally serialized through
    the store — the paper's chronological-update discipline (Definition 3)
    becomes the admission rule of the wire — and fan out to every live
    subscription, each backed by its own {!Moq_core.Monitor} instance.
    Support-change pieces are pushed to subscribers the moment they become
    {e valid} in the sense of Definition 4 (no future update can change
    them), with per-subscription sequence numbers.

    Core and shell: the commit step itself — admit, log, fan out, render,
    and both roles of replication — is {!Commit}, which has no sockets and
    no threads and reports its outputs through one callback.  This module
    is the IO shell around it: addresses, sessions and their output
    queues, the reader, writer and accept threads, the follower's socket
    loop, and start, stop and crash.  Each request is one call into the
    core under the server lock, followed by enqueueing what it emitted.

    Flow control: each session has a bounded output queue.  Above the soft
    limit, consecutive event frames for the same subscription are coalesced
    into one frame; above the hard limit, the oldest event frame is dropped
    and replaced by an [EVENT-DROPPED] marker covering its sequence range,
    or covered by widening its subscription's marker if one is still queued
    — subscribers always see a complete accounting, never silent loss.
    Responses are never dropped.  Bound: after every enqueue a session's
    queue holds at most [queue_hwm] items, unless no event frame is left
    in it to drop; a follower's, which carries only never-dropped repl
    frames, is kicked once it passes [2 * queue_hwm] ({!Outq}).

    Crash safety: every accepted update is on the WAL before its effects
    are observable, so a SIGKILL'd server recovers to the exact same MOD
    via {!Moq_durable.Store.recover}.  A graceful stop ([SIGTERM] →
    {!request_stop}) drains every push queue, notifies clients with
    [SHUTDOWN], checkpoints and exits.

    Replication: with [config.follow] set, the server runs as a {e read
    replica} — it bootstraps from the primary's shipped snapshot (or
    resumes as a delta of its own last applied position), tails the
    primary's commit stream over the moqp [REPL-*] messages, applies each
    update through its own store (so followers are durable too), serves
    queries and subscriptions locally, and byte-compares its serialized
    state against the primary's periodic digests ([moq_repl_divergence_total]
    stays zero iff replication is exact).  Followers reject [UPDATE] with
    [read-only], and can themselves be followed (chaining).  A primary
    keeps its last {!Commit.backlog_bound} (4096) commits for delta
    resumes; a follower further behind gets a snapshot.  When a follower
    must re-bootstrap from a fresh snapshot, local subscription sessions
    are closed with [SHUTDOWN repl-reset] — their timelines were built
    over the replaced history. *)

module DB := Moq_mod.Mobdb

type addr = Tcp of string * int | Unix_sock of string

val pp_addr : Format.formatter -> addr -> unit

val addr_of_string : string -> (addr, string) result
(** ["tcp:HOST:PORT"], ["unix:PATH"], or a bare [PORT] (loopback TCP). *)

val sockaddr_of : addr -> Unix.sockaddr
(** Resolves host names; raises [Not_found] on resolution failure. *)

type config = {
  listen : addr;
  store_dir : string;
  init_db : DB.t option;
      (** seeds the store when [store_dir] has no checkpoint; required then *)
  fsync : bool;
  checkpoint_every : int;
  max_sessions : int;
  max_subs_per_session : int;
  queue_soft : int;  (** coalesce event frames above this queue length *)
  queue_hwm : int;
      (** drop oldest event frames above this length: the queue's bound
          while it holds an event frame *)
  idle_timeout : float;  (** seconds without a request; 0 disables *)
  writer_delay : float;  (** test knob: sleep per written frame; 0 in production *)
  follow : addr option;
      (** replicate from this primary — run as a read-only follower *)
  repl_digest_every : int;
      (** ship a state digest to followers every this many streamed
          updates; 0 disables (default 64) *)
  trace : bool;
      (** propagate [trace=] contexts and record pipeline spans; stage
          histograms are always collected regardless (default false) *)
  slow_query_ms : float;
      (** a query or per-subscription monitor step slower than this
          auto-captures its explain record into the structured log (and
          the flight recorder) and counts [moq_slowq_total]; 0 disables
          (default 250) *)
  hot_objects : bool;
      (** per-object sweep-cost attribution inside subscription monitors,
          exported as [moq_hot_*] gauges on STATS (default true) *)
  flight_capacity : int;
      (** flight-recorder ring size in events; 0 disables (default 2048) *)
}

val default_config : listen:addr -> store_dir:string -> config

type t

val start : ?registry:Moq_obs.Registry.t -> config -> (t, string) result
(** Bind, recover-or-init the store, spawn the accept loop.  All
    [moq_server_*] metrics (and the store/sanitizer instrumentation) land
    in [registry]. *)

val run : t -> unit
(** Block until the server has stopped (via {!request_stop}/{!stop}). *)

val bound_addr : t -> addr
(** Actual address — resolves port 0 to the kernel-chosen port. *)

val registry : t -> Moq_obs.Registry.t

val tracer : t -> Moq_obs.Trace.t
(** The server's span ring: pipeline stages (link, dispatch, queue, apply)
    recorded when [config.trace] is set. *)

val recorder : t -> Moq_obs.Recorder.t
(** The always-on flight recorder: updates admitted/rejected, session and
    subscription lifecycle, backpressure drops, repl digests, slow
    queries.  Dumped automatically on {!crash} and on a replication
    digest divergence; see {!flight_dump} for explicit triggers. *)

val flight_dump : t -> reason:string -> (string, string) result
(** Dump the flight-recorder ring to a timestamped JSON file in the store
    directory (next to the WAL, so [moq blackbox] can correlate the two);
    returns the path.  Used by the CLI's SIGQUIT handler. *)

val db_snapshot : t -> DB.t
(** Current MOD (persistent value, safe to use concurrently). *)

val clock : t -> Moq_numeric.Rat.t

val is_follower : t -> bool

val repl_connected : t -> bool
(** Follower: is the tail link to the primary currently up? *)

val repl_divergence : t -> int
(** Follower: digest checks that did not match the primary's bytes. *)

val shutdown_repl_link : t -> unit
(** Follower: cut the live tail connection to the primary (a fault
    lever for tests); the replication loop reconnects by itself. *)

val request_stop : t -> unit
(** Initiate a graceful drain; safe to call from a signal handler. *)

val stop : t -> unit
(** {!request_stop} then wait for the drain to finish. *)

val crash : t -> unit
(** Abrupt termination for tests/benchmarks: close every descriptor, skip
    the final checkpoint and store close — exactly what SIGKILL leaves
    behind.  The store directory is then ready for
    {!Moq_durable.Store.recover}. *)
