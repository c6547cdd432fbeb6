(** The moq wire protocol, version 1 ("moqp 1").

    Every frame (see {!Frame}) carries one message.  A message payload is
    line-oriented: the first line is the message head (space-separated
    tokens), optional further lines carry timeline pieces.  Numbers travel
    as exact rationals ({!Moq_numeric.Rat} syntax); sweep instants — which
    may be algebraic — travel as their deterministic pretty-printed form,
    percent-encoded into a single token, so two peers can compare timelines
    bit-for-bit without an algebraic-number parser.

    Client requests:
    {v
    HELLO moqp 1
    UPDATE new 3 7 1 0 5 5        (Mod_io update-line syntax)
    SUBSCRIBE knn 2 0 100
    SUBSCRIBE range 50 0 100
    SUBSCRIBE gdist-threshold speed-sq 9 0 100
    SUBSCRIBE agg 5 10 2 0 0 40 40 0 100
    UNSUBSCRIBE 1
    QUERY knn 2 0 40 | QUERY range 50 0 40
    STATS json | STATS prometheus
    PING
    BYE
    v}

    Server messages are either responses (head starts with [OK] or [ERR];
    exactly one per request, in order) or asynchronous events ([EVENT],
    [EVENT-DROPPED], [EVENT-COMPLETE], [SHUTDOWN]).  Each subscription's
    event pieces carry consecutive sequence numbers from 0; a
    backpressure drop is reported as an [EVENT-DROPPED] covering the lost
    range, so a subscriber can always account for every sequence number.

    Replication ("REPL-*"): a follower handshakes with [REPL-HELLO moqp 1]
    (optionally [since <epoch> <seq>], its last applied replication
    position; the epoch names one primary incarnation).  The primary
    answers [OK REPL-HELLO] in mode [snapshot] — carrying a full
    serialized database to bootstrap from — or mode [delta] when the
    epoch is its own and its in-memory backlog still covers the
    follower's position.  From then on
    every accepted update is shipped in commit order as a [REPL-UPDATE]
    event, and the primary periodically emits [REPL-DIGEST] (byte length
    and CRC-32 of its serialized state at a given clock) so the follower
    can byte-compare its rebuilt state — the bit-identity machinery as a
    free divergence audit. *)

module Q := Moq_numeric.Rat
module U := Moq_mod.Update

val version : int

val encode_token : string -> string
(** Percent-encode ['%'], spaces, newlines and tabs. *)

val decode_token : string -> string

(** {1 Requests} *)

type gdist_id = Euclidean_sq | Speed_sq

type sub_kind =
  | Sub_knn of int  (** k nearest to the origin *)
  | Sub_range of Q.t  (** within squared distance of the origin *)
  | Sub_gdist of gdist_id * Q.t  (** below threshold under a named g-distance *)
  | Sub_agg of { d : Q.t; window : Q.t; pois : Q.t list list }
      (** continuous POI aggregation: per-POI tumbling-window rows over the
          objects within distance [d].  On the wire:
          [SUBSCRIBE agg <d> <window> <npois> <coord>... <lo> <hi>] with
          [npois × dim] coordinates *)

type query_kind = Qk_knn of int | Qk_range of Q.t

type request =
  | Hello of int  (** protocol version *)
  | Update of U.t
  | Subscribe of { kind : sub_kind; lo : Q.t; hi : Q.t }
  | Unsubscribe of int
  | Query of { kind : query_kind; lo : Q.t; hi : Q.t }
  | Stats of [ `Json | `Prometheus ]
  | Ping
  | Bye
  | Repl_hello of { version : int; since : (int * int) option }
      (** follower handshake; [since] is its last applied replication
          position as [(epoch, seq)] ([None]: bootstrap — ship a
          snapshot).  The epoch names one primary incarnation, so a
          restarted primary never mis-serves a stale delta *)

val render_request : request -> string

val parse_request : dim:int -> string -> (request, string) result
(** [dim] is the server database's dimension (updates carry one vector per
    coordinate). *)

(** {1 Timeline pieces on the wire} *)

type piece =
  | P_at of string * int list  (** encoded instant, answer OIDs ascending *)
  | P_span of string * string * int list
  | P_agg of {
      poi : int;  (** index into the subscription's POI list *)
      widx : int;  (** window index, 0-based *)
      w_lo : string;  (** window bounds, exact rational renderings *)
      w_hi : string;
      count : int;  (** objects within [d] at the window's end *)
      density : float;  (** time-weighted average count; travels as a hex
                            float literal, so the roundtrip is lossless *)
      distinct : int;  (** distinct visitors over the window *)
    }
      (** one finalized aggregation row; rides the same [EVENT] stream as
          timeline pieces and is never coalesced by {!simplify_pieces} *)

val render_piece : piece -> string
val parse_piece : string -> (piece, string) result

(** {1 Server messages} *)

type verdict = V_accepted | V_rejected of string | V_quarantined of string

type server_msg =
  | R_hello of { session : int; dim : int; clock : Q.t }
  | R_update of verdict
  | R_subscribe of { sub : int }
  | R_unsubscribe of { sub : int; pieces : piece list }
      (** the subscription's simplified validated timeline at retirement *)
  | R_query of piece list
  | R_stats of string  (** exporter output, verbatim *)
  | R_pong of { clock : Q.t }
  | R_bye
  | R_err of { code : string; msg : string }
      (** codes: [bad-version], [proto], [busy], [limit], [unknown-sub],
          [idle-timeout], [shutting-down] *)
  | E_pieces of { sub : int; first_seq : int; pieces : piece list }
  | E_dropped of { sub : int; from_seq : int; to_seq : int }  (** inclusive *)
  | E_complete of { sub : int }
  | E_shutdown of { reason : string }
  | R_repl_hello of
      { dim : int; clock : Q.t; epoch : int; seq : int; snapshot : string option }
      (** [(epoch, seq)] is the primary's replication position at
          handshake time; [Some image] bootstraps the follower from a full
          {!Moq_mod.Mod_io.db_to_string} snapshot, [None] resumes as a
          delta of [REPL-UPDATE] events after [since] *)
  | E_repl_update of { seq : int; dim : int; u : U.t }
      (** one accepted update in commit order — the shipped WAL record *)
  | E_repl_digest of { clock : Q.t; bytes : int; crc : string }
      (** primary state digest (serialized length and CRC-32) at [clock] *)

val is_event : server_msg -> bool
(** Asynchronous push, not a response. *)

val render_server_msg : server_msg -> string
val parse_server_msg : string -> (server_msg, string) result

(** {1 Frame attributes}

    Optional [key=value] tokens appended to the head line of a frame:
    [trace=<id>/<span>] (hex trace context for cross-process span
    stitching), [ts=<seconds>] (sender wall clock at socket write),
    [wm=<epoch>/<seq>] (commit watermark on repl frames, the follower's
    freshness reference).  Attributes ride only on heads whose grammar is
    closed over [=]-free tokens — updates, queries, subscriptions, events
    and repl frames; free-text heads ([ERR], [SHUTDOWN], verdicts) never
    carry them.  Backward compatible both ways: {!parse_request} /
    {!parse_server_msg} strip and ignore attributes (a moqp 1 peer keeps
    interoperating), and the attr-aware parsers accept attribute-free
    frames as {!no_attrs}.  Malformed attribute values are stripped and
    ignored rather than failing the frame. *)

type attrs = {
  a_trace : (int * int) option;  (** (trace_id, span_id), hex on the wire *)
  a_ts : float option;  (** sender wall clock, Unix seconds *)
  a_wm : (int * int) option;  (** (epoch, seq) commit watermark *)
}

val no_attrs : attrs

val render_attrs : attrs -> string
(** The rendered suffix, ["" ] when all fields are [None]; each present
    attribute contributes one leading-space-separated token. *)

val render_request_attrs : attrs -> request -> string
val parse_request_attrs : dim:int -> string -> (request * attrs, string) result
val render_server_msg_attrs : attrs -> server_msg -> string
val parse_server_msg_attrs : string -> (server_msg * attrs, string) result

(** {1 Canonical piece streams}

    Different monitor instances over the same database chunk their
    validated streams differently (a long-lived one cuts at every update
    instant, a freshly created one only at support changes), but the
    chunks always collapse to the same canonical form.  These helpers
    let a client compare — and dedup — streams across a reconnect or a
    failover to a replica. *)

val simplify_pieces : piece list -> piece list
(** Wire-level mirror of the core timeline simplifier: drop repeated
    instant pieces and collapse span·at·span runs carrying one answer
    set.  Instants compare by their canonical renderings. *)

(** Incremental canonicalizer: [push] raw pieces in stream order and
    collect canonical pieces as they become final; the concatenation of
    all [push] results plus the final [flush] equals {!simplify_pieces}
    of the whole input. *)
module Canon : sig
  type t

  val create : unit -> t
  val push : t -> piece -> piece list
  val flush : t -> piece list
end
