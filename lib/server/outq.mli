(** A session's output queue: FIFO with O(1) amortised appends, pops and
    drops, coalescing above a soft length and dropping event frames above
    a hard one.

    Bound: after every {!push} the queue holds at most [hwm] items, unless
    it holds no event frame left to drop.  It holds at most one drop
    marker per subscription, so a session that receives only events stays
    within [hwm] plus its number of subscriptions however long its writer
    stalls.  Responses, repl frames and drop markers are never dropped, so
    a session's response stream stays complete; the server bounds those
    separately (it kicks a follower whose queue passes twice its
    [hwm]). *)

type item =
  | Msg of string  (** rendered response or notice; never dropped *)
  | Event of {
      sub : int;
      first_seq : int;
      mutable count : int;
      mutable pieces_rev : Moq_proto.Proto.piece list;  (** newest first *)
      mutable trace : (int * int) option;  (** latest contributing trace ctx *)
      enq : float;  (** queue-entry wall time: the queue-wait span start *)
      enq_mono : float;  (** queue-entry {!Moq_obs.Sink.monotonic} time: its duration *)
    }
  | Frame of {
      msg : string;
          (** rendered single-line repl head, stamped with the commit
              watermark at pop time; never dropped *)
      trace : (int * int) option;
      enq : float;
      enq_mono : float;
    }
  | Dropped of { sub : int; from_seq : int; mutable to_seq : int }
      (** [EVENT-DROPPED]: the subscription's events [from_seq..to_seq]
          were dropped under backpressure *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val pop : t -> item option
(** The oldest item. *)

val push :
  t ->
  soft:int ->
  hwm:int ->
  on_coalesce:(unit -> unit) ->
  on_drop:(sub:int -> count:int -> unit) ->
  item ->
  unit
(** Append an item.  When the queue already holds [soft] or more items
    and the newest one is an event frame of the same subscription that
    ends just before this event frame, the two merge into one
    ([on_coalesce] is called).  Then, while the queue holds more than
    [hwm] items, the oldest event frame is dropped ([on_drop] gets its
    subscription and event count): the subscription's queued drop marker
    is widened to cover its sequence range, or, when it has none, a new
    marker covering that range takes the frame's place. *)
