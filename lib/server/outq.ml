(* A session's output queue, oldest first, kept as two FIFOs: [head]
   holds the items a drop has already passed over (responses, repl
   frames and drop markers, never an event frame) and [tail] everything
   after them.  A drop takes [tail]'s first event frame and moves each
   item before it into [head], once, so appends, pops and drops are O(1)
   amortised.  Drop markers are made only from the oldest event frame,
   so they all sit in [head], and a new marker can merge only with
   [head]'s newest item. *)

type item =
  | Msg of string
  | Event of {
      sub : int;
      first_seq : int;
      mutable count : int;
      mutable pieces_rev : Moq_proto.Proto.piece list;
      mutable trace : (int * int) option;
      enq : float;
    }
  | Frame of { msg : string; trace : (int * int) option; enq : float }
  | Dropped of { sub : int; from_seq : int; mutable to_seq : int }

type t = {
  head : item Queue.t;
  tail : item Queue.t;
  mutable head_last : item option;
  mutable tail_last : item option;
}

let create () =
  { head = Queue.create (); tail = Queue.create (); head_last = None; tail_last = None }

let length q = Queue.length q.head + Queue.length q.tail
let is_empty q = Queue.is_empty q.head && Queue.is_empty q.tail

let last q = match q.tail_last with Some _ as l -> l | None -> q.head_last

let take_tail q =
  let x = Queue.take_opt q.tail in
  if Queue.is_empty q.tail then q.tail_last <- None;
  x

let pop q =
  match Queue.take_opt q.head with
  | Some _ as x ->
    if Queue.is_empty q.head then q.head_last <- None;
    x
  | None -> take_tail q

let to_head q x =
  Queue.push x q.head;
  q.head_last <- Some x

(* Replace the oldest event frame with a drop marker covering its
   sequence range, merged into an adjacent marker for the same
   subscription.  [false] when no event frame is left to drop. *)
let drop_oldest q ~on_drop =
  let rec skip () =
    match Queue.peek_opt q.tail with
    | Some (Event _) | None -> ()
    | Some _ ->
      Option.iter (to_head q) (take_tail q);
      skip ()
  in
  skip ();
  match take_tail q with
  | Some (Event e) ->
    on_drop ~sub:e.sub ~count:e.count;
    let to_seq = e.first_seq + e.count - 1 in
    (match q.head_last with
     | Some (Dropped a) when a.sub = e.sub && e.first_seq = a.to_seq + 1 -> a.to_seq <- to_seq
     | _ -> to_head q (Dropped { sub = e.sub; from_seq = e.first_seq; to_seq }));
    true
  | Some _ | None -> (* [skip] left the tail empty *) false

let push q ~soft ~hwm ~on_coalesce ~on_drop item =
  let coalesced =
    match item, (if length q >= soft then last q else None) with
    | Event e, Some (Event l) when l.sub = e.sub && l.first_seq + l.count = e.first_seq ->
      l.pieces_rev <- e.pieces_rev @ l.pieces_rev;
      l.count <- l.count + e.count;
      (match e.trace with Some _ as tr -> l.trace <- tr | None -> ());
      on_coalesce ();
      true
    | _ -> false
  in
  if not coalesced then begin
    Queue.push item q.tail;
    q.tail_last <- Some item
  end;
  while length q > hwm && drop_oldest q ~on_drop do () done
