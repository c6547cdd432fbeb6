(* A session's output queue, oldest first, kept as two FIFOs: [head]
   holds the items a drop has already passed over (responses, repl
   frames and drop markers, never an event frame) and [tail] everything
   after them.  A drop takes [tail]'s first event frame and moves each
   item before it into [head], once, so appends, pops and drops are O(1)
   amortised.  Drop markers are made only from the oldest event frame,
   so they all sit in [head].  [markers] maps a subscription to its
   marker while that is queued: a later drop for the subscription widens
   it instead of queueing another, so a stalled session holds at most
   one marker per subscription. *)

type item =
  | Msg of string
  | Event of {
      sub : int;
      first_seq : int;
      mutable count : int;
      mutable pieces_rev : Moq_proto.Proto.piece list;
      mutable trace : (int * int) option;
      enq : float;
      enq_mono : float;
    }
  | Frame of { msg : string; trace : (int * int) option; enq : float; enq_mono : float }
  | Dropped of { sub : int; from_seq : int; mutable to_seq : int }

type t = {
  head : item Queue.t;
  tail : item Queue.t;
  mutable tail_last : item option;
  markers : (int, item) Hashtbl.t;
}

let create () =
  { head = Queue.create (); tail = Queue.create (); tail_last = None; markers = Hashtbl.create 4 }

let length q = Queue.length q.head + Queue.length q.tail
let is_empty q = Queue.is_empty q.head && Queue.is_empty q.tail

let take_tail q =
  let x = Queue.take_opt q.tail in
  if Queue.is_empty q.tail then q.tail_last <- None;
  x

let pop q =
  match Queue.take_opt q.head with
  | Some (Dropped d) as x ->
    Hashtbl.remove q.markers d.sub;
    x
  | Some _ as x -> x
  | None -> take_tail q

(* Replace the oldest event frame with a drop marker covering its
   sequence range, or widen the subscription's queued marker to cover it.
   Drops go oldest event first, so the marker's range and the frame's
   are consecutive.  [false] when no event frame is left to drop. *)
let drop_oldest q ~on_drop =
  let rec skip () =
    match Queue.peek_opt q.tail with
    | Some (Event _) | None -> ()
    | Some _ ->
      Option.iter (fun x -> Queue.push x q.head) (take_tail q);
      skip ()
  in
  skip ();
  match take_tail q with
  | Some (Event e) ->
    on_drop ~sub:e.sub ~count:e.count;
    let to_seq = e.first_seq + e.count - 1 in
    (match Hashtbl.find_opt q.markers e.sub with
     | Some (Dropped a) -> a.to_seq <- to_seq
     | _ ->
       let m = Dropped { sub = e.sub; from_seq = e.first_seq; to_seq } in
       Hashtbl.replace q.markers e.sub m;
       Queue.push m q.head);
    true
  | Some _ | None -> (* [skip] left the tail empty *) false

let push q ~soft ~hwm ~on_coalesce ~on_drop item =
  let coalesced =
    (* the newest item: [head] never holds an event frame *)
    match item, (if length q >= soft then q.tail_last else None) with
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
