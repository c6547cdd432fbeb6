(* A session's output queue against a list reference: the same items
   come out in the same order under random pushes and pops, the stated
   bound holds after every push, and every subscription's sequence
   numbers are accounted for exactly once, delivered or dropped. *)

module Outq = Moq_server.Outq
module Proto = Moq_proto.Proto

(* The reference: an oldest-first list, reversed to find the newest item
   above the soft limit and rescanned for the oldest event frame and for
   a queued drop marker of its subscription. *)
type m =
  | M_msg of string
  | M_event of { sub : int; first : int; mutable count : int; mutable pieces : int list }
  | M_dropped of { sub : int; from : int; mutable upto : int }

let model_drop q =
  let rec go = function
    | [] -> None
    | M_event e :: rest ->
      let upto = e.first + e.count - 1 in
      let queued = function M_dropped d -> d.sub = e.sub | _ -> false in
      (match List.find_opt queued q with
       | Some (M_dropped d) ->
         d.upto <- upto;
         Some rest
       | _ -> Some (M_dropped { sub = e.sub; from = e.first; upto } :: rest))
    | x :: rest -> Option.map (fun r -> x :: r) (go rest)
  in
  go q

let model_push ~soft ~hwm q item =
  let coalesced =
    match item, (if List.length q >= soft then List.rev q else []) with
    | M_event e, M_event l :: _ when l.sub = e.sub && l.first + l.count = e.first ->
      l.pieces <- e.pieces @ l.pieces;
      l.count <- l.count + e.count;
      true
    | _ -> false
  in
  let q = ref (if coalesced then q else q @ [ item ]) in
  let rec drop () =
    if List.length !q > hwm then
      match model_drop !q with
      | Some q' -> q := q'; drop ()
      | None -> ()
  in
  drop ();
  !q

(* What a popped item shows the writer. *)
type seen = Msg of string | Event of int * int * int * int list | Dropped of int * int * int

let of_model = function
  | M_msg s -> Msg s
  | M_event e -> Event (e.sub, e.first, e.count, e.pieces)
  | M_dropped d -> Dropped (d.sub, d.from, d.upto)

let tag = function Proto.P_at (s, _) -> int_of_string s | _ -> assert false

let of_outq = function
  | Outq.Msg s | Outq.Frame { msg = s; _ } -> Msg s
  | Outq.Event e -> Event (e.sub, e.first_seq, e.count, List.map tag e.pieces_rev)
  | Outq.Dropped d -> Dropped (d.sub, d.from_seq, d.to_seq)

let has_event = List.exists (function M_event _ -> true | _ -> false)

let run ~seed ~soft ~hwm ~steps =
  let st = Random.State.make [| seed |] in
  let q = Outq.create () and model = ref [] in
  let next_seq = Array.make 4 0 and next_piece = ref 0 in
  let delivered = Array.make 4 [] in
  let account = function
    | Event (s, first, count, _) -> delivered.(s) <- (first, first + count - 1) :: delivered.(s)
    | Dropped (s, from, upto) -> delivered.(s) <- (from, upto) :: delivered.(s)
    | Msg _ -> ()
  in
  let pop () =
    let got = Option.map of_outq (Outq.pop q) in
    let want =
      match !model with
      | [] -> None
      | x :: rest -> model := rest; Some (of_model x)
    in
    if got <> want then Alcotest.failf "seed %d: popped item differs from the reference" seed;
    Option.iter account got
  in
  for step = 1 to steps do
    match Random.State.int st 10 with
    | 0 | 1 | 2 -> pop ()
    | r ->
      let item, m =
        if r = 3 then begin
          let s = Printf.sprintf "msg %d" step in
          if Random.State.bool st then (Outq.Msg s, M_msg s)
          else (Outq.Frame { msg = s; trace = None; enq = 0.; enq_mono = 0. }, M_msg s)
        end
        else begin
          let sub = 1 + Random.State.int st 3 and count = 1 + Random.State.int st 3 in
          let first = next_seq.(sub) in
          next_seq.(sub) <- first + count;
          let pieces = List.init count (fun _ -> incr next_piece; !next_piece) in
          ( Outq.Event
              { sub; first_seq = first; count;
                pieces_rev = List.map (fun k -> Proto.P_at (string_of_int k, [])) pieces;
                trace = None; enq = 0.; enq_mono = 0. },
            M_event { sub; first; count; pieces } )
        end
      in
      Outq.push q ~soft ~hwm ~on_coalesce:ignore ~on_drop:(fun ~sub:_ ~count:_ -> ()) item;
      model := model_push ~soft ~hwm !model m;
      let n = Outq.length q in
      if n <> List.length !model then Alcotest.failf "seed %d step %d: length" seed step;
      if n > hwm && has_event !model then
        Alcotest.failf "seed %d step %d: %d items above the bound %d with an event left"
          seed step n hwm
  done;
  while not (Outq.is_empty q) do pop () done;
  (* every subscription's sequence numbers, each exactly once, in order *)
  Array.iteri
    (fun s ranges ->
      let covered = List.concat_map (fun (a, b) -> List.init (b - a + 1) (( + ) a)) (List.rev ranges) in
      if covered <> List.init next_seq.(s) Fun.id then
        Alcotest.failf "seed %d: sub %d sequence numbers not accounted exactly once" seed s)
    delivered

let test_against_reference () =
  List.iter
    (fun (soft, hwm) ->
      for seed = 1 to 40 do run ~seed ~soft ~hwm ~steps:600 done)
    [ (2, 4); (3, 8); (64, 256); (0, 1) ]

(* Pushes only, one subscription with coalescing off: its drop marker
   widens, so the queue stays at its bound, and a flood of responses
   (never dropped) is the one way past it. *)
let test_bound_under_flood () =
  let hwm = 16 in
  let q = Outq.create () and drops = ref 0 in
  let on_drop ~sub:_ ~count = drops := !drops + count in
  for i = 0 to 999 do
    Outq.push q ~soft:max_int ~hwm ~on_coalesce:ignore ~on_drop
      (Outq.Event
         { sub = 1; first_seq = i; count = 1; pieces_rev = []; trace = None; enq = 0.;
           enq_mono = 0. });
    Alcotest.(check bool) "within the bound" true (Outq.length q <= hwm)
  done;
  Alcotest.(check int) "dropped under backpressure" (1000 - hwm + 1) !drops;
  for i = 1 to 40 do Outq.push q ~soft:max_int ~hwm ~on_coalesce:ignore ~on_drop (Outq.Msg (string_of_int i)) done;
  Alcotest.(check bool) "responses are kept past the bound" true (Outq.length q > hwm)

(* A stalled session that receives only events, from three
   subscriptions taking turns (so nothing coalesces): each subscription
   keeps one drop marker however many of its events are dropped, the
   queue stays within [hwm] plus the number of subscriptions, and the
   markers and the frames left account for every event once. *)
let test_stalled_round_robin () =
  let hwm = 256 and subs = 3 and events = 1000 in
  let q = Outq.create () in
  for i = 0 to events - 1 do
    let sub = i mod subs in
    Outq.push q ~soft:64 ~hwm ~on_coalesce:ignore ~on_drop:(fun ~sub:_ ~count:_ -> ())
      (Outq.Event
         { sub; first_seq = i / subs; count = 1; pieces_rev = []; trace = None; enq = 0.;
           enq_mono = 0. });
    if Outq.length q > hwm + subs then
      Alcotest.failf "after event %d: %d items, above %d + %d" i (Outq.length q) hwm subs
  done;
  let markers = Array.make subs 0 and next = Array.make subs 0 in
  let rec drain () =
    match Outq.pop q with
    | None -> ()
    | Some item ->
      let sub, first, last =
        match item with
        | Outq.Dropped d -> markers.(d.sub) <- markers.(d.sub) + 1; (d.sub, d.from_seq, d.to_seq)
        | Outq.Event e -> (e.sub, e.first_seq, e.first_seq + e.count - 1)
        | Outq.Msg _ | Outq.Frame _ -> Alcotest.fail "only events were pushed"
      in
      Alcotest.(check int) (Printf.sprintf "sub %d continues" sub) next.(sub) first;
      next.(sub) <- last + 1;
      drain ()
  in
  drain ();
  Array.iteri
    (fun sub n ->
      Alcotest.(check int) (Printf.sprintf "sub %d: one marker" sub) 1 n;
      Alcotest.(check int) (Printf.sprintf "sub %d: every event" sub)
        ((events + subs - 1 - sub) / subs) next.(sub))
    markers

let () =
  Alcotest.run "outq"
    [ ( "outq",
        [ Alcotest.test_case "same items as the list reference" `Quick test_against_reference;
          Alcotest.test_case "bound under a flood" `Quick test_bound_under_flood;
          Alcotest.test_case "one marker per subscription when stalled" `Quick
            test_stalled_round_robin ] ) ]
