module Oid = Moq_mod.Oid
module Q = Moq_numeric.Rat
module OL = Moq_dstruct.Order_list
module LH = Moq_dstruct.Leftist_heap
module Sink = Moq_obs.Sink

module Make (B : Backend.S) = struct
  module C = Curves.Make (B)
  module PW = B.PW
  module F = B.P.F

  type label = Obj of Oid.t * int | Cst of Q.t

  let compare_label l1 l2 =
    match l1, l2 with
    | Obj (o1, k1), Obj (o2, k2) ->
      let c = Oid.compare o1 o2 in
      if c <> 0 then c else Int.compare k1 k2
    | Obj _, Cst _ -> -1
    | Cst _, Obj _ -> 1
    | Cst a, Cst b -> Q.compare a b

  let pp_label fmt = function
    | Obj (o, 0) -> Oid.pp fmt o
    | Obj (o, k) -> Format.fprintf fmt "%a#%d" Oid.pp o k
    | Cst c -> Format.fprintf fmt "const(%a)" Q.pp c

  (* The piece of an entry's curve in force at one instant (its index in
     the curve's view) and an enclosure of its value there, keyed on that
     instant by physical equality.  A sort or a bubble pass compares each
     entry with several others at one instant; the memo finds and
     evaluates its piece once. *)
  type memo = { at : B.instant; view : PW.view; k : int; enc : B.enclosure }

  (* An entry's crossing certificate is its last right-pair search: the
     partner [cert_r] (the entry itself when there is none), both curves
     as searched, and the result [cert_at], the first crossing strictly
     after the clock of that search, up to the horizon.  The clock only
     moves forward and the horizon is fixed, so while both curves are
     physically the same the result is still the first crossing after
     the current clock, unless it is at or before that clock. *)
  type entry = {
    lbl : label;
    mutable curve : PW.t;  (* assigned only through [set_curve] *)
    mutable memo : memo option;
    mutable node : entry OL.handle option; (* Some iff currently on the sweep line *)
    mutable right_event : (B.instant, event_data) LH.handle option;
    mutable dead : bool; (* lifetime over (death processed or removed) *)
    mutable cert_r : entry;
    mutable cert_lc : PW.t;
    mutable cert_rc : PW.t;
    mutable cert_at : B.instant option;
    mutable n_cmp : int;  (* comparisons this label took part in *)
    mutable n_swap : int; (* adjacent transpositions it took part in *)
    mutable stamp : int;  (* the last rescheduling pass that did it *)
  }

  and event_data = Cross of entry * entry | Birth of entry | Death of entry | Jump of entry

  let label e = e.lbl
  let curve e = e.curve
  let participations e = (e.n_cmp, e.n_swap)

  let new_entry lbl c =
    let rec e =
      { lbl; curve = c; memo = None; node = None; right_event = None; dead = false;
        cert_r = e; cert_lc = c; cert_rc = c; cert_at = None; n_cmp = 0; n_swap = 0;
        stamp = 0 }
    in
    e

  let set_curve e c =
    e.curve <- c;
    e.memo <- None

  let memo_at i e =
    match e.memo with
    | Some m when m.at == i -> m
    | _ ->
      let view = PW.view e.curve in
      let k = B.locate view i in
      let m = { at = i; view; k; enc = B.enclose view k i } in
      e.memo <- Some m;
      m

  (* Exact sign of [e1]'s value minus [e2]'s at [i]: from the memoised
     enclosures when they are disjoint, else from the pieces. *)
  let value_sign_at i e1 e2 =
    let m1 = memo_at i e1 and m2 = memo_at i e2 in
    match B.order_enclosures m1.enc m2.enc with
    | Some s -> s
    | None -> B.diff_sign_at m1.view m1.k m2.view m2.k i

  include Sweep_cost

  type violation_kind = V_structure | V_order | V_event | V_dead | V_clock

  let violation_kind_name = function
    | V_structure -> "structure"
    | V_order -> "order"
    | V_event -> "event"
    | V_dead -> "dead"
    | V_clock -> "clock"

  (* Per-object cost attribution lives in the entries: each comparison
     and swap bumps its two participants' counters, and [hot_objects]
     folds them per OID.  [attr] only decides whether they are reported. *)
  type t = {
    order : entry OL.t;
    mutable queue : (B.instant, event_data) LH.t;
    mutable now : B.instant;
    horizon : F.t option;
    by_label : (label, entry) Hashtbl.t;
    stats : stats;
    sink : Sink.t;
    attr : bool;
    mutable batch : int;  (* stamp of the current rescheduling pass *)
    mutable version : int;  (* insertions into and deletions from [order] *)
  }

  let now t = t.now
  let stats t = t.stats
  let order t = OL.to_list t.order
  let size t = OL.length t.order
  let version t = t.version
  let bump t = t.version <- t.version + 1

  let first_n t n =
    let rec go acc k handle =
      match handle with
      | None -> List.rev acc
      | Some h ->
        if k = 0 then List.rev acc
        else go (OL.elt h :: acc) (k - 1) (OL.next t.order h)
    in
    go [] n (OL.first t.order)

  let find t lbl =
    match Hashtbl.find_opt t.by_label lbl with
    | Some e when e.node <> None -> Some e
    | _ -> None

  (* Record [e] as its label's entry.  An entry it displaces (the label
     inserted again) hands over its counts. *)
  let register t e =
    (match Hashtbl.find_opt t.by_label e.lbl with
     | Some old ->
       e.n_cmp <- e.n_cmp + old.n_cmp;
       e.n_swap <- e.n_swap + old.n_swap
     | None -> ());
    Hashtbl.replace t.by_label e.lbl e

  (* Every OID whose entries took part in a comparison (a swap follows
     one), with their counts summed over its time terms. *)
  let hot_objects t =
    if not t.attr then []
    else begin
      let per_oid = Hashtbl.create (Hashtbl.length t.by_label) in
      Hashtbl.iter
        (fun _ e ->
          match e.lbl with
          | Obj (oid, _) when e.n_cmp > 0 ->
            let c, s = Option.value ~default:(0, 0) (Hashtbl.find_opt per_oid oid) in
            Hashtbl.replace per_oid oid (c + e.n_cmp, s + e.n_swap)
          | _ -> ())
        t.by_label;
      Hashtbl.fold
        (fun oid (c, s) acc -> { h_oid = oid; h_comparisons = c; h_swaps = s } :: acc)
        per_oid []
      |> rank_hot
    end

  (* Ordering of two live entries at instant [i]: value, then one-sided jet,
     then stable label order. *)
  let cmp_entries_at t i e1 e2 =
    t.stats.comparisons <- t.stats.comparisons + 1;
    e1.n_cmp <- e1.n_cmp + 1;
    e2.n_cmp <- e2.n_cmp + 1;
    let s = value_sign_at i e1 e2 in
    if s <> 0 then s
    else begin
      (* the paper's τ' + ε order: the jet of the pieces in force, which
         by continuity is the one-sided sign unless they coincide *)
      let m1 = memo_at i e1 and m2 = memo_at i e2 in
      let s = B.diff_sign_after m1.view m1.k m2.view m2.k i in
      if s <> 0 then s else compare_label e1.lbl e2.lbl
    end

  let node_of e =
    match e.node with
    | Some n -> n
    | None -> invalid_arg "Engine: entry not on the sweep line"

  let next_entry t e = Option.map OL.elt (OL.next t.order (node_of e))
  let prev_entry t e = Option.map OL.elt (OL.prev t.order (node_of e))
  let rank_of t e = OL.rank t.order (node_of e)

  let drop_right_event t e =
    match e.right_event with
    | Some h ->
      LH.delete t.queue h;
      e.right_event <- None
    | None -> ()

  let pending_crossing e = Option.map LH.key e.right_event

  (* The first crossing of [l] and [r] strictly after the clock, up to the
     horizon: [l]'s certificate when it still holds, else a search, which
     becomes the certificate. *)
  let crossing t l r =
    if l.cert_r == r && l.cert_lc == l.curve && l.cert_rc == r.curve
       && (match l.cert_at with
           | None -> true
           | Some i -> i != t.now && B.compare_instant i t.now > 0)
    then l.cert_at
    else begin
      t.stats.searches <- t.stats.searches + 1;
      let found = C.first_crossing ~after:t.now ?horizon:t.horizon l.curve r.curve in
      l.cert_r <- r;
      l.cert_lc <- l.curve;
      l.cert_rc <- r.curve;
      l.cert_at <- found;
      found
    end

  (* Re-examine the pair (l, r), which must be adjacent: replace l's pending
     event with the pair's earliest future crossing (Lemma 9: one event per
     adjacent pair). *)
  let schedule_pair t l r =
    drop_right_event t l;
    match crossing t l r with
    | Some i -> l.right_event <- Some (LH.insert t.queue i (Cross (l, r)))
    | None -> ()

  let schedule_around t e =
    (match prev_entry t e with Some p -> schedule_pair t p e | None -> ());
    match next_entry t e with
    | Some n -> schedule_pair t e n
    | None -> drop_right_event t e

  (* [s] lies within the horizon. *)
  let within t s = match t.horizon with Some h -> F.compare s h <= 0 | None -> true

  let queue t i d = ignore (LH.insert t.queue i d)

  (* The paper's Section 5 remark relaxes continuity to finitely many
     continuous pieces: at a value discontinuity the entry's position in the
     order can change without a curve intersection, so each discontinuous
     breakpoint within the horizon becomes a "jump" event that re-inserts
     the entry.  Curves are right-continuous at jumps (the piece starting at
     the breakpoint is in force there).  Jump events are not handle-tracked:
     a stale one (after a chdir) costs one harmless repositioning.  The
     curve's view lists its jumps, found once per curve. *)
  let future_jumps t e add =
    List.iter
      (fun b ->
        if B.compare_instant_scalar t.now b < 0 && within t b then
          add (B.instant_of_scalar b) (Jump e))
      (PW.view e.curve).jumps

  (* The lifetime event an entry still awaits, passed to [add] when it lies
     within the horizon.  Lifetimes are closed: a mounted entry's death is
     due at or after the clock (a curve whose stop is the current instant
     is still on the line there, and its death, due now, removes it at the
     next advance), an unmounted entry's birth strictly after it.  An
     unmounted entry whose birth is not due is dead: its whole lifetime
     lies behind the sweep.  [clock s] compares the clock with [s]. *)
  let lifetime_event ?clock t e add =
    let clock = match clock with Some c -> c | None -> B.compare_instant_scalar t.now in
    if e.node <> None then begin
      match PW.stop e.curve with
      | Some s when clock s <= 0 -> if within t s then add (B.instant_of_scalar s) (Death e)
      | _ -> ()
    end
    else begin
      let s = PW.start e.curve in
      if clock s >= 0 then e.dead <- true
      else if within t s then add (B.instant_of_scalar s) (Birth e)
    end

  (* The events a mounted entry's own curve sets: its death, then its
     jumps. *)
  let own_events t e add =
    lifetime_event t e add;
    future_jumps t e add

  (* Put a live entry on the sweep line at instant [i] and fix its
     neighbourhood's events. *)
  let mount t i e =
    let handle = OL.insert_sorted ~cmp:(cmp_entries_at t i) t.order e in
    e.node <- Some handle;
    bump t;
    (* the previous neighbour's event (if any) is now stale *)
    (match prev_entry t e with Some p -> drop_right_event t p | None -> ());
    schedule_around t e;
    own_events t e (queue t)

  let unmount t e =
    let p = prev_entry t e and n = next_entry t e in
    drop_right_event t e;
    (match p with Some p -> drop_right_event t p | None -> ());
    OL.delete t.order (node_of e);
    e.node <- None;
    e.dead <- true;
    bump t;
    match p, n with
    | Some p, Some _ -> schedule_around t p
    | _ -> ()

  (* Mount [alive] on the empty sweep line at instant [i] (the initial
     sort: the O(N log N) of Theorem 5(1)), schedule one event per
     adjacent pair, then each mounted entry's death and jumps, in sweep
     order when [by_sweep] and in [alive]'s order otherwise; then each
     [future] entry's birth ({!lifetime_event}, [clock] as there). *)
  let mount_all ?clock t i alive ~by_sweep ~future =
    let sorted = List.sort (cmp_entries_at t i) alive in
    List.iter (fun e -> e.node <- Some (OL.insert_sorted ~cmp:(cmp_entries_at t i) t.order e)) sorted;
    bump t;
    let rec pairs = function
      | a :: (b :: _ as rest) ->
        schedule_pair t a b;
        pairs rest
      | _ -> ()
    in
    pairs (order t);
    List.iter (fun e -> own_events t e (queue t)) (if by_sweep then sorted else alive);
    List.iter (fun e -> lifetime_event ?clock t e (queue t)) future

  let create ?(sink = Sink.noop) ?(attr = true) ~start ?horizon curves =
    let start_i = B.instant_of_scalar start in
    let t =
      { order = OL.create ();
        queue = LH.create ~cmp:B.compare_instant;
        now = start_i;
        horizon;
        by_label = Hashtbl.create 64;
        stats = zero_stats ();
        sink;
        attr;
        batch = 0;
        version = 0;
      }
    in
    let entries =
      List.map
        (fun (lbl, c) ->
          let e = new_entry lbl c in
          register t e;
          e)
        curves
    in
    let alive, rest =
      List.partition
        (fun e ->
          F.compare (PW.start e.curve) start <= 0
          && (match PW.stop e.curve with None -> true | Some s -> F.compare start s <= 0))
        entries
    in
    mount_all ~clock:(F.compare start) t start_i alive ~by_sweep:false ~future:rest;
    t

  (* Local bubble pass with the "just after i" comparator, starting from the
     entries whose neighbourhood changed.  Converges because each swap
     removes one inversion of the strict after-i order.  Every entry whose
     pending event is dropped (or whose neighbourhood moves) is recorded via
     [note] so the caller re-establishes the one-event-per-adjacent-pair
     invariant for it afterwards. *)
  let bubble t i touched ~note =
    let work = Queue.create () in
    let push e = if (not e.dead) && e.node <> None then Queue.add e work in
    (* [note] marks entries whose pending events a swap invalidated; merely
       examining an entry does not require rescheduling it *)
    let push_noted e =
      if (not e.dead) && e.node <> None then begin
        note e;
        Queue.add e work
      end
    in
    List.iter push touched;
    while not (Queue.is_empty work) do
      let e = Queue.pop work in
      if (not e.dead) && e.node <> None then begin
        (match next_entry t e with
         | Some n when cmp_entries_at t i e n > 0 ->
           let en = node_of e and nn = node_of n in
           OL.swap_adjacent t.order en nn;
           (* payloads moved: nodes exchanged owners *)
           e.node <- Some nn;
           n.node <- Some en;
           t.stats.swaps <- t.stats.swaps + 1;
           e.n_swap <- e.n_swap + 1;
           n.n_swap <- n.n_swap + 1;
           (* stale events around the swapped pair *)
           drop_right_event t e;
           drop_right_event t n;
           (match prev_entry t n with
            | Some p ->
              drop_right_event t p;
              push_noted p
            | None -> ());
           push_noted n;
           push_noted e;
           (match next_entry t e with Some x -> push_noted x | None -> ())
         | _ ->
           (match prev_entry t e with
            | Some p when cmp_entries_at t i p e > 0 -> push p
            | _ -> ()))
      end
    done

  (* Re-establish both pair events of each live entry in [disturbed],
     once per entry: the pass's stamp marks the entries it has done. *)
  let reschedule t disturbed =
    t.batch <- t.batch + 1;
    List.iter
      (fun e ->
        if (not e.dead) && e.node <> None && e.stamp <> t.batch then begin
          e.stamp <- t.batch;
          schedule_around t e
        end)
      disturbed

  (* Restore the just-after-now order and the one-event-per-pair invariant
     around [touched].  Needed after updates as well as events: a curve
     introduced or replaced at the update instant may cross a neighbour
     exactly there, and crossings AT the current instant are never scheduled
     (event search is strictly-after). *)
  let settle t touched =
    (* callers have already scheduled their own suspects; only entries the
       bubble actually moved need their events re-established *)
    let disturbed = ref [] in
    bubble t t.now touched ~note:(fun e -> disturbed := e :: !disturbed);
    reschedule t !disturbed

  (* Re-insert a mounted entry at instant [i] (a value discontinuity moved
     it).  Neighbour events are repaired through the caller's touched set. *)
  let reposition t i e touched =
    let p = prev_entry t e and n = next_entry t e in
    drop_right_event t e;
    (match p with Some p -> drop_right_event t p | None -> ());
    OL.delete t.order (node_of e);
    e.node <- None;
    let handle = OL.insert_sorted ~cmp:(cmp_entries_at t i) t.order e in
    e.node <- Some handle;
    bump t;
    (match prev_entry t e with Some p' -> drop_right_event t p' | None -> ());
    t.stats.jumps <- t.stats.jumps + 1;
    touched := e :: (match p with Some p -> [ p ] | None -> []) @ (match n with Some n -> [ n ] | None -> []) @ !touched

  type step = Span of B.instant * B.instant | Point of B.instant

  (* Take every event at [i], the queue's first instant, off the queue. *)
  let pop_batch t i =
    let rec pop acc =
      match LH.find_min t.queue with
      | Some (j, _) when B.compare_instant j i = 0 ->
        (match LH.pop_min t.queue with
         | Some (_, d) -> pop (d :: acc)
         | None -> acc)
      | _ -> acc
    in
    pop []

  let process_batch t i events emit =
    t.stats.batches <- t.stats.batches + 1;
    let cmp0 = t.stats.comparisons in
    let swaps0 = t.stats.swaps in
    let touched = ref [] in
    let deaths = ref [] in
    (* births first: objects created at i take part in the i-order *)
    List.iter
      (function
        | Birth e ->
          t.stats.births <- t.stats.births + 1;
          mount t i e;
          touched := e :: !touched
        | Cross (l, r) ->
          t.stats.crossings <- t.stats.crossings + 1;
          (* the handle was popped; clear the dangling reference *)
          (match l.right_event with
           | Some h when not (LH.mem h) -> l.right_event <- None
           | _ -> ());
          touched := l :: r :: !touched
        | Jump e -> if (not e.dead) && e.node <> None then reposition t i e touched
        | Death e -> deaths := e :: !deaths)
      events;
    let disturbed = ref !touched in
    bubble t i !touched ~note:(fun e -> disturbed := e :: !disturbed);
    emit (Point i);
    List.iter
      (fun e ->
        if e.node <> None then begin
          t.stats.deaths <- t.stats.deaths + 1;
          unmount t e
        end)
      !deaths;
    (* restore the one-event-per-pair invariant around everything we moved *)
    reschedule t !disturbed;
    if Sink.active t.sink then begin
      (* per-event telemetry: the paper's m (support changes) and Lemma 9's
         O(log N) order-list work per event, as comparisons per event *)
      let nev = List.length events in
      let classify (c, b, d, j) = function
        | Cross _ -> (c + 1, b, d, j)
        | Birth _ -> (c, b + 1, d, j)
        | Death _ -> (c, b, d + 1, j)
        | Jump _ -> (c, b, d, j + 1)
      in
      let nc, nb, nd, nj = List.fold_left classify (0, 0, 0, 0) events in
      (* a simultaneous batch resolves several transpositions under one
         popped crossing event, so the paper's m is counted in swaps *)
      let nswaps = t.stats.swaps - swaps0 in
      Sink.count t.sink "moq_sweep_batches_total" 1;
      Sink.count t.sink "moq_sweep_events_total" nev;
      Sink.count t.sink "moq_sweep_crossings_total" nc;
      Sink.count t.sink "moq_sweep_swaps_total" nswaps;
      Sink.count t.sink "moq_sweep_births_total" nb;
      Sink.count t.sink "moq_sweep_deaths_total" nd;
      Sink.count t.sink "moq_sweep_jumps_total" nj;
      Sink.count t.sink "moq_sweep_support_changes_total" (nswaps + nb + nd);
      Sink.count t.sink "moq_sweep_comparisons_total" (t.stats.comparisons - cmp0);
      Sink.observe t.sink "moq_sweep_ops_per_event"
        (float_of_int (t.stats.comparisons - cmp0) /. float_of_int (max 1 nev));
      Sink.set t.sink "moq_sweep_order_len" (float_of_int (OL.length t.order));
      Sink.set t.sink "moq_sweep_queue_len" (float_of_int (LH.length t.queue))
    end

  let rec advance t ~upto ~emit =
    match LH.find_min t.queue with
    | Some (i, _) when B.compare_instant_scalar i upto < 0 ->
      let later = B.compare_instant t.now i < 0 in
      (* the span is read while its closing batch is still queued, so the
         engine is whole during the callback *)
      if later then emit (Span (t.now, i));
      let events = pop_batch t i in
      (* move the clock first so rescheduling searches strictly after
         this batch and never re-finds its own events *)
      t.now <- i;
      (* deaths due at the clock close lifetimes at an instant the
         caller has already read: they emit no second Point *)
      let closing = (not later) && List.for_all (function Death _ -> true | _ -> false) events in
      process_batch t i events (if closing then ignore else emit);
      advance t ~upto ~emit
    | _ -> ()

  (* Updates carry their own time (the paper's τ1 > current time); the
     caller advances past the preceding events first. *)
  let sync_clock t ~at =
    let i = B.instant_of_scalar at in
    if B.compare_instant t.now i > 0 then
      invalid_arg "Engine: update before the current sweep time"
    else t.now <- i

  let insert t ~at lbl c =
    if not (PW.defined_at c at) then invalid_arg "Engine.insert: curve not defined at insertion time"
    else begin
      sync_clock t ~at;
      let e = new_entry lbl c in
      register t e;
      t.stats.births <- t.stats.births + 1;
      mount t t.now e;
      settle t [ e ];
      if Sink.active t.sink then begin
        Sink.count t.sink "moq_engine_inserts_total" 1;
        Sink.count t.sink "moq_sweep_support_changes_total" 1
      end
    end

  let remove t ~at lbl =
    match find t lbl with
    | None -> invalid_arg "Engine.remove: no such live entry"
    | Some e ->
      sync_clock t ~at;
      t.stats.deaths <- t.stats.deaths + 1;
      let p = prev_entry t e and n = next_entry t e in
      unmount t e;
      (* the newly adjacent pair may cross exactly at the update instant *)
      settle t (List.filter_map Fun.id [ p; n ]);
      if Sink.active t.sink then begin
        Sink.count t.sink "moq_engine_removes_total" 1;
        Sink.count t.sink "moq_sweep_support_changes_total" 1
      end

  let replace_curve t ~at lbl c =
    match find t lbl with
    | None -> invalid_arg "Engine.replace_curve: no such live entry"
    | Some e ->
      sync_clock t ~at;
      set_curve e c;
      (* the order at the current instant is unchanged (curves agree at the
         update time); only this entry's pending intersections move — but
         the new curve may leave the neighbourhood immediately (a crossing
         exactly at the update time), which [settle] repairs *)
      (match prev_entry t e with Some p -> drop_right_event t p | None -> ());
      drop_right_event t e;
      schedule_around t e;
      own_events t e (queue t);
      settle t [ e ];
      Sink.count t.sink "moq_engine_replaces_total" 1

  let replace_all_curves_now t f =
    (* Theorem 10: no re-sorting; rebuild the event queue in O(N). *)
    let entries = order t in
    List.iter
      (fun e ->
        set_curve e (f e);
        e.right_event <- None)
      entries;
    let events = ref [] in
    let rec pairs = function
      | l :: (r :: _ as rest) ->
        (match crossing t l r with
         | Some i -> events := (`Pair l, i, Cross (l, r)) :: !events
         | None -> ());
        pairs rest
      | _ -> ()
    in
    pairs entries;
    let add i d = events := (`Plain, i, d) :: !events in
    List.iter (fun e -> own_events t e add) entries;
    (* unborn entries keep their birth events *)
    Hashtbl.iter
      (fun _ e ->
        if e.node = None && not e.dead then begin
          set_curve e (f e);
          lifetime_event t e add
        end)
      t.by_label;
    let heap, handles =
      LH.of_list ~cmp:B.compare_instant (List.map (fun (_, i, d) -> (i, d)) !events)
    in
    t.queue <- heap;
    List.iter2
      (fun (tag, _, _) h ->
        match tag with
        | `Pair l -> l.right_event <- Some h
        | `Plain -> ())
      !events handles

  let replace_all_curves t ~at f =
    sync_clock t ~at;
    replace_all_curves_now t f;
    (* the wholesale curve change preserves values at [at] but may invert
       just-after-now jets anywhere: one O(N) settling pass *)
    settle t (order t);
    Sink.count t.sink "moq_engine_mass_replaces_total" 1

  (* ---------------------------------------------------------------- *)
  (* Invariant audit + self-healing rebuild.                           *)

  (* The one checker of the sweep invariant: collect its violations
     without raising ([check_invariants] raises on them).  O(N)
     comparisons plus the order list's structural check. *)
  let audit_kinds t =
    let violations = ref [] in
    let note kind fmt =
      Format.kasprintf (fun s -> violations := (kind, s) :: !violations) fmt
    in
    (* 1. order-list structure (AVL balance, sizes, parent pointers) *)
    (try OL.check_invariants t.order
     with e -> note V_structure "order list structure: %s" (Printexc.to_string e));
    let entries = order t in
    (* 2. sorted w.r.t. just-after-now — except that an update may land
       exactly on a crossing instant of an unrelated pair, whose swap then
       still sits in the queue as a batch at [now]; such an inversion must
       be backed by that pending event *)
    let rec sorted = function
      | a :: (b :: _ as rest) ->
        if cmp_entries_at t t.now a b > 0 then begin
          let excused =
            match a.right_event with
            | Some h -> LH.mem h && B.compare_instant (LH.key h) t.now = 0
            | None -> false
          in
          if not excused then
            note V_order "order violated at (%a, %a) with no pending event at now"
              pp_label a.lbl pp_label b.lbl
        end;
        sorted rest
      | _ -> ()
    in
    sorted entries;
    (* 3. one live event per adjacent pair, correctly targeted *)
    let rec events = function
      | l :: (r :: _ as rest) ->
        (match l.right_event with
         | Some h ->
           if not (LH.mem h) then
             note V_event "stale (deleted) event handle on %a" pp_label l.lbl
           else begin
             match LH.value h with
             | Cross (a, b) ->
               if not (a == l && b == r) then
                 note V_event "event on %a targets a non-adjacent pair" pp_label l.lbl
             | _ -> note V_event "right event of %a is not a crossing" pp_label l.lbl
           end
         | None -> ());
        events rest
      | [ e ] ->
        if e.right_event <> None then
          note V_event "last entry %a holds an event" pp_label e.lbl
      | [] -> ()
    in
    events entries;
    (* 4. dead/unmounted entries must not appear on the sweep line *)
    List.iter
      (fun e ->
        if e.dead then note V_dead "dead entry %a still mounted" pp_label e.lbl)
      entries;
    (* 5. monotone batch times: no event precedes the clock *)
    (match LH.find_min t.queue with
     | Some (i, _) when B.compare_instant i t.now < 0 ->
       note V_clock "pending event precedes the clock"
     | _ -> ());
    List.rev !violations

  let audit t = List.map snd (audit_kinds t)

  let check_invariants t =
    match audit t with
    | [] -> ()
    | found -> failwith ("Engine.check_invariants: " ^ String.concat "; " found)

  (* Theorem 10 fallback: discard the sweep structures and rebuild them
     from the entries' curves in O(N log N) — a graceful degradation when
     an audit finds corrupted state (instead of crashing mid-stream). *)
  let rebuild t =
    t.stats.rebuilds <- t.stats.rebuilds + 1;
    Sink.count t.sink "moq_engine_rebuilds_total" 1;
    let mounted = order t in
    List.iter
      (fun e ->
        (match e.node with Some n -> OL.delete t.order n | None -> ());
        e.node <- None;
        e.right_event <- None)
      mounted;
    (* every non-dead entry is re-examined against the clock: alive curves
       are re-sorted onto the line (healing entries that missed a birth or
       death event), future ones get fresh birth events *)
    let candidates = Hashtbl.fold (fun _ e acc -> if e.dead then acc else e :: acc) t.by_label [] in
    let alive, future =
      List.partition
        (fun e ->
          B.compare_instant_scalar t.now (PW.start e.curve) >= 0
          && (match PW.stop e.curve with
              | None -> true
              | Some s -> B.compare_instant_scalar t.now s <= 0))
        candidates
    in
    t.queue <- LH.create ~cmp:B.compare_instant;
    mount_all t t.now alive ~by_sweep:true ~future

  (* One audit pass's findings: counted, per kind in the stats fields and
     the sink, and healed by a rebuild when there are any. *)
  let heal t violations =
    Sink.count t.sink "moq_engine_audits_total" 1;
    if violations <> [] then begin
      t.stats.audit_failures <- t.stats.audit_failures + 1;
      Sink.count t.sink "moq_engine_audit_failures_total" 1;
      List.iter
        (fun (kind, _) ->
          (match kind with
           | V_structure -> t.stats.audit_structure <- t.stats.audit_structure + 1
           | V_order -> t.stats.audit_order <- t.stats.audit_order + 1
           | V_event -> t.stats.audit_event <- t.stats.audit_event + 1
           | V_dead -> t.stats.audit_dead <- t.stats.audit_dead + 1
           | V_clock -> t.stats.audit_clock <- t.stats.audit_clock + 1);
          if Sink.active t.sink then
            Sink.count t.sink
              ("moq_engine_audit_violation_" ^ violation_kind_name kind ^ "_total") 1)
        violations;
      rebuild t
    end;
    List.map snd violations

  let audit_and_heal t = heal t (audit_kinds t)
end
