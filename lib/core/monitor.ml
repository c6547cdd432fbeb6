(** Future and continuing queries (paper, Theorem 5, Corollary 6,
    Theorem 10).

    The monitor "semi-evaluates" the query eagerly: it holds the sweep state
    at the current clock and, as updates arrive chronologically, processes
    the intersection events that precede each update, turning predicted
    answer pieces into {e valid} ones (Definition 4: a valid answer can no
    longer change under any update sequence, because updates strictly follow
    the clock).  The three update kinds are handled exactly as in the
    paper's case analysis; a direction change of the query object itself is
    the O(N) rebuild of Theorem 10. *)

module Oid = Moq_mod.Oid
module Q = Moq_numeric.Rat
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module Sink = Moq_obs.Sink

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module P = Problem.Make (B)
  module R = Reader.Make (B)
  module TL = R.TL
  module Sw = Sweep.Make (B)

  type t = {
    mutable db : DB.t;
    problem : P.t;
    engine : E.t;
    sink : Sink.t;
    query : Fof.query;
    read : E.step -> Oid.Set.t;  (** the answer on one piece ({!Sweep.reader}) *)
    hi : Q.t;  (** interval end *)
    materialize : bool;
        (** evaluate and record answers (default); [false] maintains the
            support only — the object Theorem 5 bounds — and leaves the
            timeline empty *)
    mutable valid : TL.piece list;  (** reversed; answers that can no longer change *)
    mutable n_valid : int;  (** [List.length valid] *)
    mutable drained : int;  (** prefix of [valid] already handed to {!drain_valid} *)
    mutable clock : Q.t;  (** no update can arrive at or before this time *)
  }

  let record m piece =
    m.valid <- piece :: m.valid;
    m.n_valid <- m.n_valid + 1

  (* Record one piece of the sweep, when the monitor materializes. *)
  let emit m = if m.materialize then fun step -> record m (R.piece step (m.read step)) else ignore

  let advance_engine m (upto : Q.t) = E.advance m.engine ~upto ~emit:(emit m)

  let instant (tau : Q.t) = B.instant_of_scalar tau

  (* Theorem 5(1): initialization, O(N log N). *)
  let create ?(sink = Sink.noop) ?(attr = true) ?(materialize = true) ?curves ~(db : DB.t)
      ~(gdist : Gdist.t) ~(query : Fof.query) () : t =
    let lo, hi = Reader.interval_bounds query in
    let p =
      match curves with
      | None -> P.create ~db ~gdist ~query ~istart:lo
      | Some store ->
        if Curve_store.gdist store != gdist then
          invalid_arg "Monitor.create: curve store of another g-distance";
        P.create_stored ~store ~db ~query ~istart:lo
    in
    let eng = R.engine ~sink ~attr ~lo ~hi (P.entry_list p) in
    if Sink.active sink then begin
      Sink.count sink "moq_monitor_created_total" 1;
      let kind =
        match Classify.classify db query with
        | Classify.Past -> "past"
        | Classify.Continuing -> "continuing"
        | Classify.Future -> "future"
      in
      Sink.count sink (Printf.sprintf "moq_query_kind_%s_total" kind) 1
    end;
    let m =
      { db; problem = p; engine = eng; sink; query; read = Sw.reader p query eng; hi;
        materialize; valid = []; n_valid = 0; drained = 0; clock = lo }
    in
    emit m (E.Point (instant lo));
    (* the part of the interval already in the past is valid immediately *)
    let tau0 = DB.last_update db in
    if Q.compare lo tau0 < 0 then advance_engine m (Q.min tau0 hi);
    m.clock <- Q.max lo (Q.min tau0 hi);
    m

  (* Close the validated timeline up to [upto] (trailing span + endpoint). *)
  let close_until m (upto : Q.t) = R.close m.engine (instant upto) (emit m)

  (* Bring the monitor to the update time [tau] around [f], which applies
     the update to the engine: the events before [tau], the span into it
     with the pre-update answers, the engine clock moved to [tau], [f],
     then the point [tau], whose answer reflects the update. *)
  let at_update m (tau : Q.t) f =
    let tau_eff = Q.min tau m.hi in
    if Q.compare m.clock tau_eff < 0 then advance_engine m tau_eff;
    let now = E.now m.engine and upto = instant tau_eff in
    let opened = B.compare_instant now upto < 0 in
    if opened then emit m (E.Span (now, upto));
    E.sync_clock m.engine ~at:tau_eff;
    f ();
    if opened then emit m (E.Point upto);
    if Q.compare m.clock tau_eff < 0 then m.clock <- tau_eff

  (* Theorem 5(2): one update, O(m log N) where m is the number of support
     changes since the previous update.  [committed] is the MOD after [u]
     when the caller already holds it (a server's store): the monitor
     adopts it in place of its own copy, so monitors over one MOD hold the
     same trajectories and share their curves through one {!Curve_store}.
     It must equal the monitor's MOD with [u] applied, which is still
     computed to validate [u]. *)
  let apply_update_raw ?committed m (u : U.t) : (unit, DB.error) result =
    match DB.apply m.db u with
    | Error e -> Error e
    | Ok db' ->
      let db' = Option.value committed ~default:db' in
      let tau = U.time u in
      at_update m tau (fun () ->
          m.db <- db';
          let o = U.oid u in
          (* refresh problem-side curves *)
          (match DB.find db' o with
           | Some tr -> ignore (P.update_object m.problem o tr)
           | None -> ());
          (* engine-side, only when the update time is within the horizon *)
          if Q.compare tau m.hi <= 0 then begin
            let arr = Oid.Map.find o m.problem.P.curves in
            match u with
            | U.New _ ->
              Array.iteri
                (fun k c ->
                  match c with
                  | Some c when B.PW.defined_at c tau -> E.insert m.engine ~at:tau (E.Obj (o, k)) c
                  | Some _ | None ->
                    (* curve starting later (affine time term) is picked up as
                       a birth event when the problem curves are rebuilt *)
                    ())
                arr
            | U.Chdir _ | U.Terminate _ ->
              (* a terminated curve stops at [tau]: lifetimes are closed, so
                 the entry stays for the answer at [tau] and its death, due
                 now, removes it at the next advance *)
              Array.iteri
                (fun k c ->
                  match c, E.find m.engine (E.Obj (o, k)) with
                  | Some c, Some _ -> E.replace_curve m.engine ~at:tau (E.Obj (o, k)) c
                  | Some c, None when B.PW.defined_at c tau ->
                    E.insert m.engine ~at:tau (E.Obj (o, k)) c
                  | None, Some _ -> E.remove m.engine ~at:tau (E.Obj (o, k))
                  | _ -> ())
                arr
          end);
      Ok ()

  let hot_objects m = E.hot_objects m.engine

  (* Corollary 6 check: per-update latency and the support-change count m
     this update triggered (events processed while advancing to the update
     time, plus the update's own births/deaths). *)
  let apply_update ?committed m (u : U.t) : (unit, DB.error) result =
    if not (Sink.active m.sink) then apply_update_raw ?committed m u
    else begin
      Sink.count m.sink "moq_monitor_updates_total" 1;
      let s0 = E.support_changes (E.stats m.engine) in
      let r =
        Sink.time m.sink "moq_monitor_update_seconds" (fun () ->
            apply_update_raw ?committed m u)
      in
      (match r with
       | Ok () ->
         Sink.observe m.sink "moq_monitor_support_delta"
           (float_of_int (E.support_changes (E.stats m.engine) - s0))
       | Error _ -> Sink.count m.sink "moq_monitor_update_errors_total" 1);
      r
    end

  let apply_update_exn m u =
    match apply_update m u with
    | Ok () -> ()
    | Error e -> invalid_arg (Format.asprintf "Monitor.apply_update: %a" DB.pp_error e)

  (* A clock tick (discussion after Corollary 6): assert that no update will
     arrive at or before [tau]; answers up to [tau] become valid. *)
  let advance_clock m (tau : Q.t) =
    if Q.compare tau m.clock > 0 then begin
      let tau_eff = Q.min tau m.hi in
      if Q.compare m.clock tau_eff < 0 then advance_engine m tau_eff;
      m.clock <- Q.max m.clock tau_eff
    end

  (* Theorem 10: a chdir on the query trajectory.  The caller supplies the
     updated g-distance (same γ position at [tau], so every curve is
     continuous through [tau] and the precedence relation is unchanged); the
     engine rebuilds all pending events in O(N) without re-sorting. *)
  let chdir_query m ~(tau : Q.t) ~(gdist : Gdist.t) =
    Sink.count m.sink "moq_monitor_query_chdirs_total" 1;
    at_update m tau (fun () ->
        P.set_gdist m.problem gdist m.db;
        if Q.compare tau m.hi <= 0 then
          E.replace_all_curves m.engine ~at:tau (fun e ->
              match E.label e with
              | E.Obj (o, k) ->
                (match Oid.Map.find_opt o m.problem.P.curves with
                 | Some arr when k < Array.length arr ->
                   (match arr.(k) with Some c -> c | None -> E.curve e)
                 | _ -> E.curve e)
              | E.Cst _ -> E.curve e))

  (* Incremental consumers (a live subscription's push path): the validated
     pieces produced since the previous drain, chronological.  Unlike
     {!valid_timeline} the pieces are raw — not simplified, no synthetic
     closing span — so consecutive drains concatenate into exactly the
     monitor's validated piece stream. *)
  let drain_valid m : TL.piece list =
    let fresh = m.n_valid - m.drained in
    m.drained <- m.n_valid;
    (* the newest [fresh] pieces head [valid]; reversing them costs O(fresh) *)
    let rec take k l acc =
      match l with x :: tl when k > 0 -> take (k - 1) tl (x :: acc) | _ -> acc
    in
    take fresh m.valid []

  (* The validated prefix of the answer (everything up to the clock). *)
  let valid_timeline m : TL.t =
    let closed = { m with valid = m.valid } in
    close_until closed m.clock;
    TL.simplify (List.rev closed.valid)

  (* Predict the rest of the interval from the current state by lazily
     sweeping a copy (the "lazy evaluation" alternative of Section 3 — used
     here only for the not-yet-valid suffix). *)
  let predict m : TL.t =
    if Q.compare m.clock m.hi >= 0 then []
    else begin
      let query =
        { m.query with Fof.interval = Fof.Interval.closed m.clock m.hi }
      in
      let r = Sw.run ~db:m.db ~gdist:m.problem.P.gdist ~query in
      r.Sw.timeline
    end

  (* Finish: no more updates will ever arrive (the query has become past).
     Returns the complete, valid timeline. *)
  let finalize m : TL.t =
    advance_clock m m.hi;
    close_until m m.hi;
    m.clock <- m.hi;
    TL.simplify (List.rev m.valid)

  let stats m = E.stats m.engine
  let engine m = m.engine
  let db m = m.db
  let clock m = m.clock

  (* Robustness hooks: a long-lived monitor periodically audits the sweep
     invariants and, on violation, falls back to the O(N log N) rebuild
     (Theorem 10's initialization cost) instead of crashing mid-stream. *)
  let audit_kinds m =
    let eng = E.audit_kinds m.engine in
    let local = ref [] in
    if Q.compare m.clock m.hi > 0 then
      local := (E.V_clock, "monitor clock past the interval end") :: !local;
    if Q.compare (DB.last_update m.db) m.clock > 0 && Q.compare m.clock m.hi < 0 then
      local := (E.V_clock, "validated clock behind the database's last update") :: !local;
    eng @ List.rev !local

  let audit m = List.map snd (audit_kinds m)

  let audit_and_heal m =
    let found = E.heal m.engine (audit_kinds m) in
    if Q.compare m.clock m.hi > 0 then m.clock <- m.hi;
    found

  let heal m = E.rebuild m.engine
end
