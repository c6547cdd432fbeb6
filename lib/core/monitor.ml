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
  module S = P.S
  module TL = Timeline.Make (B)
  module Sw = Sweep.Make (B)

  type t = {
    mutable db : DB.t;
    problem : P.t;
    engine : E.t;
    sink : Sink.t;
    query : Fof.query;
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

  let interval_bounds (q : Fof.query) =
    match Fof.Interval.lo q.Fof.interval, Fof.Interval.hi q.Fof.interval with
    | Some lo, Some hi -> (lo, hi)
    | _ -> invalid_arg "Monitor: queries need a bounded interval"

  let record m piece =
    m.valid <- piece :: m.valid;
    m.n_valid <- m.n_valid + 1

  let advance_engine m (upto : Q.t) =
    if not m.materialize then E.advance m.engine ~upto:(B.scalar_of_rat upto) ~emit:(fun _ -> ())
    else begin
      let ctx = P.snapshot_ctx m.problem in
      let answer i = S.answer_at ctx m.query i in
      let emit = function
        | E.Span (a, b) ->
          let sample = B.instant_of_scalar (B.between a b) in
          record m (TL.Span (a, b, answer sample))
        | E.Point i -> record m (TL.At (i, answer i))
      in
      E.advance m.engine ~upto:(B.scalar_of_rat upto) ~emit
    end

  (* Theorem 5(1): initialization, O(N log N). *)
  let create ?(sink = Sink.noop) ?(attr = true) ?(materialize = true) ~(db : DB.t)
      ~(gdist : Gdist.t) ~(query : Fof.query) () : t =
    let lo, hi = interval_bounds query in
    let p = P.create ~db ~gdist ~query ~istart:lo in
    let eng =
      E.create ~sink ~attr ~start:(B.scalar_of_rat lo) ~horizon:(B.scalar_of_rat hi)
        (P.entry_list p)
    in
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
      { db; problem = p; engine = eng; sink; query; hi; materialize;
        valid = []; n_valid = 0; drained = 0; clock = lo }
    in
    if materialize then begin
      let lo_i = B.instant_of_scalar (B.scalar_of_rat lo) in
      let ctx = P.snapshot_ctx p in
      record m (TL.At (lo_i, S.answer_at ctx query lo_i))
    end;
    (* the part of the interval already in the past is valid immediately *)
    let tau0 = DB.last_update db in
    if Q.compare lo tau0 < 0 then advance_engine m (Q.min tau0 hi);
    m.clock <- Q.max lo (Q.min tau0 hi);
    m

  (* Emit the span between the engine's position and [tau] with the current
     (pre-update) answers.  The engine clock itself is moved by the
     subsequent update operation or sync. *)
  let close_span_to m (tau : Q.t) =
    if not m.materialize then ()
    else
    let now = E.now m.engine in
    let tau_i = B.instant_of_scalar (B.scalar_of_rat tau) in
    if B.compare_instant now tau_i < 0 then begin
      let ctx = P.snapshot_ctx m.problem in
      let sample = B.instant_of_scalar (B.between now tau_i) in
      record m (TL.Span (now, tau_i, S.answer_at ctx m.query sample))
    end

  let emit_at m (tau : Q.t) =
    if not m.materialize then ()
    else
    let ctx = P.snapshot_ctx m.problem in
    let tau_i = B.instant_of_scalar (B.scalar_of_rat tau) in
    record m (TL.At (tau_i, S.answer_at ctx m.query tau_i))

  (* Close the validated timeline up to [upto] (trailing span + endpoint). *)
  let close_until m (upto : Q.t) =
    let now = E.now m.engine in
    let upto_i = B.instant_of_scalar (B.scalar_of_rat upto) in
    if B.compare_instant now upto_i < 0 then begin
      close_span_to m upto;
      emit_at m upto
    end

  (* Theorem 5(2): one update, O(m log N) where m is the number of support
     changes since the previous update. *)
  let apply_update_raw m (u : U.t) : (unit, DB.error) result =
    match DB.apply m.db u with
    | Error e -> Error e
    | Ok db' ->
      let tau = U.time u in
      let tau_eff = Q.min tau m.hi in
      if Q.compare m.clock tau_eff < 0 then advance_engine m tau_eff;
      (* validate the span leading up to the update with pre-update state *)
      let emitted_span = B.compare_instant (E.now m.engine) (B.instant_of_scalar (B.scalar_of_rat tau_eff)) < 0 in
      if emitted_span then close_span_to m tau_eff;
      E.sync_clock m.engine ~at:(B.scalar_of_rat tau_eff);
      m.db <- db';
      let o = U.oid u in
      (* refresh problem-side curves *)
      (match DB.find db' o with
       | Some tr -> ignore (P.update_object m.problem o tr)
       | None -> ());
      (* engine-side, only when the update time is within the horizon *)
      if Q.compare tau m.hi <= 0 then begin
        let tau_s = B.scalar_of_rat tau in
        let arr = Oid.Map.find o m.problem.P.curves in
        (match u with
         | U.New _ ->
           Array.iteri
             (fun k c ->
               match c with
               | Some c when B.PW.defined_at c tau_s -> E.insert m.engine ~at:tau_s (E.Obj (o, k)) c
               | Some _ | None ->
                 (* curve starting later (affine time term) is picked up as
                    a birth event when the problem curves are rebuilt *)
                 ())
             arr
         | U.Terminate _ ->
           Array.iteri
             (fun k _ ->
               match E.find m.engine (E.Obj (o, k)) with
               | Some _ -> E.remove m.engine ~at:tau_s (E.Obj (o, k))
               | None -> ())
             arr
         | U.Chdir _ ->
           Array.iteri
             (fun k c ->
               match c, E.find m.engine (E.Obj (o, k)) with
               | Some c, Some _ -> E.replace_curve m.engine ~at:tau_s (E.Obj (o, k)) c
               | Some c, None when B.PW.defined_at c tau_s ->
                 E.insert m.engine ~at:tau_s (E.Obj (o, k)) c
               | _ -> ())
             arr)
      end;
      (* the answer at the update instant reflects the update *)
      if emitted_span then emit_at m tau_eff;
      if Q.compare m.clock tau_eff < 0 then m.clock <- tau_eff;
      Ok ()

  (* Corollary 6 check: per-update latency and the support-change count m
     this update triggered (events processed while advancing to the update
     time, plus the update's own births/deaths). *)
  let support_of (s : E.stats) = s.E.crossings + s.E.births + s.E.deaths

  let hot_objects m = E.hot_objects m.engine

  let apply_update m (u : U.t) : (unit, DB.error) result =
    if not (Sink.active m.sink) then apply_update_raw m u
    else begin
      Sink.count m.sink "moq_monitor_updates_total" 1;
      let s0 = support_of (E.stats m.engine) in
      let r =
        Sink.time m.sink "moq_monitor_update_seconds" (fun () ->
            apply_update_raw m u)
      in
      (match r with
       | Ok () ->
         Sink.observe m.sink "moq_monitor_support_delta"
           (float_of_int (support_of (E.stats m.engine) - s0))
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
    let tau_eff = Q.min tau m.hi in
    if Q.compare m.clock tau_eff < 0 then advance_engine m tau_eff;
    let emitted_span =
      B.compare_instant (E.now m.engine) (B.instant_of_scalar (B.scalar_of_rat tau_eff)) < 0
    in
    if emitted_span then close_span_to m tau_eff;
    E.sync_clock m.engine ~at:(B.scalar_of_rat tau_eff);
    P.set_gdist m.problem gdist m.db;
    if Q.compare tau m.hi <= 0 then
      E.replace_all_curves m.engine ~at:(B.scalar_of_rat tau) (fun e ->
          match E.label e with
          | E.Obj (o, k) ->
            (match Oid.Map.find_opt o m.problem.P.curves with
             | Some arr when k < Array.length arr ->
               (match arr.(k) with Some c -> c | None -> E.curve e)
             | _ -> E.curve e)
          | E.Cst _ -> E.curve e);
    if emitted_span then emit_at m tau_eff;
    if Q.compare m.clock tau_eff < 0 then m.clock <- tau_eff

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
    Sink.count m.sink "moq_engine_audits_total" 1;
    match audit_kinds m with
    | [] -> []
    | violations ->
      (E.stats m.engine).E.audit_failures <- (E.stats m.engine).E.audit_failures + 1;
      Sink.count m.sink "moq_engine_audit_failures_total" 1;
      E.note_violations m.engine violations;
      E.rebuild m.engine;
      if Q.compare m.clock m.hi > 0 then m.clock <- m.hi;
      List.map snd violations

  let heal m = E.rebuild m.engine
end
