(** Continuous POI aggregation (Gómez–Kuijpers–Vaisman, PAPERS.md).

    Given a set of places of interest (points with a shared distance
    threshold [d]) and a tumbling window, maintain per-POI, per-window
    aggregates over the moving objects: the object count at the window's
    end, the time-weighted average count over the window (density), and the
    number of distinct visitors.  Two evaluation strategies:

    - {!Make.Cont} — incremental: one {!Moq_core.Monitor} per POI over a
      {e watched} sub-database, fed update-by-update.  Aggregates fall out
      of the sweep's support-change events; no per-window rescan ever
      happens.  The watch set is pruned through the {!Moq_index.Grid}: a
      POI only admits objects whose exact trajectory box comes within [d]
      of it (ring-searched outward from the POI's cell), and objects are
      admitted lazily when a later update steers them into reach.
    - {!Make.rescan} — the baseline the bench gates against: an
      independent full sweep ({!Moq_core.Sweep}) of the whole database per
      POI per window.

    Both produce bit-identical rows: the same canonical simplified
    timeline is extracted per window and the same fold computes the row,
    so equality is structural (the [w1] bench's exactness check). *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module Oid = Moq_mod.Oid
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module U = Moq_mod.Update
module Grid = Moq_index.Grid
module Sink = Moq_obs.Sink
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist

type row = {
  r_poi : int;  (** index into the POI list, 0-based *)
  r_widx : int;  (** window index, 0-based *)
  r_lo : Q.t;
  r_hi : Q.t;
  r_count : int;  (** objects within [d] at the window's end (exact) *)
  r_density : float;  (** time-weighted average count over the window *)
  r_distinct : int;  (** distinct visitors over the window (exact) *)
}

type stats = {
  pois : int;
  windows : int;  (** windows per POI *)
  rows : int;  (** rows finalized so far *)
  admitted : int;  (** watch admissions across POIs (initial + lazy) *)
  pruned : int;  (** admission tests that kept an object out of a watch *)
  updates : int;  (** updates offered *)
  forwarded : int;  (** update deliveries into per-POI monitors *)
}

let pp_row fmt r =
  Format.fprintf fmt "poi %d window %d [%a, %a): count %d density %.6f distinct %d"
    r.r_poi r.r_widx Q.pp r.r_lo Q.pp r.r_hi r.r_count r.r_density r.r_distinct

(* Windows tile [lo, hi]: window i is [lo + i·w, min (lo + (i+1)·w) hi]. *)
let window_count ~lo ~hi ~window =
  if Q.sign window <= 0 then invalid_arg "Agg: window must be positive";
  if Q.compare lo hi >= 0 then invalid_arg "Agg: need lo < hi";
  let span = Q.sub hi lo in
  let q = Q.div span window in
  (* ceil of an exact positive rational *)
  let fl = int_of_float (Float.floor (Q.to_float q)) in
  let rec up k = if Q.compare (Q.mul (Q.of_int k) window) span >= 0 then k else up (k + 1) in
  up (max fl 1)

let window_bounds ~lo ~hi ~window i =
  let w0 = Q.add lo (Q.mul (Q.of_int i) window) in
  let w1 = Q.min hi (Q.add w0 window) in
  (w0, w1)

module Make (B : Moq_core.Backend.S) = struct
  module Mon = Moq_core.Monitor.Make (B)
  module Sw = Moq_core.Sweep.Make (B)
  module TL = Moq_core.Timeline.Make (B)

  let instant_of_q q = B.instant_of_scalar (B.scalar_of_rat q)
  let cmp_iq i q = B.compare_instant_scalar i (B.scalar_of_rat q)

  (* One row from a window's canonical (simplified, boundary-closed)
     timeline.  Shared verbatim between the incremental and rescan paths so
     equal timelines give bit-identical rows — including the float density,
     summed in the same order over the same algebraic endpoints. *)
  let row_of_timeline ~poi ~widx ~w0 ~w1 (tl : TL.t) : row =
    let count =
      match TL.find_at tl (instant_of_q w1) with
      | Some s -> Oid.Set.cardinal s
      | None -> 0
    in
    let distinct = Oid.Set.cardinal (TL.existential tl) in
    let occupied =
      List.fold_left
        (fun acc p ->
          match p with
          | TL.At _ -> acc
          | TL.Span (a, b, s) ->
            let len = B.instant_to_float b -. B.instant_to_float a in
            acc +. (float_of_int (Oid.Set.cardinal s) *. len))
        0.0 tl
    in
    let wlen = Q.to_float (Q.sub w1 w0) in
    {
      r_poi = poi;
      r_widx = widx;
      r_lo = w0;
      r_hi = w1;
      r_count = count;
      r_density = (if wlen > 0.0 then occupied /. wlen else 0.0);
      r_distinct = distinct;
    }

  (* Clip a contiguous validated piece stream to [w0, w1], closing both
     boundaries with explicit [At] pieces, then canonicalize. *)
  let clip_window ~w0 ~w1 (pieces : TL.piece list) : TL.t =
    let set_at wq =
      let covers = function
        | TL.At (i, _) -> cmp_iq i wq = 0
        | TL.Span (a, b, _) -> cmp_iq a wq < 0 && cmp_iq b wq > 0
      in
      match List.find_opt covers pieces with
      | Some p -> TL.set_of p
      | None -> Oid.Set.empty
    in
    let w0i = instant_of_q w0 and w1i = instant_of_q w1 in
    let middle =
      List.filter_map
        (fun p ->
          match p with
          | TL.At (i, _) ->
            if cmp_iq i w0 > 0 && cmp_iq i w1 < 0 then Some p else None
          | TL.Span (a, b, s) ->
            if cmp_iq b w0 <= 0 || cmp_iq a w1 >= 0 then None
            else begin
              let a' = if cmp_iq a w0 < 0 then w0i else a in
              let b' = if cmp_iq b w1 > 0 then w1i else b in
              if B.compare_instant a' b' < 0 then Some (TL.Span (a', b', s))
              else None
            end)
        pieces
    in
    TL.simplify ((TL.At (w0i, set_at w0) :: middle) @ [ TL.At (w1i, set_at w1) ])

  (* ---- incremental evaluation ---- *)

  module Cont = struct
    type pstate = {
      p_idx : int;
      p_point : Qvec.t;
      p_box : Grid.box;
      p_mon : Mon.t;
      mutable p_admitted : Oid.Set.t;
      mutable p_pending : TL.piece list;  (** chronological, uncut *)
      mutable p_covered : B.instant option;  (** end of the last pending piece *)
      mutable p_next_w : int;  (** next window index to finalize *)
      mutable p_rows : row list;  (** finalized, reversed *)
      mutable p_drained : int;  (** prefix of (rev p_rows) already drained *)
    }

    type t = {
      mutable db : DB.t;
      d2 : Q.t;
      window : Q.t;
      lo : Q.t;
      hi : Q.t;
      nw : int;
      sink : Sink.t;
      ps : pstate array;
      mutable s_admitted : int;
      mutable s_pruned : int;
      mutable s_updates : int;
      mutable s_forwarded : int;
      mutable s_rows : int;
    }

    let point_box (p : Qvec.t) : Grid.box =
      let x = Qvec.get p 0 in
      let y = if Qvec.dim p > 1 then Qvec.get p 1 else Q.zero in
      { Grid.x0 = x; x1 = x; y0 = y; y1 = y }

    let watches ~d2 (pb : Grid.box) (tr : T.t) ~lo ~hi =
      match Grid.trajectory_box tr ~lo ~hi with
      | None -> false
      | Some b -> Q.compare (Grid.box_separation_sq pb b) d2 <= 0

    (* Candidate OIDs for a POI, by expanding grid rings from its cell:
       any object ever within [d] of the POI has a trajectory piece
       bucketed in a cell whose square touches the POI's d-ball, and such
       cells sit within Chebyshev ring ⌈d/cell⌉ + 1 of the POI's cell. *)
    let ring_candidates grid ~cell (p : Qvec.t) ~(d : float) =
      let x = Q.to_float (Qvec.get p 0) in
      let y = if Qvec.dim p > 1 then Q.to_float (Qvec.get p 1) else 0.0 in
      let center = Grid.cell_of ~cell (x, y) in
      let reach = min (Grid.max_ring grid ~center)
          (int_of_float (Float.ceil (d /. cell)) + 1)
      in
      let rec collect ring acc =
        match Grid.next_ring grid ~center ~ring with
        | Some ring when ring <= reach ->
          collect (ring + 1)
            (List.fold_left (fun acc o -> Oid.Set.add o acc) acc
               (Grid.ring_candidates grid ~center ~ring))
        | _ -> acc
      in
      collect 0 Oid.Set.empty

    let query_of t =
      Fof.within_q ~bound:t.d2 ~interval:(Fof.Interval.closed t.lo t.hi)

    let create ?(sink = Sink.noop) ?(cell = 256.0) ~(db : DB.t)
        ~(pois : Qvec.t list) ~(d : Q.t) ~(window : Q.t) ~(lo : Q.t)
        ~(hi : Q.t) () : t =
      if Q.sign d < 0 then invalid_arg "Agg.Cont.create: d must be >= 0";
      let nw = window_count ~lo ~hi ~window in
      let d2 = Q.mul d d in
      let grid = Grid.build ~cell ~lo ~hi db in
      let n = DB.cardinal db in
      let t =
        {
          db;
          d2;
          window;
          lo;
          hi;
          nw;
          sink;
          ps = [||];
          s_admitted = 0;
          s_pruned = 0;
          s_updates = 0;
          s_forwarded = 0;
          s_rows = 0;
        }
      in
      let query = query_of t in
      let mk_pstate i point =
        let pb = point_box point in
        let candidates =
          ring_candidates grid ~cell point ~d:(Q.to_float d)
        in
        let admitted =
          Oid.Set.filter
            (fun o ->
              match DB.find db o with
              | Some tr -> watches ~d2 pb tr ~lo ~hi
              | None -> false)
            candidates
        in
        t.s_admitted <- t.s_admitted + Oid.Set.cardinal admitted;
        t.s_pruned <- t.s_pruned + (n - Oid.Set.cardinal admitted);
        let sub =
          Oid.Set.fold
            (fun o acc ->
              match DB.find db o with
              | Some tr -> DB.add_initial acc o tr
              | None -> acc)
            admitted
            (DB.empty ~dim:(DB.dim db) ~tau:(DB.last_update db))
        in
        let mon =
          Mon.create ~sink ~db:sub ~gdist:(Gdist.distance_sq_to_point point)
            ~query ()
        in
        {
          p_idx = i;
          p_point = point;
          p_box = pb;
          p_mon = mon;
          p_admitted = admitted;
          p_pending = [];
          p_covered = None;
          p_next_w = 0;
          p_rows = [];
          p_drained = 0;
        }
      in
      let ps = Array.of_list (List.mapi mk_pstate pois) in
      let t = { t with ps } in
      if Sink.active sink then begin
        Sink.count sink "moq_agg_pois" (Array.length ps);
        Sink.count sink "moq_agg_watch_admitted_total" t.s_admitted;
        Sink.count sink "moq_agg_watch_pruned_total" t.s_pruned
      end;
      t

    (* Fold freshly validated monitor pieces into the pending buffer and
       finalize every window the buffer now covers. *)
    let harvest t (p : pstate) =
      let fresh = Mon.drain_valid p.p_mon in
      if fresh <> [] then begin
        p.p_pending <- p.p_pending @ fresh;
        let last_end = function
          | TL.At (i, _) -> i
          | TL.Span (_, b, _) -> b
        in
        p.p_covered <- Some (last_end (List.nth fresh (List.length fresh - 1)))
      end;
      let covered_through wq =
        match p.p_covered with None -> false | Some i -> cmp_iq i wq >= 0
      in
      let rec finalize_ready () =
        if p.p_next_w < t.nw then begin
          let w0, w1 = window_bounds ~lo:t.lo ~hi:t.hi ~window:t.window p.p_next_w in
          if covered_through w1 then begin
            let tl = clip_window ~w0 ~w1 p.p_pending in
            let row = row_of_timeline ~poi:p.p_idx ~widx:p.p_next_w ~w0 ~w1 tl in
            p.p_rows <- row :: p.p_rows;
            p.p_next_w <- p.p_next_w + 1;
            t.s_rows <- t.s_rows + 1;
            if Sink.active t.sink then begin
              Sink.count t.sink "moq_agg_rows_total" 1;
              Sink.count t.sink "moq_agg_windows_total" 1
            end;
            (* drop pieces wholly before the finalized boundary *)
            p.p_pending <-
              List.filter
                (fun piece ->
                  match piece with
                  | TL.At (i, _) -> cmp_iq i w1 >= 0
                  | TL.Span (_, b, _) -> cmp_iq b w1 > 0)
                p.p_pending;
            finalize_ready ()
          end
        end
      in
      finalize_ready ()

    (* Lazily admit [o] into [p]'s watch from time [tau]: synthesize the
       [New] the monitor needs (Monitor inserts unknown objects on New),
       anchored so the sub-database trajectory matches the global one from
       [tau] on. *)
    let admit_from t (p : pstate) o (tau : Q.t) =
      match DB.find t.db o with
      | None -> ()
      | Some tr -> (
        match T.position tr tau, T.velocity_after tr tau with
        | Some pos, Some v ->
          let b = Qvec.sub pos (Qvec.scale tau v) in
          Mon.apply_update_exn p.p_mon (U.New { oid = o; tau; a = v; b });
          p.p_admitted <- Oid.Set.add o p.p_admitted;
          t.s_admitted <- t.s_admitted + 1;
          t.s_forwarded <- t.s_forwarded + 1;
          if Sink.active t.sink then
            Sink.count t.sink "moq_agg_watch_admitted_total" 1
        | _ -> ())

    let apply_update t (u : U.t) : (unit, DB.error) result =
      match DB.apply t.db u with
      | Error e -> Error e
      | Ok db' ->
        t.db <- db';
        t.s_updates <- t.s_updates + 1;
        if Sink.active t.sink then Sink.count t.sink "moq_agg_updates_total" 1;
        let o = U.oid u in
        let tau = U.time u in
        Array.iter
          (fun p ->
            if Oid.Set.mem o p.p_admitted then begin
              Mon.apply_update_exn p.p_mon u;
              t.s_forwarded <- t.s_forwarded + 1
            end
            else begin
              match u with
              | U.Terminate _ -> ()
              | U.New _ | U.Chdir _ ->
                if Q.compare tau t.hi <= 0 then begin
                  let from_ = Q.max tau t.lo in
                  let reaches =
                    match DB.find db' o with
                    | Some tr -> watches ~d2:t.d2 p.p_box tr ~lo:from_ ~hi:t.hi
                    | None -> false
                  in
                  if reaches then begin
                    match u with
                    | U.New _ ->
                      Mon.apply_update_exn p.p_mon u;
                      p.p_admitted <- Oid.Set.add o p.p_admitted;
                      t.s_admitted <- t.s_admitted + 1;
                      t.s_forwarded <- t.s_forwarded + 1;
                      if Sink.active t.sink then
                        Sink.count t.sink "moq_agg_watch_admitted_total" 1
                    | _ -> admit_from t p o tau
                  end
                  else begin
                    t.s_pruned <- t.s_pruned + 1;
                    if Sink.active t.sink then
                      Sink.count t.sink "moq_agg_watch_pruned_total" 1
                  end
                end
            end;
            harvest t p)
          t.ps;
        Ok ()

    let apply_update_exn t u =
      match apply_update t u with
      | Ok () -> ()
      | Error e ->
        invalid_arg (Format.asprintf "Agg.Cont.apply_update: %a" DB.pp_error e)

    let advance_clock t (tau : Q.t) =
      Array.iter
        (fun p ->
          Mon.advance_clock p.p_mon tau;
          harvest t p)
        t.ps

    let finalize t : row list =
      Array.iter
        (fun p ->
          ignore (Mon.finalize p.p_mon);
          harvest t p)
        t.ps;
      Array.to_list t.ps
      |> List.concat_map (fun p -> List.rev p.p_rows)

    (* Rows finalized since the previous drain, (poi, window) ascending. *)
    let drain_rows t : row list =
      Array.to_list t.ps
      |> List.concat_map (fun p ->
             let all = List.rev p.p_rows in
             let fresh =
               List.filteri (fun i _ -> i >= p.p_drained) all
             in
             p.p_drained <- List.length all;
             fresh)

    let rows t = Array.to_list t.ps |> List.concat_map (fun p -> List.rev p.p_rows)

    let clock t =
      Array.fold_left
        (fun acc p -> Q.min acc (Mon.clock p.p_mon))
        t.hi t.ps

    let stats t : stats =
      {
        pois = Array.length t.ps;
        windows = t.nw;
        rows = t.s_rows;
        admitted = t.s_admitted;
        pruned = t.s_pruned;
        updates = t.s_updates;
        forwarded = t.s_forwarded;
      }
  end

  (* ---- rescan baseline ---- *)

  (* One full sweep of the whole database per POI per window: the cost the
     incremental path avoids, and the ground truth it must match. *)
  let rescan ?(sink = Sink.noop) ~(db : DB.t) ~(pois : Qvec.t list)
      ~(d : Q.t) ~(window : Q.t) ~(lo : Q.t) ~(hi : Q.t) () : row list =
    let nw = window_count ~lo ~hi ~window in
    let d2 = Q.mul d d in
    List.concat
      (List.mapi
         (fun i point ->
           let gdist = Gdist.distance_sq_to_point point in
           List.init nw (fun widx ->
               let w0, w1 = window_bounds ~lo ~hi ~window widx in
               let query =
                 Fof.within_q ~bound:d2
                   ~interval:(Fof.Interval.closed w0 w1)
               in
               let r = Sw.run_obs ~sink ~db ~gdist ~query in
               row_of_timeline ~poi:i ~widx ~w0 ~w1 r.Sw.timeline))
         pois)

  let equal_row (a : row) (b : row) =
    a.r_poi = b.r_poi && a.r_widx = b.r_widx && Q.equal a.r_lo b.r_lo
    && Q.equal a.r_hi b.r_hi && a.r_count = b.r_count
    && Float.equal a.r_density b.r_density && a.r_distinct = b.r_distinct

  let equal_rows a b = List.length a = List.length b && List.for_all2 equal_row a b
end
