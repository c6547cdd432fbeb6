(* Sharded, index-pruned k-NN sweep.  See shard.mli for the algorithm and
   the soundness argument; the invariant that matters throughout this file
   is that every decision that can change an answer — the band bound B, the
   shard separation test, the frontier tie extension — is made in exact
   arithmetic. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module Oid = Moq_mod.Oid
module Grid = Moq_index.Grid
module Sink = Moq_obs.Sink

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module R = Reader.Make (B)
  module TL = R.TL

  type shard_stats = {
    shards_total : int;
    shards_touched : int;
    admitted : int;
    pruned : int;
    frontier_merge_ops : int;
    shard_events : int;
    band : float option;
  }

  type result = {
    timeline : TL.t;
    stats : E.stats;
    shard : shard_stats;
    hot : E.hot list;
  }

  let default_cell = 64.0

  (* ---------------------------------------------------------------- *)
  (* Exact band bound                                                  *)
  (* ---------------------------------------------------------------- *)

  let covers tr ~lo ~hi =
    Q.compare (T.birth tr) lo <= 0
    && (match T.death tr with None -> true | Some d -> Q.compare d hi >= 0)

  (* Max over [lo, hi] of |tr(t) - gamma(t)|², exact.  Both trajectories
     are piecewise linear, so the squared distance is piecewise quadratic
     with non-negative leading coefficient (|Δa|² t² + ...): convex on
     each piece, hence maximal at a piece breakpoint.  Requires both
     trajectories defined throughout the window. *)
  let dmax_sq tr gamma ~lo ~hi =
    let breaks tr =
      List.filter
        (fun t -> Q.compare lo t < 0 && Q.compare t hi < 0)
        (List.map (fun (p : T.piece) -> p.T.start) (T.pieces tr))
    in
    let pts = (lo :: hi :: breaks tr) @ breaks gamma in
    List.fold_left
      (fun acc t ->
        let d = Qvec.dist2 (T.position_exn tr t) (T.position_exn gamma t) in
        match acc with None -> Some d | Some m -> Some (Q.max m d))
      None pts

  (* The band bound B: the k-th smallest exact window-max distance among
     pilot objects found by ring search around gamma.  Any k pilots alive
     throughout the window make the bound sound — at every instant at
     least k objects sit within B — and near pilots make it tight.
     [None] when gamma does not cover the window or pilots run out. *)
  let band_bound grid db gamma ~k ~lo ~hi =
    if not (covers gamma ~lo ~hi) then None
    else begin
      let pos = T.position_exn gamma lo in
      let x = Q.to_float (Qvec.get pos 0) in
      let y = if Qvec.dim pos >= 2 then Q.to_float (Qvec.get pos 1) else 0.0 in
      let center = Grid.cell_of ~cell:(Grid.cell_size grid) (x, y) in
      let last = Grid.max_ring grid ~center in
      (* an object's pieces can span cells in several rings — pilots must
         be distinct or k copies of one nearby object fake a tight band *)
      let seen = Hashtbl.create 16 in
      let rec collect ring extra acc count =
        (* short of k pilots, an empty ring changes nothing: go straight
           to the next non-empty one *)
        let ring =
          if count >= k then ring
          else Option.value ~default:(last + 1) (Grid.next_ring grid ~center ~ring)
        in
        if ring > last || extra < 0 then acc
        else begin
          let fresh =
            List.filter
              (fun o ->
                (not (Hashtbl.mem seen o))
                &&
                (Hashtbl.add seen o ();
                 match DB.find db o with
                 | Some tr -> covers tr ~lo ~hi
                 | None -> false))
              (Grid.ring_candidates grid ~center ~ring)
          in
          let count = count + List.length fresh in
          (* one extra ring after reaching k pilots, for tightness *)
          let extra = if count >= k then extra - 1 else extra in
          collect (ring + 1) extra (List.rev_append fresh acc) count
        end
      in
      let pilots = collect 0 1 [] 0 in
      let dmaxes =
        List.filter_map
          (fun o ->
            match DB.find db o with
            | Some tr -> dmax_sq tr gamma ~lo ~hi
            | None -> None)
          pilots
      in
      let sorted = List.sort Q.compare dmaxes in
      if List.length sorted >= k then Some (List.nth sorted (k - 1)) else None
    end

  (* ---------------------------------------------------------------- *)
  (* Frontier extraction                                               *)
  (* ---------------------------------------------------------------- *)

  (* A shard sweep admits its local k-NN answer entries on every span and
     at every event instant, ties with the k-th included — the smallest set
     guaranteed to contain every shard member that can ever appear in the
     global answer. *)
  let sweep_shard ~sink ~admit ~k ~lo ~hi entries =
    let eng = R.engine ~sink ~lo ~hi entries in
    R.iter_steps eng ~lo ~hi (fun step ->
        List.iter (fun e -> admit (E.label e)) (R.entries eng (Reader.Knn k) step));
    eng

  (* ---------------------------------------------------------------- *)
  (* The driver                                                        *)
  (* ---------------------------------------------------------------- *)

  let events_of (s : E.stats) =
    s.E.crossings + s.E.births + s.E.deaths + s.E.jumps

  let run_obs ~(sink : Sink.t) ~(db : DB.t) ~(gamma : T.t) ~(k : int)
      ~(lo : Q.t) ~(hi : Q.t) ?(cell = default_cell) () : result =
    if k <= 0 then invalid_arg "Shard.run: k must be positive";
    Sink.count sink "moq_query_sharded_knn_total" 1;
    let gdist = Gdist.euclidean_sq ~gamma in
    let grid =
      Sink.time sink "moq_shard_index_build_seconds" @@ fun () ->
      Grid.build ~cell ~lo ~hi db
    in
    let band = band_bound grid db gamma ~k ~lo ~hi in
    (* the separation test reads float enclosures first; a shard they
       cannot place has its exact box built and is tested exactly, so
       every skip is the exact one *)
    let prune =
      match band, Grid.trajectory_box gamma ~lo ~hi with
      | Some band, Some gbox ->
        let genc = Grid.enclose gbox and band_enc = Moq_numeric.Fintval.of_rat band in
        fun (s : Grid.shard) ->
          Grid.separation_exceeds s.Grid.box s.Grid.enc gbox genc ~band ~band_enc
      | _ -> fun _ -> false
    in
    let shards = Grid.shards grid in
    let admitted = Hashtbl.create 64 in
    let merge_ops = ref 0 in
    let admit = function
      | E.Obj (o, _) ->
        incr merge_ops;
        if not (Hashtbl.mem admitted o) then Hashtbl.add admitted o ()
      | E.Cst _ -> ()
    in
    let entries_of oids =
      List.filter_map
        (fun o ->
          Option.map (fun tr -> R.entry o tr (Gdist.curve gdist tr)) (DB.find db o))
        oids
    in
    let stats = E.zero_stats () in
    let hots = ref [] in
    let touched = ref 0 in
    let shard_events = ref 0 in
    (Sink.time sink "moq_shard_sweep_seconds" @@ fun () ->
     Array.iter
       (fun ({ Grid.members; present; _ } as s) ->
         (* no window presence: never in any answer *)
         let skip = (not present) || prune s in
         if not skip then begin
           incr touched;
           let eng =
             sweep_shard ~sink ~admit ~k ~lo ~hi (entries_of (Lazy.force members))
           in
           let s = E.stats eng in
           shard_events := !shard_events + events_of s;
           E.accumulate stats s;
           hots := E.hot_objects eng :: !hots
         end)
       shards);
    (* Merge sweep over the admitted union: the same emit protocol as the
       plain k-NN run, so the simplified timeline is bit-identical to it. *)
    let admitted_oids =
      List.sort Oid.compare (Hashtbl.fold (fun o () acc -> o :: acc) admitted [])
    in
    let merged =
      R.run ~sink ~lo ~hi (entries_of admitted_oids) (fun eng -> R.answer eng (Reader.Knn k))
    in
    E.accumulate stats merged.R.stats;
    let n_admitted = List.length admitted_oids in
    let shard =
      { shards_total = Array.length shards;
        shards_touched = !touched;
        admitted = n_admitted;
        pruned = Grid.population grid - n_admitted;
        frontier_merge_ops = !merge_ops;
        shard_events = !shard_events;
        band = Option.map Q.to_float band }
    in
    Sink.set sink "moq_shard_shards" (float_of_int shard.shards_total);
    Sink.count sink "moq_shard_touched_total" shard.shards_touched;
    Sink.count sink "moq_shard_admissions_total" shard.admitted;
    Sink.count sink "moq_shard_prunes_total" shard.pruned;
    Sink.count sink "moq_shard_frontier_merge_ops_total" shard.frontier_merge_ops;
    Sink.count sink "moq_shard_events_total" shard.shard_events;
    { timeline = merged.R.timeline; stats; shard; hot = E.merge_hot (merged.R.hot :: !hots) }

  let shards_block s =
    { Explain.s_total = s.shards_total; s_touched = s.shards_touched;
      s_admitted = s.admitted; s_pruned = s.pruned;
      s_merge_ops = s.frontier_merge_ops; s_events = s.shard_events;
      s_band = s.band }

  let run ~db ~gamma ~k ~lo ~hi ?cell () =
    run_obs ~sink:Sink.noop ~db ~gamma ~k ~lo ~hi ?cell ()
end
