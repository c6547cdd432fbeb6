(* One g-distance's curves, one per object, shared by every sweep over
   the same MOD.  A curve depends only on the g-distance and the object's
   trajectory, and an update (Definition 3) replaces only its own object's
   trajectory, so an entry stays valid while the MOD's trajectory for its
   OID is physically the one it was built from.  Trajectories are
   immutable: a valid entry is the curve [Gdist.curve] would build.

   The map is immutable and published by compare-and-set, so query
   threads read it beside the commit path without a lock.  A publish that
   loses a race is dropped; it only costs a later rebuild. *)

module Oid = Moq_mod.Oid
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module Qpiece = Moq_poly.Piecewise.Qpiece

type entry = { tr : T.t; curve : Qpiece.t }

type t = { gdist : Gdist.t; map : entry Oid.Map.t Atomic.t }

let create gdist = { gdist; map = Atomic.make Oid.Map.empty }
let gdist s = s.gdist
let size s = Oid.Map.cardinal (Atomic.get s.map)
let clear s = Atomic.set s.map Oid.Map.empty

let hit m o tr =
  match Oid.Map.find_opt o m with Some e when e.tr == tr -> Some e.curve | _ -> None

let curve s o tr =
  let m = Atomic.get s.map in
  match hit m o tr with
  | Some c -> c
  | None ->
    let curve = Gdist.curve s.gdist tr in
    ignore (Atomic.compare_and_set s.map m (Oid.Map.add o { tr; curve } m));
    curve

let build gdist db f = List.map (fun (o, tr) -> f o tr (Gdist.curve gdist tr)) (DB.objects db)

let curves s db f =
  let m = Atomic.get s.map in
  let fresh = ref [] in
  let out =
    List.map
      (fun (o, tr) ->
        match hit m o tr with
        | Some c -> f o tr c
        | None ->
          let curve = Gdist.curve s.gdist tr in
          fresh := (o, { tr; curve }) :: !fresh;
          f o tr curve)
      (DB.objects db)
  in
  (* publish exactly [db]'s objects: the map never outgrows the MOD it
     last served *)
  let n = DB.cardinal db in
  if !fresh <> [] || Oid.Map.cardinal m <> n then begin
    let grown = List.fold_left (fun acc (o, e) -> Oid.Map.add o e acc) m !fresh in
    let m' =
      if Oid.Map.cardinal grown = n then grown
      else Oid.Map.filter (fun o _ -> DB.mem db o) grown
    in
    ignore (Atomic.compare_and_set s.map m m')
  end;
  out
