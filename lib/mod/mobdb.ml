module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec

(* Per the paper's Definition 3, [terminate] does NOT remove the object from
   O: it clips the trajectory to [t ≤ τ].  Later updates on a terminated
   object are rejected because its trajectory is no longer defined at the
   update time. *)
type t = {
  dim : int;
  objects : Trajectory.t Oid.Map.t;
  last_update : Q.t;
}

type error =
  | Stale_update of { tau : Q.t; last : Q.t }
  | Duplicate_oid of Oid.t
  | Unknown_oid of Oid.t
  | Not_defined_at of Oid.t * Q.t
  | Dimension_mismatch

let pp_error fmt = function
  | Stale_update { tau; last } ->
    Format.fprintf fmt "update at %a not after last update %a" Q.pp tau Q.pp last
  | Duplicate_oid o -> Format.fprintf fmt "object %a already exists" Oid.pp o
  | Unknown_oid o -> Format.fprintf fmt "object %a does not exist" Oid.pp o
  | Not_defined_at (o, tau) ->
    Format.fprintf fmt "object %a has no trajectory at %a" Oid.pp o Q.pp tau
  | Dimension_mismatch -> Format.pp_print_string fmt "vector dimension mismatch"

let empty ~dim ~tau = { dim; objects = Oid.Map.empty; last_update = tau }

let dim db = db.dim
let last_update db = db.last_update
let cardinal db = Oid.Map.cardinal db.objects
let mem db o = Oid.Map.mem o db.objects
let find db o = Oid.Map.find_opt o db.objects

let objects db = Oid.Map.bindings db.objects
let iter f db = Oid.Map.iter f db.objects
let oids db = List.map fst (objects db)

let live db t =
  List.filter (fun (_, tr) -> Trajectory.defined_at tr t) (objects db)

let apply db u =
  let tau = Update.time u in
  if Q.compare tau db.last_update <= 0 then
    Error (Stale_update { tau; last = db.last_update })
  else begin
    match u with
    | Update.New { oid; tau; a; b } ->
      if Oid.Map.mem oid db.objects then Error (Duplicate_oid oid)
      else if Qvec.dim a <> db.dim || Qvec.dim b <> db.dim then Error Dimension_mismatch
      else
        Ok
          { db with
            objects = Oid.Map.add oid (Trajectory.linear ~start:tau ~a ~b) db.objects;
            last_update = tau }
    | Update.Terminate { oid; tau } ->
      (match Oid.Map.find_opt oid db.objects with
       | None -> Error (Unknown_oid oid)
       | Some tr ->
         if not (Trajectory.defined_at tr tau) then Error (Not_defined_at (oid, tau))
         else
           Ok
             { db with
               objects = Oid.Map.add oid (Trajectory.terminate tr tau) db.objects;
               last_update = tau })
    | Update.Chdir { oid; tau; a } ->
      (match Oid.Map.find_opt oid db.objects with
       | None -> Error (Unknown_oid oid)
       | Some tr ->
         if Qvec.dim a <> db.dim then Error Dimension_mismatch
         else if not (Trajectory.defined_at tr tau) then Error (Not_defined_at (oid, tau))
         else
           Ok
             { db with
               objects = Oid.Map.add oid (Trajectory.chdir tr tau a) db.objects;
               last_update = tau })
  end

let apply_exn db u =
  match apply db u with
  | Ok db -> db
  | Error e -> invalid_arg (Format.asprintf "Mobdb.apply: %a" pp_error e)

let apply_all_exn db us = List.fold_left apply_exn db us

let add_initial db o tr =
  if Oid.Map.mem o db.objects then invalid_arg "Mobdb.add_initial: duplicate oid"
  else if Trajectory.dim tr <> db.dim then invalid_arg "Mobdb.add_initial: dimension mismatch"
  else { db with objects = Oid.Map.add o tr db.objects }

let pp fmt db =
  Format.fprintf fmt "@[<v>MOD (dim %d, last update %a, %d objects)@," db.dim Q.pp
    db.last_update (cardinal db);
  Oid.Map.iter (fun o tr -> Format.fprintf fmt "%a: %a@," Oid.pp o Trajectory.pp tr) db.objects;
  Format.fprintf fmt "@]"
