(** Shared construction of a sweep instance from (MOD, g-distance, query):
    one curve per (object, time term) plus one constant curve per real
    constant in the query (paper, end of Section 5). *)

module Oid = Moq_mod.Oid
module Q = Moq_numeric.Rat
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module Qpiece = Moq_poly.Piecewise.Qpiece

module Make (B : Backend.S) = struct
  module E = Engine.Make (B)
  module S = Snapshot.Make (B)

  type t = {
    mutable gdist : Gdist.t;
    mutable store : Curve_store.t option;
        (** where the base curves of [gdist] are read; [None]: built afresh *)
    tts : Fof.time_term array;
    consts : Q.t list;
    query : Fof.query;
    istart : Q.t;  (** interval start (anchors constant curves) *)
    mutable lifetimes : (Q.t * Q.t option) Oid.Map.t;
    mutable curves : B.PW.t option array Oid.Map.t; (* per object, per tt index *)
  }

  let tt_index p (tt : Fof.time_term) =
    let n = Array.length p.tts in
    let rec find i =
      if i >= n then invalid_arg "Problem: unknown time term"
      else begin
        let t = p.tts.(i) in
        if Q.equal t.Fof.scale tt.Fof.scale && Q.equal t.Fof.offset tt.Fof.offset then i
        else find (i + 1)
      end
    in
    find 0

  (* The curve of f(o, θ(t)) from the base curve f(o, t), exact; [None]
     when the composed domain is empty (e.g. a constant time term outside
     the object's lifetime).  θ(t) = t leaves the base curve as it is. *)
  let qcurve (base : Qpiece.t) (tt : Fof.time_term) ~(istart : Q.t) : Qpiece.t option =
    if Q.equal tt.Fof.scale Q.one && Q.sign tt.Fof.offset = 0 then Some base
    else if Q.sign tt.Fof.scale > 0 then
      Some (Qpiece.compose_affine base ~scale:tt.Fof.scale ~offset:tt.Fof.offset)
    else if Qpiece.defined_at base tt.Fof.offset then
      Some (Qpiece.constant ~start:istart (Qpiece.eval base tt.Fof.offset))
    else None

  let curves_of p base =
    Array.map (fun tt -> qcurve base tt ~istart:p.istart) p.tts

  let base_curve p o tr =
    match p.store with Some s -> Curve_store.curve s o tr | None -> Gdist.curve p.gdist tr

  let make ~store ~(db : DB.t) ~(gdist : Gdist.t) ~(query : Fof.query) ~(istart : Q.t) : t =
    if not (Fof.free_ok query) then invalid_arg "Problem: ill-formed query";
    let tts =
      match Fof.time_terms query with
      | [] -> [| Fof.t_var |] (* queries with no Dist terms still sweep time *)
      | l -> Array.of_list l
    in
    let p =
      { gdist;
        store;
        tts;
        consts = Fof.constants query;
        query;
        istart;
        lifetimes = Oid.Map.empty;
        curves = Oid.Map.empty;
      }
    in
    let objs =
      (match store with Some s -> Curve_store.curves s | None -> Curve_store.build gdist)
        db (fun o tr base -> (o, tr, curves_of p base))
    in
    List.iter
      (fun (o, tr, arr) ->
        p.lifetimes <- Oid.Map.add o (T.birth tr, T.death tr) p.lifetimes;
        p.curves <- Oid.Map.add o arr p.curves)
      objs;
    p

  let create ~db ~gdist ~query ~istart = make ~store:None ~db ~gdist ~query ~istart

  (* the base curves read through [store], and later updates' through it too *)
  let create_stored ~store ~db ~query ~istart =
    make ~store:(Some store) ~db ~gdist:(Curve_store.gdist store) ~query ~istart

  let entry_list p : (E.label * B.PW.t) list =
    let obj_entries =
      Oid.Map.fold
        (fun o arr acc ->
          let acc = ref acc in
          Array.iteri
            (fun k c -> match c with Some c -> acc := (E.Obj (o, k), c) :: !acc | None -> ())
            arr;
          !acc)
        p.curves []
    in
    let const_entries =
      List.map
        (fun c ->
          (E.Cst c, B.PW.constant ~start:p.istart c))
        p.consts
    in
    obj_entries @ const_entries

  let snapshot_ctx p : S.ctx =
    { S.oids = List.map fst (Oid.Map.bindings p.lifetimes);
      alive =
        (fun i o ->
          match Oid.Map.find_opt o p.lifetimes with
          | None -> false
          | Some (b, d) ->
            B.compare_instant_scalar i b >= 0
            && (match d with
                | None -> true
                | Some d -> B.compare_instant_scalar i d <= 0));
      curve =
        (fun o k ->
          match Oid.Map.find_opt o p.curves with
          | Some arr when k < Array.length arr -> arr.(k)
          | _ -> None);
      tt_index = tt_index p;
    }

  (* Mutations used by the monitor. *)

  let add_object p o tr =
    p.lifetimes <- Oid.Map.add o (T.birth tr, T.death tr) p.lifetimes;
    let arr = curves_of p (base_curve p o tr) in
    p.curves <- Oid.Map.add o arr p.curves;
    arr

  let update_object = add_object

  (* a new g-distance: the store, which holds the old one's curves, is
     left behind *)
  let set_gdist p gdist db =
    p.gdist <- gdist;
    p.store <- None;
    List.iter
      (fun (o, arr) -> p.curves <- Oid.Map.add o arr p.curves)
      (Curve_store.build gdist db (fun o _ base -> (o, curves_of p base)))
end
