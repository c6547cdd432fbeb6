(** The reference FO(f) evaluator: compute [Q[D]_τ] at one instant directly
    from the curves, by structural recursion with object quantifiers ranging
    over the objects alive at the instant.

    This is deliberately the slow-but-obviously-correct path (O(N^q) per
    instant).  The sweep and the monitor call it once per support change
    (Lemma 8), and only for formulas {!Reader} does not read off the order
    (anything but [nearest_q], [knn_q] and [within_q]); the tests check the
    readers against it. *)

module Oid = Moq_mod.Oid
module Q = Moq_numeric.Rat

module Make (B : Backend.S) = struct
  module C = Curves.Make (B)
  module P = B.P

  type ctx = {
    oids : Oid.t list;
    alive : B.instant -> Oid.t -> bool;
    curve : Oid.t -> int -> B.PW.t option;  (** curve of [f(o, θ_idx(t))] *)
    tt_index : Fof.time_term -> int;
  }

  let sign_matches (cmp : Fof.cmp) s =
    match cmp with
    | Fof.Lt -> s < 0
    | Fof.Le -> s <= 0
    | Fof.Eq -> s = 0
    | Fof.Ne -> s <> 0
    | Fof.Ge -> s >= 0
    | Fof.Gt -> s > 0

  (* Sign of (term1 - term2) at instant [i]; [None] when some referenced
     curve is undefined there (the atom is then false). *)
  let diff_sign ctx env i t1 t2 =
    let curve_of y tt =
      match List.assoc_opt y env with
      | None -> invalid_arg ("Snapshot: unbound object variable " ^ y)
      | Some o ->
        (match ctx.curve o (ctx.tt_index tt) with
         | Some c when C.covers c i -> Some c
         | _ -> None)
    in
    match t1, t2 with
    | Fof.Const a, Fof.Const b -> Some (Q.compare a b)
    | Fof.Dist (y, tt), Fof.Const c ->
      Option.map
        (fun cv ->
          let p, _ = C.piece_at cv i in
          B.sign_at_instant (P.sub p (P.constant c)) i)
        (curve_of y tt)
    | Fof.Const c, Fof.Dist (y, tt) ->
      Option.map
        (fun cv ->
          let p, _ = C.piece_at cv i in
          B.sign_at_instant (P.sub (P.constant c) p) i)
        (curve_of y tt)
    | Fof.Dist (y1, tt1), Fof.Dist (y2, tt2) ->
      (match curve_of y1 tt1, curve_of y2 tt2 with
       | Some c1, Some c2 -> Some (C.diff_sign_at c1 c2 i)
       | _ -> None)

  let rec eval ctx env i = function
    | Fof.True -> true
    | Fof.False -> false
    | Fof.Cmp (cmp, t1, t2) ->
      (match diff_sign ctx env i t1 t2 with
       | Some s -> sign_matches cmp s
       | None -> false)
    | Fof.Same (y, z) ->
      (match List.assoc_opt y env, List.assoc_opt z env with
       | Some a, Some b -> Oid.equal a b
       | _ -> invalid_arg "Snapshot: unbound object variable")
    | Fof.Not g -> not (eval ctx env i g)
    | Fof.And (g, h) -> eval ctx env i g && eval ctx env i h
    | Fof.Or (g, h) -> eval ctx env i g || eval ctx env i h
    | Fof.Forall (y, g) ->
      List.for_all
        (fun o -> (not (ctx.alive i o)) || eval ctx ((y, o) :: env) i g)
        ctx.oids
    | Fof.Exists (y, g) ->
      List.exists (fun o -> ctx.alive i o && eval ctx ((y, o) :: env) i g) ctx.oids

  (* Q[D]_i *)
  let answer_at ctx (q : Fof.query) (i : B.instant) : Oid.Set.t =
    List.fold_left
      (fun acc o ->
        if ctx.alive i o && eval ctx [ (q.Fof.y, o) ] i q.Fof.phi then Oid.Set.add o acc
        else acc)
      Oid.Set.empty ctx.oids
end
