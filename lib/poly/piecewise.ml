module Make (P : Poly_intf.S) = struct
  module P = P
  module F = P.F

  type view = {
    count : int;
    starts : F.t array;
    polys : P.t array;
    bounds : float array;
    coefs : float array;
    coef_at : int array;
    jumps : F.t list;
  }

  (* Invariants: [pieces] nonempty, strictly increasing start times; when
     [stop = Some s], the last start precedes [s].  [view] is the curve's
     {!view}, built on first use and never changed after: a value is
     immutable, so two threads that race to build it store equal views,
     and whichever write lands, later reads agree. *)
  type t = { pieces : (F.t * P.t) list; stop : F.t option; mutable view : view option }

  let mk pieces stop = { pieces; stop; view = None }

  let lt a b = F.compare a b < 0
  let le a b = F.compare a b <= 0

  let make ?stop pieces =
    if pieces = [] then invalid_arg "Piecewise.make: empty"
    else begin
      let rec sorted = function
        | (a, _) :: ((b, _) :: _ as rest) -> lt a b && sorted rest
        | _ -> true
      in
      if not (sorted pieces) then invalid_arg "Piecewise.make: unsorted pieces"
      else begin
        (match stop with
         | Some s ->
           let last_start = fst (List.nth pieces (List.length pieces - 1)) in
           if not (lt last_start s) then invalid_arg "Piecewise.make: stop before last piece"
         | None -> ());
        mk pieces stop
      end
    end

  let constant ~start v = mk [ (start, P.constant v) ] None
  let of_poly ~start p = mk [ (start, p) ] None

  let pieces c = c.pieces

  let start c =
    match c.pieces with
    | (s, _) :: _ -> s
    | [] -> assert false

  let stop c = c.stop

  let defined_at c t =
    le (start c) t && (match c.stop with None -> true | Some s -> le t s)

  (* The piece in force at time [t]: the last piece whose start is <= t.
     At the right domain endpoint the final piece applies (closed stop, per
     the paper's closed time intervals). *)
  let piece_covering c t =
    if not (defined_at c t) then invalid_arg "Piecewise: out of domain"
    else begin
      let rec find = function
        | (_, p) :: ((b, _) :: _ as rest) -> if lt t b then (p, Some b) else find rest
        | [ (_, p) ] -> (p, c.stop)
        | [] -> assert false
      in
      find c.pieces
    end

  let eval c t = P.eval (fst (piece_covering c t)) t

  let breakpoints c =
    match c.pieces with
    | _ :: rest -> List.map fst rest
    | [] -> assert false

  let map f c = mk (List.map (fun (a, p) -> (a, f p)) c.pieces) c.stop

  let min_stop a b =
    match a, b with
    | None, s | s, None -> s
    | Some x, Some y -> Some (if le x y then x else y)

  let combine f c1 c2 =
    let s = if le (start c1) (start c2) then start c2 else start c1 in
    let stop = min_stop c1.stop c2.stop in
    (match stop with
     | Some e when not (lt s e) -> invalid_arg "Piecewise.combine: disjoint domains"
     | _ -> ());
    (* merged breakpoints within (s, stop) *)
    let bps =
      List.sort_uniq F.compare
        (List.filter
           (fun b -> lt s b && (match stop with None -> true | Some e -> lt b e))
           (breakpoints c1 @ breakpoints c2))
    in
    let starts = s :: bps in
    let pieces =
      List.map
        (fun a -> (a, f (fst (piece_covering c1 a)) (fst (piece_covering c2 a))))
        starts
    in
    mk pieces stop

  let sub = combine P.sub

  let compose_affine c ~scale ~offset =
    let sc = F.compare scale F.zero in
    if sc < 0 then invalid_arg "Piecewise.compose_affine: negative scale"
    else if sc = 0 then begin
      if not (defined_at c offset) then
        invalid_arg "Piecewise.compose_affine: constant offset out of domain"
      else constant ~start:offset (eval c offset)
    end
    else begin
      (* theta(t) = scale*t + offset; theta is increasing, so pieces map to
         pieces with starts theta^{-1}(a) = (a - offset) / scale. *)
      let inv a = F.div (F.sub a offset) scale in
      let theta = P.of_list [ offset; scale ] in
      mk (List.map (fun (a, p) -> (inv a, P.compose p theta)) c.pieces) (Option.map inv c.stop)
    end

  let clip c ~from_ ~until =
    let s = match from_ with None -> start c | Some f -> if le (start c) f then f else start c in
    let stop = min_stop c.stop until in
    (match stop with
     | Some e when not (lt s e) -> invalid_arg "Piecewise.clip: empty domain"
     | _ -> ());
    if not (defined_at c s) then invalid_arg "Piecewise.clip: from_ before domain"
    else begin
      (* keep pieces whose interval intersects [s, stop); re-anchor the one
         covering s *)
      let rec go = function
        | (a, p) :: ((b, _) :: _ as rest) ->
          if le b s then go rest
          else ((if le a s then s else a), p) :: keep rest
        | [ (a, p) ] -> [ ((if le a s then s else a), p) ]
        | [] -> assert false
      and keep = function
        | (a, p) :: rest ->
          (match stop with
           | Some e when not (lt a e) -> []
           | _ -> (a, p) :: keep rest)
        | [] -> []
      in
      mk (go c.pieces) stop
    end

  let extend_last_from c tau q ?stop () =
    if not (lt (start c) tau) then invalid_arg "Piecewise.extend_last_from: tau before start"
    else begin
      let rec take = function
        | (a, p) :: rest -> if lt a tau then (a, p) :: take rest else []
        | [] -> []
      in
      mk (take c.pieces @ [ (tau, q) ]) stop
    end

  (* The view: every start, polynomial and enclosure in arrays, and the
     breakpoints where the two pieces' exact values differ. *)
  let build_view c =
    let count = List.length c.pieces in
    let starts =
      Array.of_list
        (List.map fst c.pieces @ match c.stop with Some s -> [ s ] | None -> [])
    in
    let polys = Array.of_list (List.map snd c.pieces) in
    let bounds = Array.make (2 * Array.length starts) 0.0 in
    Array.iteri (fun j s -> F.enclose_into bounds (2 * j) s) starts;
    let coef_at = Array.make (count + 1) 0 in
    Array.iteri (fun k p -> coef_at.(k + 1) <- coef_at.(k) + (2 * (P.degree p + 1))) polys;
    let coefs = Array.make coef_at.(count) 0.0 in
    Array.iteri
      (fun k p -> List.iteri (fun j x -> F.enclose_into coefs (coef_at.(k) + (2 * j)) x) (P.to_list p))
      polys;
    let jumps = ref [] in
    for k = count - 1 downto 1 do
      let b = starts.(k) in
      if not (F.equal (P.eval polys.(k - 1) b) (P.eval polys.(k) b)) then jumps := b :: !jumps
    done;
    { count; starts; polys; bounds; coefs; coef_at; jumps = !jumps }

  let view c =
    match c.view with
    | Some v -> v
    | None ->
      let v = build_view c in
      c.view <- Some v;
      v

  let is_continuous c = (view c).jumps = []

  let equal c1 c2 =
    let stop_eq =
      match c1.stop, c2.stop with
      | None, None -> true
      | Some x, Some y -> F.compare x y = 0
      | _ -> false
    in
    stop_eq
    && List.length c1.pieces = List.length c2.pieces
    && List.for_all2
         (fun (a, p) (b, q) -> F.compare a b = 0 && P.equal p q)
         c1.pieces c2.pieces

  let pp fmt c =
    Format.fprintf fmt "@[<v>";
    List.iteri
      (fun i (a, p) ->
        if i > 0 then Format.fprintf fmt "@,";
        Format.fprintf fmt "[%a..) %a" F.pp a P.pp p)
      c.pieces;
    (match c.stop with
     | Some s -> Format.fprintf fmt "@,stop %a" F.pp s
     | None -> ());
    Format.fprintf fmt "@]"
end

module Qpiece = Make (Qpoly)
