(* AVL tree with parent pointers, subtree sizes, and stable node identity:
   deletion splices nodes instead of moving payloads, so outstanding handles
   never silently change element. *)

type 'a node = {
  mutable elt : 'a;
  mutable parent : 'a node option;
  mutable left : 'a node option;
  mutable right : 'a node option;
  mutable height : int;
  mutable size : int;
  mutable in_tree : bool;
}

type 'a handle = 'a node
type 'a t = { mutable root : 'a node option }

let create () = { root = None }

let h = function None -> 0 | Some n -> n.height
let sz = function None -> 0 | Some n -> n.size

let update n =
  n.height <- 1 + max (h n.left) (h n.right);
  n.size <- 1 + sz n.left + sz n.right

let length t = sz t.root
let is_empty t = t.root = None

let elt n =
  if not n.in_tree then invalid_arg "Order_list: handle deleted";
  n.elt

(* Replace [parent]'s child [old_child] with [child]; [parent = None] means
   the root. *)
let set_child t parent old_child child =
  (match parent with
   | None -> t.root <- child
   | Some p ->
     (match p.left with
      | Some c when c == old_child -> p.left <- child
      | _ -> p.right <- child));
  match child with
  | Some c -> c.parent <- parent
  | None -> ()

(* Rotations return the node now occupying the rotated position. *)
let rotate_left t x =
  let y = match x.right with Some y -> y | None -> assert false in
  x.right <- y.left;
  (match y.left with Some l -> l.parent <- Some x | None -> ());
  set_child t x.parent x (Some y);
  y.left <- Some x;
  x.parent <- Some y;
  update x;
  update y;
  y

let rotate_right t x =
  let y = match x.left with Some y -> y | None -> assert false in
  x.left <- y.right;
  (match y.right with Some r -> r.parent <- Some x | None -> ());
  set_child t x.parent x (Some y);
  y.right <- Some x;
  x.parent <- Some y;
  update x;
  update y;
  y

let rec fix_up t = function
  | None -> ()
  | Some n ->
    update n;
    let bf = h n.left - h n.right in
    let n' =
      if bf > 1 then begin
        let l = match n.left with Some l -> l | None -> assert false in
        if h l.left >= h l.right then rotate_right t n
        else begin
          ignore (rotate_left t l);
          rotate_right t n
        end
      end
      else if bf < -1 then begin
        let r = match n.right with Some r -> r | None -> assert false in
        if h r.right >= h r.left then rotate_left t n
        else begin
          ignore (rotate_right t r);
          rotate_left t n
        end
      end
      else n
    in
    fix_up t n'.parent

let insert_sorted ~cmp t v =
  let node =
    { elt = v; parent = None; left = None; right = None; height = 1; size = 1; in_tree = true }
  in
  (match t.root with
   | None -> t.root <- Some node
   | Some _ ->
     let rec descend n =
       if cmp v n.elt < 0 then begin
         match n.left with
         | Some l -> descend l
         | None ->
           n.left <- Some node;
           node.parent <- Some n
       end
       else begin
         match n.right with
         | Some r -> descend r
         | None ->
           n.right <- Some node;
           node.parent <- Some n
       end
     in
     (match t.root with Some r -> descend r | None -> assert false);
     fix_up t node.parent);
  node

let rec leftmost n = match n.left with Some l -> leftmost l | None -> n
let rec rightmost n = match n.right with Some r -> rightmost r | None -> n

let first t = Option.map leftmost t.root
let last t = Option.map rightmost t.root

let next _t n =
  if not n.in_tree then invalid_arg "Order_list: handle deleted";
  match n.right with
  | Some r -> Some (leftmost r)
  | None ->
    let rec up c = function
      | Some p -> (match p.left with Some l when l == c -> Some p | _ -> up p p.parent)
      | None -> None
    in
    up n n.parent

let prev _t n =
  if not n.in_tree then invalid_arg "Order_list: handle deleted";
  match n.left with
  | Some l -> Some (rightmost l)
  | None ->
    let rec up c = function
      | Some p -> (match p.right with Some r when r == c -> Some p | _ -> up p p.parent)
      | None -> None
    in
    up n n.parent

let delete t n =
  if not n.in_tree then invalid_arg "Order_list: delete: handle already deleted";
  n.in_tree <- false;
  let fix_from =
    match n.left, n.right with
    | None, c | c, None ->
      set_child t n.parent n c;
      n.parent
    | Some _, Some r ->
      let s = leftmost r in
      let fix_from =
        if s == r then Some s
        else begin
          (* detach s (no left child) from its parent, adopt n's right *)
          let sp = s.parent in
          set_child t sp s s.right;
          s.right <- n.right;
          (match n.right with Some nr -> nr.parent <- Some s | None -> ());
          sp
        end
      in
      s.left <- n.left;
      (match n.left with Some nl -> nl.parent <- Some s | None -> ());
      set_child t n.parent n (Some s);
      fix_from
  in
  n.parent <- None;
  n.left <- None;
  n.right <- None;
  fix_up t fix_from

let swap_adjacent t a b =
  if not a.in_tree || not b.in_tree then invalid_arg "Order_list: swap: deleted handle";
  (match next t a with
   | Some n when n == b -> ()
   | _ -> invalid_arg "Order_list.swap_adjacent: not adjacent");
  let va = a.elt in
  a.elt <- b.elt;
  b.elt <- va

let rank _t n =
  if not n.in_tree then invalid_arg "Order_list: handle deleted";
  let rec up c acc = function
    | None -> acc
    | Some p ->
      let acc = match p.right with Some r when r == c -> acc + 1 + sz p.left | _ -> acc in
      up p acc p.parent
  in
  up n (sz n.left) n.parent

let nth t i =
  if i < 0 || i >= length t then None
  else begin
    let rec descend n i =
      let ls = sz n.left in
      if i < ls then descend (Option.get n.left) i
      else if i = ls then n
      else descend (Option.get n.right) (i - ls - 1)
    in
    Some (descend (Option.get t.root) i)
  end

let to_list t =
  let rec go acc = function
    | None -> acc
    | Some n -> go (n.elt :: go acc n.right) n.left
  in
  go [] t.root

let check_invariants t =
  let rec check parent = function
    | None -> (0, 0)
    | Some n ->
      assert n.in_tree;
      (match parent with
       | None -> assert (n.parent = None)
       | Some p -> (match n.parent with Some q -> assert (q == p) | None -> assert false));
      let hl, sl = check (Some n) n.left in
      let hr, sr = check (Some n) n.right in
      assert (n.height = 1 + max hl hr);
      assert (n.size = 1 + sl + sr);
      assert (abs (hl - hr) <= 1);
      (n.height, n.size)
  in
  ignore (check None t.root)
