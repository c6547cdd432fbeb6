(** The sweep-status structure: a mutable ordered sequence with handles.

    The paper's "object list L" (Section 5, proof of Lemma 9): objects sorted
    by the precedence relation [≤_τ], stored in a balanced BST so that
    insertion and deletion are O(log N), with neighbour access for
    intersection scheduling and O(1) payload swap when two adjacent curves
    exchange order at an event.  Subtree sizes give O(log N) rank/select,
    which the k-NN operator uses.

    Handles stay valid until their node is deleted.  [swap_adjacent]
    exchanges the {e payloads} of two neighbouring nodes; callers that map
    elements to handles must re-point them (the sweep engine keeps a
    back-pointer in its entries). *)

type 'a t
type 'a handle

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val insert_sorted : cmp:('a -> 'a -> int) -> 'a t -> 'a -> 'a handle
(** Insert assuming the sequence is currently sorted w.r.t. [cmp]; the new
    element lands after any existing [cmp]-equal elements.  O(log N). *)

val delete : 'a t -> 'a handle -> unit
(** Remove the node.  Other handles remain valid (node splicing, no payload
    moves).  O(log N).  @raise Invalid_argument if already deleted. *)

val elt : 'a handle -> 'a

val swap_adjacent : 'a t -> 'a handle -> 'a handle -> unit
(** Exchange the payloads of two nodes that are immediate neighbours (first
    argument directly before the second).  O(1).
    @raise Invalid_argument if they are not adjacent. *)

val next : 'a t -> 'a handle -> 'a handle option
val prev : 'a t -> 'a handle -> 'a handle option
val first : 'a t -> 'a handle option
val last : 'a t -> 'a handle option

val rank : 'a t -> 'a handle -> int
(** 0-based position.  O(log N). *)

val nth : 'a t -> int -> 'a handle option
(** Select by 0-based rank.  O(log N). *)

val to_list : 'a t -> 'a list

val check_invariants : 'a t -> unit
(** Assert AVL balance, size bookkeeping, and parent pointers (tests). *)
