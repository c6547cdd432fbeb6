(** Outward-rounded float intervals.

    The numeric half of the filtered exact backend: every interval encloses
    the exact real it shadows, so a sign or an ordering that is decided by
    the interval alone is proved, and only straddling-zero cases pay for
    exact arithmetic.  Operations compute in round-to-nearest and widen one
    ulp outward ([Float.pred]/[Float.succ]); no FPU mode switching. *)

type t = private { lo : float; hi : float }

val top : t
(** The whole real line — the "don't know" interval. *)

val lo : t -> float
val hi : t -> float

val point : float -> t
(** Exact float, zero width.  Only sound for values known exact. *)

val of_float : float -> t
(** Encloses any real within 1/2 ulp of the argument (i.e. the preimage of
    one correct rounding). *)

val of_int : int -> t
val of_rat : Rat.t -> t

val of_rat_into : float array -> int -> Rat.t -> unit
(** [of_rat_into a i q] stores [of_rat q]'s bounds in [a.(i)] and
    [a.(i + 1)].  It allocates nothing when [q]'s numerator and
    denominator have at most 53 bits. *)

val get : float array -> int -> t
(** [get a i] is the enclosure stored as the flat pair [a.(i)],
    [a.(i + 1)] (by {!of_rat_into}, for instance). *)

val of_rat_bounds : Rat.t -> Rat.t -> t
(** [of_rat_bounds lo hi] encloses the exact interval [[lo, hi]]. *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val sub_pairs : float array -> int -> float array -> int -> t
(** [sub_pairs a i b j] is [sub (get a i) (get b j)]. *)

val affine_into : float array -> int -> a:int -> t:int -> b:int -> unit
(** [affine_into v dst ~a ~t ~b] stores in [v.(dst)], [v.(dst + 1)] the
    bounds of [add (mul A T) B], where A, T and B are the intervals whose
    bounds sit at [v.(a)], [v.(t)] and [v.(b)] and the slot after each.
    Allocates nothing. *)

val div : t -> t -> t
(** [top] when the divisor straddles zero. *)

val sqrt : t -> t
(** Square root of the non-negative part.  @raise Invalid_argument when the
    interval is entirely negative. *)

val sign : t -> int option
(** [Some s] only when the sign of every real in the interval is [s]. *)

val compare_certain : t -> t -> int option
(** [Some c] only when the order of the two enclosed reals is proved
    (disjoint intervals, or both exact equal points). *)

val contains_zero : t -> bool
val is_finite : t -> bool
val width : t -> float
val mid : t -> float

val horner : float array -> int -> int -> t -> t
(** [horner a off n x]: interval Horner over the [n] coefficient
    enclosures stored as flat pairs from [a.(off)], lowest degree first;
    each step is [add (mul acc x) c]'s float operations, so the result
    encloses the polynomial's value at every real in [x]. *)

val contains_rat : t -> Rat.t -> bool
(** Exact membership (soundness oracle for the property tests). *)

val pp : Format.formatter -> t -> unit
