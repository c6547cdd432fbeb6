(** Arbitrary-precision signed integers.

    Values that fit a native [int] are carried unboxed ([Small]); only
    larger values fall back to sign-magnitude base-[2{^30}] limbs stored
    little-endian in an [int array].  The container is sealed (no zarith), so
    the exact-arithmetic kernel of the whole reproduction rests on this
    module.  The representation is canonical — every int-fitting value uses
    the small form, and a magnitude never has a leading zero limb — so
    structural equality and [Hashtbl.hash] agree with value equality. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val to_int : t -> int option
(** [to_int x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int

val of_string : string -> t
(** Decimal, with optional leading [-]. @raise Invalid_argument on junk. *)

val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], truncated toward zero, so
    [r] has the sign of [a] and [|r| < |b|].  @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t
val gcd : t -> t -> t
(** Greatest common divisor; always non-negative, [gcd zero zero = zero]. *)

val is_square : t -> bool
(** [n] is the square of an integer (false for negative [n]).  Residues
    modulo a few small numbers reject most non-squares before an integer
    square root runs. *)

val mul_int : t -> int -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
val pow : t -> int -> t
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t

val to_float : t -> float
(** Correctly rounded (round-to-nearest-even) conversion; overflows to
    infinity for huge values. *)

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val fits_mantissa : t -> bool
(** [|x| < 2{^53}]: the value fits a double's significand, so {!to_float}
    converts it exactly.  The same test as [num_bits x <= 53], in O(1). *)

val is_power_of_two : t -> bool
(** [x = 2{^k}] for some [k >= 0]; O(1) for int-sized values. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit
