(** Exact rational numbers over {!Bigint}.

    Values are kept canonical: the denominator is strictly positive and
    [gcd num den = 1].  These rationals carry all exact computation in the
    reproduction: trajectory coordinates, polynomial coefficients, Sturm
    sequences, and sweep event times. *)

type t

val zero : t
val one : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero if [den] is zero. *)

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints p q] is [p/q]. @raise Division_by_zero if [q = 0]. *)

val of_bigint : Bigint.t -> t
val num : t -> Bigint.t
val den : t -> Bigint.t
val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero *)

val inv : t -> t
(** @raise Division_by_zero *)

val min : t -> t -> t
val max : t -> t -> t
val is_zero : t -> bool

val floor : t -> Bigint.t
(** Largest integer [<=] the rational. *)

val ceil : t -> Bigint.t

val mediant : t -> t -> t
(** [mediant a b] is [(num a + num b) / (den a + den b)]; lies strictly
    between [a] and [b] when [a <> b].  Used to pick small-representation
    sample points inside isolating intervals. *)

val to_float : t -> float

val float_of_ratio : Bigint.t -> Bigint.t -> float
(** [float_of_ratio n d] is [to_float (make n d)] for [d > 0], without
    reducing the fraction first. *)

val of_float : float -> t
(** Exact conversion of a finite float (binary expansion).
    @raise Invalid_argument on nan/infinite. *)

val of_string : string -> t
(** Accepts ["p"], ["p/q"], and decimal notation ["-12.75"]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val hash : t -> int

(** Infix operators, for formula-heavy call sites. *)
module Infix : sig
  val ( +/ ) : t -> t -> t
  val ( -/ ) : t -> t -> t
  val ( */ ) : t -> t -> t
  val ( // ) : t -> t -> t
  val ( =/ ) : t -> t -> bool
  val ( </ ) : t -> t -> bool
  val ( <=/ ) : t -> t -> bool
  val ( >/ ) : t -> t -> bool
  val ( >=/ ) : t -> t -> bool
end
