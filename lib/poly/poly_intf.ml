(** Module type of {!Poly.Make}'s result, shared so downstream functors
    ({!Piecewise}, the sweep backends) can abstract over the coefficient
    field. *)

module type S = sig
  module F : Field.ORDERED_FIELD

  type t

  val zero : t
  val one : t
  val var : t
  val constant : F.t -> t
  val of_list : F.t list -> t
  val to_list : t -> F.t list
  val coeff : t -> int -> F.t
  val degree : t -> int
  val leading : t -> F.t
  val is_zero : t -> bool
  val equal : t -> t -> bool

  val enclose_coefs : t -> float array
  (** Outward-rounded enclosures of the coefficients as flat pairs,
      lowest degree first: coefficient [j]'s bounds are at [2 j] and
      [2 j + 1] ({!Field.ORDERED_FIELD.enclose_into}), the layout of a
      curve view's [coefs]. *)

  val eval : t -> F.t -> F.t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val neg : t -> t
  val scale : F.t -> t -> t
  val derivative : t -> t
  val compose : t -> t -> t
  val shift : t -> F.t -> t
  val divmod : t -> t -> t * t
  val gcd : t -> t -> t
  val monic : t -> t
  val squarefree : t -> t
  val sign_at : t -> F.t -> int
  val sign_jet : t -> F.t -> int
  val sign_at_neg_infinity : t -> int
  val sign_at_pos_infinity : t -> int
  val cauchy_bound : t -> F.t
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end
