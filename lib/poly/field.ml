(** Signatures for the coefficient fields of {!Poly.Make}. *)

(** An ordered field.  Instantiated by exact rationals ({!Moq_numeric.Rat})
    and by IEEE floats (an "almost field": the float instance trades the field
    axioms for speed and is only used by the benchmark backend). *)
module type ORDERED_FIELD = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val is_zero : t -> bool
  val to_float : t -> float
  val of_float : float -> t

  val enclose_into : float array -> int -> t -> unit
  (** [enclose_into a i x] stores an outward-rounded float enclosure of
      [x] in [a.(i)] (below) and [a.(i + 1)] (above). *)

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

(** Floats as an [ORDERED_FIELD]. *)
module Float_field : ORDERED_FIELD with type t = float = struct
  type t = float

  let zero = 0.0
  let one = 1.0
  let of_int = float_of_int
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let neg x = -. x
  let compare = Float.compare
  let equal = Float.equal
  let is_zero x = x = 0.0
  let to_float x = x
  let of_float x = x

  let enclose_into a i x =
    a.(i) <- x;
    a.(i + 1) <- x

  let to_string x = Printf.sprintf "%g" x
  let pp fmt x = Format.pp_print_string fmt (to_string x)
end

(** Exact rationals as an [ORDERED_FIELD]. *)
module Rat_field : ORDERED_FIELD with type t = Moq_numeric.Rat.t = struct
  include Moq_numeric.Rat

  let enclose_into = Moq_numeric.Fintval.of_rat_into
end
