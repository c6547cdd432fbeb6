(** Module type of {!Piecewise.Make}'s result (see {!Piecewise} for the
    semantics). *)

module type S = sig
  module P : Poly_intf.S

  type t

  val make : ?stop:P.F.t -> (P.F.t * P.t) list -> t
  val constant : start:P.F.t -> P.F.t -> t
  val of_poly : start:P.F.t -> P.t -> t
  val pieces : t -> (P.F.t * P.t) list
  val start : t -> P.F.t
  val stop : t -> P.F.t option
  val defined_at : t -> P.F.t -> bool
  val eval : t -> P.F.t -> P.F.t
  val piece_covering : t -> P.F.t -> P.t * P.F.t option
  val breakpoints : t -> P.F.t list
  val map : (P.t -> P.t) -> t -> t
  val combine : (P.t -> P.t -> P.t) -> t -> t -> t
  val sub : t -> t -> t
  val compose_affine : t -> scale:P.F.t -> offset:P.F.t -> t
  val clip : t -> from_:P.F.t option -> until:P.F.t option -> t
  val extend_last_from : t -> P.F.t -> P.t -> ?stop:P.F.t -> unit -> t
  val is_continuous : t -> bool

  (** A curve laid out for the sweep: its knots (the piece starts, then
      the stop when the curve has one), its polynomials, an
      outward-rounded float enclosure of every knot and coefficient, and
      its value jumps.  Read only. *)
  type view = private {
    count : int;  (** pieces *)
    starts : P.F.t array;  (** the knots: [count] starts, then the stop if any *)
    polys : P.t array;  (** piece [k]'s polynomial *)
    bounds : float array;  (** knot [j] lies in [[bounds.(2j), bounds.(2j+1)]] *)
    coefs : float array;
        (** coefficient [i] of piece [k] lies in [[coefs.(c), coefs.(c+1)]],
            [c = coef_at.(k) + 2i], lowest degree first *)
    coef_at : int array;  (** [count + 1] offsets into [coefs] *)
    jumps : P.F.t list;
        (** the breakpoints where the value is discontinuous, ascending *)
  }

  val view : t -> view
  (** The curve's view, built on the first call and kept with the curve:
      curves shared between sweeps share it. *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end
