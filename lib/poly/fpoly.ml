(** Polynomials with float coefficients: float estimates of exact
    polynomials (an [Algnum] root's starting guess). *)

include Poly.Make (Field.Float_field)

let of_qpoly (p : Qpoly.t) : t =
  of_list (List.map Moq_numeric.Rat.to_float (Qpoly.to_list p))
