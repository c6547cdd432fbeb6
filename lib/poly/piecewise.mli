(** Piecewise polynomial functions of time.

    Instantiated generalized distances [f(o)] are continuous piecewise
    polynomial functions from time to R (paper, Definition 6 and the
    "polynomial g-distance" notion of Section 5).  A value covers the domain
    [[start, stop)] ([stop = None] meaning unbounded), split into pieces each
    carrying one polynomial; pieces are stored in ascending order of start
    time.  Operations are documented in {!Piecewise_intf.S}. *)

module Qpiece :
  Piecewise_intf.S with type P.t = Qpoly.t and type P.F.t = Moq_numeric.Rat.t

