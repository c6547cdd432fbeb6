(** Sturm sequences and exact root isolation for rational polynomials.

    This is the "known algorithm" the paper delegates curve-intersection
    computation to (citation [21]); we implement it from scratch.  All
    operations are exact over {!Moq_numeric.Rat}. *)

module Q = Moq_numeric.Rat

type chain
(** A Sturm chain for a polynomial. *)

val chain : Qpoly.t -> chain

val poly : chain -> Qpoly.t

val count_roots_between : chain -> Q.t -> Q.t -> int
(** [count_roots_between c lo hi] is the number of distinct real roots in the
    half-open interval [(lo, hi]].  Requires [lo <= hi]. *)

val count_real_roots : chain -> int
(** Total number of distinct real roots. *)

type isolated =
  | Point of Q.t  (** an exactly-rational root *)
  | Open_interval of Q.t * Q.t
      (** an interval [(lo, hi)] with the polynomial nonzero at both endpoints
          and containing exactly one distinct root *)

val isolate : Qpoly.t -> isolated list
(** Isolating intervals for all distinct real roots of the (automatically
    squarefree-d) polynomial, in ascending order. *)

val refine : Qpoly.t -> Q.t -> Q.t -> [ `Exact of Q.t | `Narrower of Q.t * Q.t ]
(** One bisection step on an isolating interval of a squarefree polynomial
    with a sign change between the endpoints.  Either finds the root exactly
    rational, or halves the interval. *)
