(** Exact real algebraic numbers.

    Event times in the exact sweep backend are intersection times of
    polynomial g-distance curves, i.e. real roots of rational polynomials
    (irrational already for the paper's quadratic Euclidean distances).  This
    module represents such roots exactly — as a squarefree defining polynomial
    plus an isolating interval — and supports exact comparison, sign
    evaluation of other polynomials at the number, and refinement to floats.
    This stands in for the real-closed-field oracle the paper assumes. *)

module Q = Moq_numeric.Rat

type t

val of_rat : Q.t -> t
val of_int : int -> t

val roots : Qpoly.t -> t list
(** All distinct real roots, ascending.  Exact. *)

val first_root_after : Qpoly.t -> t -> t option
(** Least real root strictly greater than the given number. *)

val first_root_at_or_after : Qpoly.t -> t -> t option

val compare : t -> t -> int
(** Exact total order. *)

val equal : t -> t -> bool

val sign : t -> int

val sign_of_poly_at : Qpoly.t -> t -> int
(** Exact sign of a polynomial evaluated at the algebraic number. *)

val to_rat : t -> Q.t option
(** [Some q] when the number is (detectably) rational. *)

val rational_between : t -> t -> Q.t
(** A rational strictly between two numbers.  @raise Invalid_argument if the
    arguments are equal.  Used to pick the paper's "[τ' + ε]" sample instants
    between consecutive events. *)

val rational_below : t -> Q.t
(** A rational strictly less than the number. *)

val rational_above : t -> Q.t

val to_float : t -> float
(** The nearest float (ties to even).  It depends only on the number, not
    on its representation or refinement history. *)

val bounds : t -> Q.t * Q.t
(** Current rational enclosure [(lo, hi)] of the number: the isolating
    interval for a root ([lo < alpha < hi]), the point itself for a
    rational.  Comparisons refine root intervals in place, so the returned
    enclosure only ever narrows. *)

val refine_step : t -> unit
(** One in-place bisection of a root's isolating interval (at least halves
    its width); no-op on rationals. *)

val root_of_isolating_exn : Qpoly.t -> lo:Q.t -> hi:Q.t -> t
(** Build the algebraic number isolated by [(lo, hi)] without running root
    isolation.  Checks that the squarefree part of the polynomial changes
    sign between the endpoints (and is nonzero at both); the CALLER must
    guarantee the interval contains exactly one root.  @raise
    Invalid_argument when the check fails.  Used by the filtered backend,
    which certifies its float-interval root candidates this way. *)

val pp : Format.formatter -> t -> unit
