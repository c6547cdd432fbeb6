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
    Invalid_argument when the check fails. *)

val root_of_certified : Qpoly.t -> lo:Q.t -> hi:Q.t -> sign_lo:int -> t
(** The unchecked form of {!root_of_isolating_exn}, for a caller that has
    already proved all of it: [p] is squarefree, [lo < hi], [sign_lo] is
    the exact sign of [p] at [lo], [p] has the opposite nonzero sign at
    [hi], and [(lo, hi)] holds exactly one root.  Builds the same number
    as the checked form with no gcd and no sign test.  Used by the
    filtered backend, whose float certificate (a positive discriminant and
    disjoint root enclosures) plus its two exact endpoint signs is that
    proof. *)

val root_of_enclosure : Qpoly.t -> lo:Q.t -> hi:Q.t -> index:int -> t
(** Root number [index] (0 for the least) of the squarefree polynomial
    [p], for a caller that knows the closed interval [[lo, hi]] holds it
    and no other root of [p].  Built by {!root_of_certified} from the two
    endpoint signs; when they do not change sign (an endpoint is the root
    itself) it is [List.nth (roots p) index].  The filtered backend builds
    its crossing instants this way on their first exact read. *)

val well_formed : t -> bool
(** The representation invariant of a root, checked with fresh exact
    sign tests: its polynomial has opposite nonzero signs at the two ends
    of its interval, and the sign the root stores for its left end (the
    one every bisection step reads) is the sign there.  [true] for a
    rational.  For tests. *)

val text_memo_bound : int
(** Polynomials whose cells and canonical texts {!to_string} retains. *)

val refine_until_width : t -> Q.t -> t
(** [refine_until_width x w] bisects a root's isolating interval until it
    is narrower than [w] (narrowing it in place) and returns the root, or
    returns the rational a bisection midpoint found the root to be.  The
    answer depends only on the interval [x] starts from; rationals are
    returned unchanged.  Costs two exact sign tests unless a float
    estimate of the root misses, when the bisection runs step by step. *)

val to_string : t -> string
(** Canonical bytes: they depend only on the number's value, never on its
    representation or on how far comparisons have refined its interval.
    A rational value prints as that rational, whether it is held as
    [of_rat q] or as a root of some polynomial; an irrational root prints
    as a canonical isolating cell of its defining polynomial: the cell of
    width below 2^-40 on the dyadic grid of [[-B, B]], B the polynomial's
    Cauchy bound, that Sturm isolation and bisection reach. *)

val root_to_string : Qpoly.t -> int -> string
(** [root_to_string p i] is {!to_string} of root [i] (0 for the least) of
    the squarefree polynomial [p], through the same memo, without
    building the number.  A monic quadratic with irrational roots gets its
    cells in closed form.  For the filtered backend's deferred instants.
    @raise Invalid_argument when [p] has no root [i]. *)

val sturm_to_string : t -> string
(** {!to_string}'s bytes by the general path alone: the number's cell
    among its polynomial's Sturm cells, refined and tested for a rational
    value, with no memo and no closed form.  The reference for tests. *)

type print_stats = {
  polys : int;  (** polynomials whose cells a print computed (memo misses) *)
  isolations : int;  (** of those, the ones that took Sturm isolation *)
}

val print_stats : unit -> print_stats
(** Counts since start or the last {!reset_print_stats}, over all threads. *)

val reset_print_stats : unit -> unit

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}'s bytes. *)
