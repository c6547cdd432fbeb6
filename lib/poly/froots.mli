(** Numeric real-root finding for float polynomials.

    The fast sweep backend's counterpart to exact Sturm isolation: closed
    forms for degree ≤ 2 (the paper's Euclidean and fastest-arrival
    g-distances are piecewise quadratics), recursive critical-point
    subdivision plus bisection for higher degree. *)

val bisect : Fpoly.t -> float -> float -> float
(** [bisect p a b]: a root of [p] in [[a, b]] by float bisection, given
    that [p a] and [p b] have opposite signs. *)

val real_roots : Fpoly.t -> float list
(** Distinct real roots in ascending order (within float tolerance). *)

val first_root_after : Fpoly.t -> float -> float option
(** Least root strictly greater than the given time (with a small relative
    guard so a root equal to the current instant is not returned again). *)

val first_root_at_or_after : Fpoly.t -> float -> float option
