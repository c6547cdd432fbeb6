(** The moving object database (paper, Definition 2): a finite set of
    objects with trajectories plus the time of the last update, with updates
    applied chronologically.

    The structure is persistent (an applicative map): the lazy-evaluation
    baseline and the monitor both hold snapshots without copying. *)

module Q = Moq_numeric.Rat

type t

type error =
  | Stale_update of { tau : Q.t; last : Q.t }
      (** Update not strictly after the last update time (paper: [τ0 < τ]). *)
  | Duplicate_oid of Oid.t
  | Unknown_oid of Oid.t
  | Not_defined_at of Oid.t * Q.t
  | Dimension_mismatch

val pp_error : Format.formatter -> error -> unit

val empty : dim:int -> tau:Q.t -> t
(** An empty MOD with last-update time [tau]. *)

val apply : t -> Update.t -> (t, error) result
val apply_exn : t -> Update.t -> t
(** @raise Invalid_argument on a rejected update. *)

val apply_all_exn : t -> Update.t list -> t

val dim : t -> int
val last_update : t -> Q.t

val cardinal : t -> int
(** Number of objects in O.  Per Definition 3, [terminate] does not remove
    the object from O — it clips the trajectory — so terminated objects
    still count (and remain queryable in past queries). *)

val mem : t -> Oid.t -> bool
val find : t -> Oid.t -> Trajectory.t option

val live : t -> Q.t -> (Oid.t * Trajectory.t) list
(** Objects whose lifetime contains the given instant. *)

val objects : t -> (Oid.t * Trajectory.t) list
(** All objects, sorted by OID. *)

val iter : (Oid.t -> Trajectory.t -> unit) -> t -> unit
(** Every object in OID order, without building {!objects}' list. *)

val oids : t -> Oid.t list

val add_initial : t -> Oid.t -> Trajectory.t -> t
(** Bulk-load an object without advancing the update clock (for building
    test fixtures and workloads "at time [τ0]").
    @raise Invalid_argument on duplicate OID or dimension mismatch. *)

val pp : Format.formatter -> t -> unit
