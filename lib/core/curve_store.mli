(** One g-distance's exact curves, one per object, reused across sweeps.

    An entry holds the trajectory its curve was built from and is valid
    only while the MOD's trajectory for that OID is physically ([==]) the
    same; a miss builds the curve with {!Gdist.curve} and publishes it.
    Trajectories are immutable, so every curve handed out is the one
    {!Gdist.curve} would build, and a sweep over it makes the same
    decisions.

    Readers need no lock: the map is immutable and published by
    compare-and-set, and a publish that loses a race is dropped (a later
    read rebuilds that curve).  Bound: after a whole-MOD read ({!curves})
    the store holds exactly that MOD's objects; a one-object read adds or
    replaces that object's entry. *)

type t

val create : Gdist.t -> t
(** An empty store for the g-distance. *)

val gdist : t -> Gdist.t

val curve : t -> Moq_mod.Oid.t -> Moq_mod.Trajectory.t -> Moq_poly.Piecewise.Qpiece.t
(** The curve of one object's current trajectory. *)

val curves :
  t -> Moq_mod.Mobdb.t ->
  (Moq_mod.Oid.t -> Moq_mod.Trajectory.t -> Moq_poly.Piecewise.Qpiece.t -> 'a) -> 'a list
(** [curves s db f] maps [f] over every object of the MOD with its
    trajectory and curve, in OID order.  Publishes a map of exactly the
    MOD's objects when any curve was built or the map held others. *)

val build :
  Gdist.t -> Moq_mod.Mobdb.t ->
  (Moq_mod.Oid.t -> Moq_mod.Trajectory.t -> Moq_poly.Piecewise.Qpiece.t -> 'a) -> 'a list
(** {!curves} without a store: every curve built afresh. *)

val size : t -> int
(** Entries held. *)

val clear : t -> unit
(** Drop every entry (a MOD replaced wholesale). *)
