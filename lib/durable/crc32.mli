(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over strings.

    Protects write-ahead-log records and checkpoint payloads against
    bit rot and torn writes.  Pure OCaml, table-driven (slicing-by-8:
    eight bytes per step); values fit in a native [int] (the platform
    guarantees 63-bit ints).

    A CRC can be taken in pieces: [finish (update (update init a ..) b ..)]
    equals [string (a ^ b)], so a checkpoint is checksummed as it is
    written, without first building the whole payload. *)

val init : int
(** The running state before any byte. *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] folds bytes [pos .. pos + len - 1] of [s] into
    the running state [crc].  @raise Invalid_argument on a bad range. *)

val finish : int -> int
(** The CRC of everything folded into a running state. *)

val string : string -> int
(** CRC of a whole string: [finish (update init s 0 (String.length s))]. *)

val to_hex : int -> string
(** Fixed-width lowercase hex (8 digits). *)

val of_hex : string -> int option
(** Inverse of {!to_hex}; [None] on malformed input. *)
