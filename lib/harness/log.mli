(** The append-only, checksummed record log behind {!Robust}'s cell
    checkpoint and the serve daemon's job journal; the only code that
    reads or writes their bytes.

    Each record is an 8-byte little-endian length, the MD5 of the body,
    then the body.  The first record is the meta string that
    fingerprints the writer's configuration.  A reader gets back the
    longest prefix of records whose MD5 verifies, never a byte past the
    first bad frame. *)

type t

val open_ : what:string -> meta:string -> string -> t * string list
(** [open_ ~what ~meta path] opens or creates the log at [path] and
    returns the bodies of its verified records after the meta record,
    in append order.  The file is truncated after the last verified
    record, so appends continue the readable log.  A file cut inside its
    first record, with those bytes a prefix of this [meta]'s record,
    counts as fresh.  Raises [Failure] naming [what] and [path] when the
    path cannot be opened or read ([cannot open|read WHAT PATH: ...]),
    when the meta record differs from [meta], and when the file is
    non-empty but holds no verified record; a refused file is left as
    it was. *)

val append : t -> string -> unit
(** Frame, write and flush one record (no fsync).  Domain-safe. *)

val close : t -> unit
val path : t -> string
