(** Append-only job journal — the daemon's crash-recovery log.

    Each record is marshaled into one {!Harness.Log} record, written and
    flushed on its own.  A reader gets back every record up to the first
    one that fails its MD5 — a SIGKILL's torn tail or a corrupt byte —
    and the file is truncated there, so nothing past the damage is ever
    decoded.  Opening a journal whose meta fingerprint differs from this
    daemon's configuration raises [Failure] — resume must be exact or
    refused.

    Recovery semantics: a job with a [Submitted] record but no
    [Completed] record was in flight (queued or running) when the
    daemon died and is re-run on restart; a [Completed] record carries
    the canonical result line and is replayed verbatim; [Quarantined]
    records persist the poison list across restarts so a quarantined
    job is never retried, even by a fresh daemon. *)

type record =
  | Submitted of { id : int; client : string; line : string }
  | Completed of { id : int; result : string }
  | Quarantined of { digest : string; report : string }
  | Profile of { id : int; payload : string }
      (** canonical {!Profiles.Merge.render} of a completed job's
          profile, written immediately before its [Completed] record so
          a resumed fleet can still be merged without re-running
          anything. *)

type recovered = {
  pending : (int * string * string) list;
      (** submitted but not completed — (id, client, job line), by id *)
  completed : (int * string) list;  (** (id, result line), by id *)
  quarantined : (string * string) list;  (** (job digest, report) *)
  profiles : (int * string) list;
      (** (id, profile rendering) for completed ids whose [Profile]
          record survived; the merge path recomputes any absent id
          through the run cache *)
  next_id : int;  (** 1 + highest id seen *)
}

type t

val open_ : ?meta:string -> string -> t * recovered
(** Open (creating if missing) and replay the journal's verified
    records.  Raises [Failure] naming the path (see
    {!Harness.Log.open_}) when it cannot be opened or read, when the
    existing journal's meta record differs from [meta], and when the
    file is non-empty but holds no verified record (it is some other
    file, left untouched). *)

val append : t -> record -> unit
(** Marshal, append, flush (no fsync).  Domain-safe. *)

val close : t -> unit
val path : t -> string
