(** Two-tier content-addressed cache for measurement results.

    Tier 1 is in-memory and domain-safe ({!Sync.Memo}): within one
    process, the first caller of a key computes it while concurrent
    callers of the same key block and share the result.  Tier 2 is an
    optional on-disk store ([isf --cache DIR] / [ISF_CACHE]) shared
    across processes: entries are written to a temporary file and
    renamed into place, so concurrent writers — domains of one process
    or separate [isf] processes — can never expose a partial entry.

    On-disk entries carry a magic header, the full run key and an MD5
    of the marshalled payload.  A truncated, corrupt or foreign file is
    treated as a miss and recomputed (then overwritten); an entry that
    parses and verifies but embeds a {e different} run key than the one
    that hashed to its filename is a digest collision and raises — that
    is the only loud failure a read can produce.  A cache directory
    written by an incompatible format or compiler version is refused
    with [Failure] ([bin/isf.ml] turns it into exit 2).

    The cache is the only record of finished work: a killed [isf table
    --cache DIR] resumes by re-running its cells, whose measurements
    that already finished are disk hits. *)

type stats = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  store_failures : int;
      (** computed values the disk tier was armed for but could not
          write (its directory gone, the disk full): each was still
          returned, so the output is unchanged, but a resume will
          recompute it. *)
  corrupt : int;
      (** disk entries that existed but failed verification (foreign
          magic, torn payload, digest mismatch, or a collision) — each
          was recomputed, but a climbing count means the disk tier is
          rotting.  {!Serve.Daemon} circuit-breaks on it. *)
}

val version : string
(** Format version recorded in [DIR/CACHE_VERSION]; includes the OCaml
    version because entries are [Marshal]-encoded.  Bump the format
    component whenever the payload layout (e.g. [Measure.metrics])
    changes shape. *)

val set_dir : string option -> unit
(** Enable ([Some dir], created if missing) or disable ([None]) the
    persistent tier.  Raises [Failure] if [dir] was written by an
    incompatible version — delete it or point [--cache] elsewhere.
    Opening a directory also sweeps [isf-*.tmp] files older than
    {!stale_tmp_age} — orphans of a writer that crashed between
    creating its temp file and the atomic rename.  Younger tmp files
    are left alone: another process sharing the directory may be
    mid-write. *)

val dir : unit -> string option

val stale_tmp_age : float
(** Age in seconds past which an [isf-*.tmp] file is considered the
    debris of a crashed writer and swept by {!set_dir}. *)

val stats : unit -> stats

val corruptions : unit -> int
(** [ (stats ()).corrupt ] — cheap accessor for circuit breakers. *)

val on_reset : (unit -> unit) -> unit
(** Register an in-memory cache to be cleared by {!reset_memory}.
    Every {!Make} instance registers itself; {!Measure} additionally
    registers its build caches. *)

val reset_memory : unit -> unit
(** Clear every registered in-memory cache (and the stats), as if the
    process had just started; the disk tier is untouched.  Used by the
    harness benchmark and tests to measure a warm disk cache from a
    cold memory state. *)

module Make (V : sig
  type t
end) : sig
  val find : key:string -> (unit -> V.t) -> V.t
  (** Memory hit, else disk hit, else compute, publish to both tiers.
      Only successful computations are ever cached: if [f] raises, the
      key is left uncomputed (concurrent waiters retry) and nothing is
      written to disk. *)

  val cached : key:string -> bool
  (** Is the key available from either tier without computing? *)
end
