(** The serve-mode engine: persistent workers over a bounded fair
    queue, with journaled crash recovery, poison-job quarantine and a
    cache circuit breaker.

    Every front-end — the Unix-socket server ({!Server}), the job-file
    drain ({!Fleet.run_daemon}, behind both [isf serve --job-file] and
    [isf fleet]) and the tests — runs on this module; none of the
    robustness lives in front-ends.

    {b Admission.}  {!submit} is bounded by [config.capacity] and sheds
    with an explicit [`Shed] when saturated; {!submit_pinned} (the
    job-file path, where the id is the line number, driven by
    {!Fleet.run_daemon}) blocks for space instead, so a drain loses
    nothing.

    {b Fairness.}  Jobs are scheduled round-robin across client queues
    ({!Fairq}), so one flooding client cannot starve the others.

    {b Failure handling.}  Transient failures retry with exponential
    backoff ([config.retries]); injected-fault / fuel / watchdog
    failures are reported with their {!Harness.Robust.classify}
    classification; bug-classified failures feed the {!Quarantine} —
    after [config.quarantine_after] attempts the job's digest and
    report are quarantined (journaled, so restarts remember) and the
    job is never run again.  A worker survives anything a job throws.

    {b Cache breaker.}  [config.breaker_after] cache-corruption events
    (silent recomputes counted by {!Harness.Runcache.corruptions} or
    loud collision/version failures) trip a one-way breaker: the disk
    tier is disabled ({!Harness.Runcache.set_dir}[ None]) and the
    daemon keeps serving from the memory tier.

    {b Crash recovery.}  With a journal armed, every submission and
    completion is appended (flushed, torn-tail tolerant); on restart,
    completed results replay verbatim, in-flight jobs of the previous
    life re-run, and the quarantine list is restored.  Job execution is
    deterministic and content-cached, so a resumed fleet's sorted
    result lines are byte-identical to an uninterrupted run.  A failed
    append (full disk, file-size limit) never kills a worker: the first
    one is kept ({!failure}) and ends {!drain}, and the file keeps a
    verified prefix for the restart. *)

type config = {
  workers : int;  (** worker domains ({!Harness.Pool.Service}) *)
  capacity : int;  (** admission bound across all clients *)
  retries : int;  (** transient retries per job *)
  quarantine_after : int;  (** bug failures before quarantine *)
  breaker_after : int;  (** corruption events before the breaker trips *)
  measure : Harness.Measure.config;
      (** what every job runs under ({!Job.execute_full}); each job's
          engine and recording replace the record's own *)
}

val default : config

type stats = {
  accepted : int;
  completed : int;
  shed : int;
  quarantined : int;  (** jobs quarantined by this daemon instance *)
  replayed : int;  (** results served verbatim from the journal *)
  breaker_tripped : bool;
  per_worker : int array;  (** jobs executed per worker domain *)
  uncaught : int;  (** exceptions that escaped a job wrapper — always 0 *)
  queue_depth : int;  (** jobs admitted but not yet popped by a worker *)
}

type t

val start :
  ?config:config ->
  ?journal:string ->
  ?meta:string ->
  ?on_result:(int -> string -> Job.t -> string -> string option -> unit) ->
  unit ->
  t
(** Start the workers.  [journal] arms crash recovery ([meta]
    fingerprints the configuration; a mismatched journal raises
    [Failure]).  [on_result id client job line payload] fires on every
    fresh completion (not on replays) from a worker domain — it must be
    domain-safe.  [payload] is the canonical profile rendering of a
    completed job ([None] for failures and quarantines). *)

val submit : t -> client:string -> Job.t -> [ `Accepted of int | `Shed | `Closed ]
(** Non-blocking admission (the socket path). *)

val submit_pinned : t -> id:int -> client:string -> Job.t -> unit
(** Blocking admission with a caller-pinned id (the job-file path).
    The caller skips ids {!is_known} reports.  Raises [Failure] if the
    daemon is stopping. *)

val drain : t -> unit
(** Block until every accepted job has a result, or until a journal
    append fails ({!failure}). *)

val failure : t -> string option
(** The first failed journal append, as a one-line message.  Jobs still
    complete in memory after it, but the journal no longer records
    them: a front-end that sees it stops the daemon ([~drain:false])
    and reports the error. *)

val is_known : t -> id:int -> bool
(** The id has a result already (journal replay) or was accepted this
    life (recovery resubmission) — {!Fleet.run_daemon} skips known
    ids so recovery never double-runs a job. *)

val results : t -> (int * string) list
(** All result lines (replayed + fresh), sorted by id. *)

val profiles : t -> (int * string) list
(** Canonical profile renderings of every completed job (fresh runs and
    journal replays alike), sorted by id — the fleet merge's input.
    Failures and quarantines have no entry. *)

val stats : t -> stats

val stop : ?drain:bool -> t -> unit
(** Graceful: close admissions, let queued jobs finish ([drain],
    default true) or drop them for restart-resume ([drain:false] — the
    signal-shutdown path; after a {!failure} the dropped jobs may be
    missing from the journal, and the stderr note says so), join the
    workers, close the journal. *)
