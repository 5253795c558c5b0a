(** Fleet driver: deterministic generation and accounting for large
    batches of mixed-scale jobs.

    Generation is a pure function of the seed, so the same fleet can be
    emitted to a job file, run sequentially as the byte-identity
    reference, run concurrently through the daemon, killed mid-flight
    and resumed — every path must produce the same sorted result
    lines. *)

type fleet_stats = {
  jobs : int;
  ok : int;
  failed : int;  (** ERR results (classified: fault/fuel/timeout/transient) *)
  quarantined : int;
  shed : int;
  replayed : int;  (** results served verbatim from the journal *)
  uncaught : int;  (** exceptions that escaped a worker's job wrapper — must be 0 *)
  wall_seconds : float;
  jobs_per_sec : float;
  p50_ms : float;  (** submit-to-result latency percentiles *)
  p99_ms : float;
}

val jobs :
  ?engine:[ `Ref | `Fast ] ->
  ?recording:[ `Slots | `Legacy ] ->
  ?poison:int ->
  seed:int ->
  n:int ->
  unit ->
  Job.t list
(** [n] mixed-scale jobs over six benchmarks × three scales × four
    variants × six spec sets × five triggers, deterministically mixed
    from [seed]; [poison] extra deliberately-broken jobs are woven
    through the fleet (distinct digests, each exercising its own
    quarantine entry). *)

val client_of : clients:int -> int -> string
(** Round-robin client name for submission index [i]. *)

val write_job_file : string -> (string * Job.t) list -> unit
(** One ["<client> <canonical job line>"] per line; the 1-based line
    number is the job id everywhere (daemon, journal, results), which
    is what makes kill/restart/resume line up. *)

val read_job_file : string -> (string * Job.t) list
(** Raises [Failure] on a malformed line. *)

val write_results : string -> (int * string) list -> unit

val run_daemon :
  ?config:Daemon.config ->
  ?journal:string ->
  ?meta:string ->
  ?window:int ->
  (string * Job.t) list ->
  fleet_stats * (int * string) list * (int * string) list
(** Start a daemon, submit every entry with pinned ids 1..n (skipping
    ids the journal already completed), drain, and account
    jobs/sec + latency percentiles.  Returns
    [(stats, sorted result lines, sorted profile payloads)] — one
    canonical {!Profiles.Merge} rendering per completed job.

    [window] switches submission from open loop (all n upfront) to
    closed loop: at most [window] jobs outstanding, the next submitted
    on each completion.  The latency percentiles then measure per-job
    service latency rather than backlog age.  Clamped to
    [1 .. capacity] so a worker-domain submission can never block on a
    full queue and wedge the pool.  Result lines and payloads are
    byte-identical either way — only the timing accounting differs. *)

val run_sequential :
  ?config:Daemon.config ->
  (string * Job.t) list ->
  (int * string) list * (int * string) list
(** The byte-identity reference: [config] (default {!Daemon.default})
    with one worker and capacity one, so jobs run in submission order.
    Returns [(sorted result lines, sorted profile payloads)]. *)

val merge_profiles :
  ?config:Harness.Measure.config ->
  ?jobs:int ->
  entries:(string * Job.t) list ->
  results:(int * string) list ->
  (int * string) list ->
  Profiles.Merge.t
(** Merge a fleet's per-job profile payloads into one aggregate via the
    parallel merge tree, cached by {!Harness.Aggregate} under the
    sorted multiset of payload digests.  Only OK results contribute.
    An OK result whose payload is missing (pre-profile journal replay,
    socket run without PROFILES) is recomputed through
    {!Job.execute_full} under [config] — a run-cache lookup when warm, and
    deterministic either way — so the merge is always lossless.  The
    output is byte-identical however the fleet was sharded, ordered or
    parallelised. *)

val unclassified : (int * string) list -> (int * string) list
(** Result lines whose failure carries no known classification — the
    "no unclassified crashes" acceptance gate requires this empty.
    (Bug-classified failures never surface as ERR: the quarantine
    absorbs them.) *)
