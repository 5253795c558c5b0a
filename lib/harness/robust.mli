(** Crash tolerance for experiment cells.

    Each (benchmark, configuration) measurement runs inside {!cell},
    which converts exceptions into structured {!failure} values — a
    failing cell renders as [ERR] and lands in the error report instead
    of tearing down the whole table — retries transient failures with
    bounded exponential backoff, and, when a checkpoint file is armed
    via {!set_checkpoint}, persists every completed cell so a killed run
    resumes exactly where it stopped (ISSUE 3).

    The checkpoint file is a {!Log} of marshaled [(key, payload)]
    records.  A resume gets back every cell up to the first record that
    fails its MD5 (a torn tail, a flipped byte) and recomputes the rest.
    Only successful cells are persisted; failed cells are re-attempted
    on resume. *)

type failure = {
  key : string;  (** the cell's stable identity, e.g. ["table1/raytrace/call-edge"] *)
  classification : string;
      (** ["fault"] (injected), ["fuel"], ["timeout"] (watchdog),
          ["transient"]-exhausted stays its final class, ["bug"]
          (anything else), ["dependency"] (an upstream cell failed) *)
  attempts : int;  (** how many times the cell body ran *)
  message : string;
  backtrace : string;  (** raw backtrace of the last attempt; may be empty *)
}

type 'a outcome = ('a, failure) result

exception Transient of string
(** Raise from a cell body to request a retry (classified transient,
    like [Sys_error] and [Out_of_memory]). *)

val context : unit -> string
(** Key of the cell currently executing on this domain ([""] outside any
    cell).  {!Measure.execute} uses it to label VM error messages with
    the benchmark/config they belong to. *)

val classify : exn -> string
(** The [classification] {!cell} would assign this exception. *)

val message_of : exn -> string
(** The [message] {!cell} would record for this exception. *)

val set_checkpoint : ?meta:string -> ?scope:string -> string option -> unit
(** Arm ([Some path]) or disarm ([None]) the checkpoint store.  Arming
    loads every verified cell already in the file, drops the rest, and
    appends subsequent completed cells to it.  [meta] fingerprints the
    run configuration; [scope] (default [""]) is the {!cell} scope the
    loaded cells answer to — the run configuration's, as the table
    drivers pass it.  Raises [Failure] (see {!Log.open_}) for an
    unusable path, a file written under a different [meta], and a
    non-empty file that is not a checkpoint. *)

val checkpointed_cells : unit -> int
(** Number of cells the armed checkpoint resumed from disk (0 when no
    checkpoint is armed or the file was empty).  {!Experiments} and
    {!Ablation} skip the scheduler's prewarm when this is non-zero:
    re-measuring cells the resume already finished would defeat it. *)

val cell :
  ?retries:int -> ?scope:string -> key:string -> (unit -> 'a) -> 'a outcome
(** Run one experiment cell.  If the store holds [key] under [scope]
    (default [""]: the run configuration the cell is measured under,
    {!Measure.scope}), the cached payload is returned without running
    [f].  Otherwise [f] runs with
    {!context} set to [key]; transient failures are retried up to
    [retries] (default 2) more times with exponential backoff (50ms,
    100ms, ...); any final exception becomes [Error failure].  A
    successful value is marshaled into the checkpoint, so it must be
    closure-free (floats, strings, lists/tuples/records of those). *)

val oks : 'a outcome list -> 'a list
val errors : 'a outcome list -> failure list

val get_or : default:'a -> 'a outcome -> 'a

val cell_str : ('a -> string) -> 'a outcome -> string
(** Render a table cell: the value through [f], or ["ERR"]. *)

val report : failure list -> string
(** The error-report appendix: one block per failure, sorted by key.
    Backtraces are rendered only for ["bug"] failures — an expected,
    classified failure already carries its deterministic context in the
    message, while its backtrace depends on which awaiter of a memoized
    cell re-raised first, which would make the report nondeterministic
    under [-j] and across configurations. *)
