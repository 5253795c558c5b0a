(** Crash tolerance for experiment cells.

    Each (benchmark, configuration) measurement runs inside {!cell},
    which converts exceptions into structured {!failure} values — a
    failing cell renders as [ERR] and lands in the error report instead
    of tearing down the whole table — and retries transient failures
    with bounded exponential backoff.

    A cell is not remembered once it finishes: a killed run resumes by
    re-running its cells against the run cache ({!Runcache}, [isf
    --cache DIR]), which serves every measurement that already finished
    from disk. *)

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

val cell : ?retries:int -> key:string -> (unit -> 'a) -> 'a outcome
(** Run one experiment cell: [f] runs with {!context} set to [key];
    transient failures are retried up to [retries] (default 2) more
    times with exponential backoff (50ms, 100ms, ...); any final
    exception becomes [Error failure]. *)

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
