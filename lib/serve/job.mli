(** Profiling jobs: the unit of work [isf serve] accepts from clients.

    A job is pure data — benchmark, scale, instrumentation variant and
    specs, sampling trigger, engine, recording path — with a canonical
    one-line rendering that doubles as the wire format, the job-file
    format and the journal format.  [parse] and [render] are exact
    inverses on canonical lines, and {!digest} (the MD5 of the
    rendering) is the job's content identity: the quarantine keys on
    it, and a resubmitted job digests equal iff it would perform the
    identical measurement.

    Execution goes through {!Harness.Measure}, so every job is
    content-cached ({!Harness.Runcache}) exactly like a one-shot run —
    serve-mode results are byte-identical to [isf profile] by
    construction. *)

type trigger =
  | Counter of { interval : int; jitter : int }
  | Counter_per_thread of { interval : int }
  | Timer_bit
  | Always
  | Never

type t = {
  bench : string;
  scale : int option;  (** [None] = the benchmark's default scale *)
  variant : string;  (** key into {!variants} *)
  specs : string list;  (** non-empty; keys into {!instr_kinds} *)
  trigger : trigger;
  engine : [ `Ref | `Fast ];
  recording : [ `Slots | `Legacy ];
  poison : bool;
      (** deliberately broken: {!execute} raises a bug-classified
          failure instead of running — the injection hook chaos fleets
          and quarantine tests use *)
}

val instr_kinds : (string * Core.Spec.t) list
(** CLI-name table for instrumentations, shared with [bin/isf.ml]. *)

val variants : (string * (Core.Spec.t -> Ir.Lir.func -> Core.Transform.result)) list
(** CLI-name table for transformation variants, shared with [bin/isf.ml]. *)

val spec_of_names : string list -> Core.Spec.t
(** Combine named specs; [[]] defaults to call-edge + field-access. *)

val transform_of_variant :
  Core.Spec.t -> string -> Ir.Lir.func -> Core.Transform.result

val render : t -> string
(** The canonical line: every field present, fixed order. *)

val parse : string -> t
(** Inverse of {!render}; raises [Failure "bad job ..."] on anything
    malformed (unknown variant/spec/trigger/engine, bad scale).  An
    unknown {e benchmark} parses fine and fails at execution time,
    classified ["bug"] — a poison job, exactly what the quarantine is
    for. *)

val digest : t -> string
(** MD5 hex of {!render} — the job's content identity (client-free). *)

type summary = {
  cycles : int;
  instructions : int;
  checks : int;
  samples : int;
  output_md5 : string;
  profile_md5 : string;
      (** MD5 over the decoded collector's CSV rendering — deterministic
          and engine/recording-invariant (PR 4) *)
}

val execute : ?config:Harness.Measure.config -> t -> summary
(** Run the job through {!Harness.Measure.run_transformed} (content
    cached) under [config] (default {!Harness.Measure.default}) with its
    engine and recording replaced by the job's own: the job line names
    those two, while chaos and the watchdog are the daemon's (its
    journal meta records them).  Raises on failure;
    {!Harness.Robust.classify} applies. *)

val execute_full :
  ?config:Harness.Measure.config -> t -> summary * Profiles.Merge.t
(** {!execute}, plus the canonical aggregate form of the decoded
    profile — the payload of the daemon's [PROFILE] frames and the
    unit {!Fleet} merges.  A warm run-cache hit still yields it (the
    cached metrics carry the collector), so nothing re-runs. *)

type status =
  | Done of summary
  | Failed of { classification : string; message : string }
  | Quarantined of { message : string }

val result_line : id:int -> t -> status -> string
(** The canonical result line ["<id> <digest> OK ..."].  Free of
    attempt counts, timestamps and worker ids, so a fleet's sorted
    result lines are byte-identical however jobs were scheduled,
    retried, or resumed after a crash. *)
