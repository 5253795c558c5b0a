(** Global deduplicating cell scheduler.

    Each table/figure driver can describe the measurements its cells
    will perform as pure-data {!run} values ([requests] in each driver
    module).  Before [isf table all] / [isf ablation] executes the
    drivers, {!prewarm} collects every driver's list, drops the
    duplicates (baselines requested by all seven drivers, perfect
    profiles shared between Table 4, Figure 7 and the ablations, …) and
    executes the deduplicated set through {!Pool}.  Because every
    measurement is content-cached ({!Measure} via {!Runcache}), the
    drivers then run unchanged and find their cells already computed —
    their printed output stays byte-identical to an unscheduled run,
    while each distinct measurement executes exactly once.

    A {!run} deliberately mirrors what the driver will ask {!Measure}
    for — same spec construction, same trigger, same timer period — so
    its cache key is identical to the driver's.  Runs that depend on a
    previous measurement's result (Table 5's matched counter interval)
    cannot be described up front and are simply not requested; the
    driver computes them on demand as before. *)

type variant =
  | Exhaustive
  | Full_dup
  | Partial_dup
  | No_dup
  | Yp_opt  (** full duplication with the yieldpoint optimization *)
  | Checks_only of { entries : bool; backedges : bool }

type run =
  | Baseline of { bench : string; scale : int option }
  | Instrumented of {
      bench : string;
      scale : int option;
      variant : variant;
      specs : string list;
          (** instrumentation spec names in order, e.g.
              [["call-edge"; "field-access"]]; ignored by [Checks_only] *)
      trigger : Core.Sampler.trigger;
      timer_period : int option;
    }

val baseline : ?scale:int -> string -> run

val instrumented :
  ?scale:int ->
  ?trigger:Core.Sampler.trigger ->
  ?timer_period:int ->
  variant:variant ->
  specs:string list ->
  string ->
  run
(** [trigger] defaults to [Never], like {!Measure.run_transformed}. *)

val dedupe : run list -> run list
(** Structural deduplication, stable (first occurrence wins). *)

val execute : ?config:Measure.config -> run -> unit
(** Perform one run through {!Measure} under [config] (default
    {!Measure.default}), publishing it to the run cache;
    the measured value is discarded here and picked up by whichever
    driver cell asks for the same configuration. *)

val prewarm : ?config:Measure.config -> ?jobs:int -> run list -> unit
(** Dedupe and execute through {!Pool}.  Failures (chaos faults,
    watchdog) are swallowed: a failing run publishes nothing, and the
    owning driver cell will re-run it under {!Robust.cell} with proper
    retry/classify/report behavior. *)
