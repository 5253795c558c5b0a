(** Measurement plumbing shared by every experiment driver.

    A [build] is a benchmark compiled through the baseline pipeline
    (optimizer + yieldpoints).  Experiment drivers re-transform its
    post-frontend LIR and run the VM with the instruction cache model on,
    comparing cycle counts against the baseline run of the same build —
    the analog of the paper's "overhead relative to the original,
    non-instrumented code". *)

type build = {
  bench : Workloads.Suite.benchmark;
  scale : int;
  classes : Bytecode.Classfile.program;
  base_funcs : Ir.Lir.func list; (* optimized, yieldpoints inserted *)
}

val prepare : ?scale:int -> Workloads.Suite.benchmark -> build
(** Memoized per (benchmark, scale). *)

val set_engine : [ `Ref | `Fast ] -> unit
(** Select the VM execution engine every subsequent measurement runs on
    (default [`Fast]).  The engines are bit-identical (see {!Vm.Engine}),
    so results are engine-invariant; caches are still keyed by the engine
    so explicit per-call overrides never alias. *)

val current_engine : unit -> [ `Ref | `Fast ]

val set_recording : [ `Slots | `Legacy ] -> unit
(** Select the profile recording path (default [`Slots]): flat-slot
    recording ({!Profiles.Slots} — compile-time event resolution,
    preallocated buffers, end-of-run decode) or the legacy
    event-by-event hook dispatch kept as the differential oracle.  The
    paths are bit-identical — cycles, counters and every decoded profile
    table — so every published number is recording-invariant. *)

val current_recording : unit -> [ `Slots | `Legacy ]

val set_chaos : int option -> unit
(** Arm ([Some seed]) or disarm ([None], the default) chaos mode: every
    subsequent measurement runs under a deterministic {!Fault.plan}
    derived from the seed and the cell's (benchmark, scale) — and only
    those, so results are independent of worker count and execution
    order.  With chaos off, runs are bit-identical to a build without
    fault injection at all. *)

val set_watchdog : float -> unit
(** Per-measurement wall-clock budget in seconds (default 600).  A cell
    exceeding it aborts with a watchdog {!Vm.Interp.Runtime_error}
    (classified ["timeout"] by {!Robust}).  [<= 0] disables the watchdog
    and the VM never reads the clock. *)

type metrics = {
  cycles : int;
  instructions : int;
  checks : int;
  samples : int;
  entries : int;
  backedge_yps : int;
  instrument_ops : int;
  output : string;
  code_words : int; (* linked code size, in instruction words *)
  collector : Profiles.Collector.t;
  fallbacks : (string * string) list;
      (* methods the engine degraded to the interpreter for (see
         {!Vm.Engine}); [] unless compilation failed or was
         fault-injected to fail *)
}

val run_baseline : ?engine:[ `Ref | `Fast ] -> build -> metrics
(** The denominator of every overhead figure.  [engine] defaults to
    {!current_engine}.  Cached through {!Runcache} under the canonical
    run key ({!Digest.run_config}), so a baseline is measured once per
    content-identical configuration — across every table driver, every
    domain, and (with [--cache]) every process. *)

val run_transformed :
  ?engine:[ `Ref | `Fast ] ->
  ?recording:[ `Slots | `Legacy ] ->
  ?trigger:Core.Sampler.trigger ->
  ?timer_period:int ->
  transform:(Ir.Lir.func -> Core.Transform.result) ->
  build ->
  metrics
(** Applies [transform] to every function of the build (backend passes
    afterwards are not re-run: overhead measurement isolates the
    framework), links, and runs with a fresh collector.  Default trigger
    is [Never] (framework-overhead configurations).  [recording]
    overrides {!current_recording} for this run only — service jobs
    ({!Serve}) carry their own recording path and must not mutate the
    session-wide setting under concurrent siblings.  Cached through
    {!Runcache} keyed by the digest of the transformed code plus the
    full run configuration, so identical cells requested by different
    drivers execute once.  Failing runs (chaos faults, watchdog) are
    never cached. *)

type adaptive_metrics = {
  am : metrics;  (* the run's ordinary metrics (profile decoded at exit) *)
  instr_cycles : int;  (* instrumentation cycles, included in am.cycles *)
  achieved_overhead_pct : float;
      (* {!Adaptive.Budget.overhead} of the whole run — the quantity the
         governor steered against its budget *)
  decisions : string list;  (* controller decision log, oldest first *)
  polls : int;
}

val run_adaptive :
  ?engine:[ `Ref | `Fast ] ->
  ?trigger:Core.Sampler.trigger ->
  ?timer_period:int ->
  ?config:Adaptive.Controller.config ->
  transform:(Ir.Lir.func -> Core.Transform.result) ->
  build ->
  adaptive_metrics
(** Like {!run_transformed}, but with the adaptive loop armed
    ({!Adaptive.Controller}): the run records through flat slots
    (regardless of {!set_recording} — the controller reads the live
    profile from the recorder), polls the controller at safepoints, and
    hot-swaps recompiled method versions mid-run.  Default [trigger] is
    [Counter 64] (the loop needs samples to steer by).  Cached like
    every other measurement, keyed additionally by the rendered
    controller config. *)

val adaptive_wall :
  ?engine:[ `Ref | `Fast ] ->
  ?trigger:Core.Sampler.trigger ->
  ?timer_period:int ->
  ?config:Adaptive.Controller.config ->
  transform:(Ir.Lir.func -> Core.Transform.result) ->
  build ->
  float
(** One {e uncached} adaptive execution, returning its wall-clock
    seconds (link + run).  {!run_adaptive} flows through the run cache,
    so timing it measures the cache; bench drivers that want honest
    wall-clock numbers time this instead.  Simulated observables are
    identical to {!run_adaptive} with the same configuration. *)

val overhead_pct : base:metrics -> metrics -> float
(** Percent overhead in cycles relative to [base]. *)

val check_output : base:metrics -> metrics -> unit
(** Raises [Failure] when the transformed run printed something different —
    every experiment doubles as a semantics test. *)

val compile_stats :
  transform:(Ir.Lir.func -> Core.Transform.result) ->
  build ->
  Opt.Pipeline.compile_stats * Opt.Pipeline.compile_stats
(** (baseline, transformed) wall-clock pipeline timings, median of 5. *)
