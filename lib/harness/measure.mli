(** Measurement plumbing shared by every experiment driver.

    A [build] is a benchmark compiled through the baseline pipeline
    (optimizer + yieldpoints).  Experiment drivers re-transform its
    post-frontend LIR and run the VM with the instruction cache model on,
    comparing cycle counts against the baseline run of the same build —
    the analog of the paper's "overhead relative to the original,
    non-instrumented code". *)

type config = {
  engine : [ `Ref | `Fast ];
      (** VM execution engine.  The engines are bit-identical (see
          {!Vm.Engine}), so no number depends on it; the run key still
          names it, so differential runs never alias. *)
  recording : [ `Slots | `Legacy ];
      (** Profile recording path: flat slots ({!Profiles.Slots}) or the
          legacy event-by-event hooks kept as the differential oracle.
          Bit-identical too, and keyed for the same reason. *)
  chaos : int option;
      (** [Some seed] runs every measurement under a deterministic
          {!Fault.plan} derived from the seed and the build's
          (benchmark, scale) only, so results do not depend on worker
          count or order.  [None]: no fault injection at all. *)
  watchdog : float;
      (** Per-measurement wall-clock budget in seconds; a run over it
          fails with a watchdog {!Vm.Interp.Runtime_error} (classified
          ["timeout"] by {!Robust}).  [<= 0] disables it and the VM never
          reads the clock.  Not in the run key: it can only turn a run
          into a failure, and failures are never cached. *)
}
(** Everything besides the build and the transform that a measurement
    depends on.  Engine, recording and the chaos fault plan enter the
    run key ({!Digest.run_config}); see DESIGN.md §8 for which fields
    the checkpoint meta, the serve journal meta and the job line
    carry. *)

val default : config
(** [`Fast], [`Slots], no chaos, a 600 s watchdog. *)

val scope : ?config:config -> ?scale:int -> unit -> string
(** The {!Robust.cell} scope of cells measured under [config] (default
    {!default}) at [scale] (default 0, each benchmark's own): drivers
    pass it so completed cells of one configuration never answer for
    another in the same process. *)

type build = {
  bench : Workloads.Suite.benchmark;
  scale : int;
  classes : Bytecode.Classfile.program;
  base_funcs : Ir.Lir.func list; (* optimized, yieldpoints inserted *)
  config : config;  (** what every run of this build is measured under *)
}

val prepare :
  ?config:config -> ?scale:int -> Workloads.Suite.benchmark -> build
(** The compiled part is memoized per (benchmark, scale); [config]
    (default {!default}) is attached to the returned build. *)

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

val run_baseline : build -> metrics
(** The denominator of every overhead figure.  Cached through
    {!Runcache} under the canonical run key ({!Digest.run_config}), so
    a baseline is measured once per content-identical configuration —
    across every table driver, every domain, and (with [--cache]) every
    process. *)

val run_transformed :
  ?trigger:Core.Sampler.trigger ->
  ?timer_period:int ->
  transform:(Ir.Lir.func -> Core.Transform.result) ->
  build ->
  metrics
(** Applies [transform] to every function of the build (backend passes
    afterwards are not re-run: overhead measurement isolates the
    framework), links, and runs with a fresh collector.  Default trigger
    is [Never] (framework-overhead configurations).  Cached through
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
  ?trigger:Core.Sampler.trigger ->
  ?timer_period:int ->
  ?config:Adaptive.Controller.config ->
  transform:(Ir.Lir.func -> Core.Transform.result) ->
  build ->
  adaptive_metrics
(** Like {!run_transformed}, but with the adaptive loop armed
    ({!Adaptive.Controller}): the run records through flat slots
    (whatever the build's [config.recording] — the controller reads the live
    profile from the recorder), polls the controller at safepoints, and
    hot-swaps recompiled method versions mid-run.  Default [trigger] is
    [Counter 64] (the loop needs samples to steer by).  Cached like
    every other measurement, keyed additionally by the rendered
    controller config.  [config] here is the controller's, not the
    measurement {!config}. *)

val adaptive_wall :
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
