(** Deterministic LIR interpreter with a cycle-cost model.

    Executes a linked {!Program.t} under green threads with
    yieldpoint-driven scheduling and a simulated timer device, counting
    cycles per the {!Costs} model (plus i-cache misses when enabled).

    Instrumentation is dispatched through {!hooks}: the VM never interprets
    instrumentation payloads itself, keeping this library independent of
    the sampling framework (the [core] library supplies the hooks).

    Two execution engines share one machine ({!Machine}): [`Ref], the
    reference interpreter (this module's [step]), and [`Fast], the
    closure-compiled engine ({!Engine}), whose one compiled form is a
    per-word closure chain.  They are observationally
    bit-identical — same results, counters, cache misses, hook call
    sequence and errors — which test/test_engine.ml enforces
    differentially; [`Fast] is the default. *)

type counters = Machine.counters = {
  mutable entries : int; (* method invocations + thread entries *)
  mutable backedge_yps : int; (* backedge yieldpoints executed *)
  mutable entry_yps : int; (* entry yieldpoints executed *)
  mutable checks : int; (* sampling checks executed (incl. guarded ops) *)
  mutable samples : int; (* checks whose sample condition fired *)
  mutable thread_switches : int;
  mutable instrument_ops : int; (* instrumentation operations executed *)
}

(** Context handed to the instrumentation hook. *)
type ctx = Machine.ctx = {
  cur : Ir.Lir.method_ref; (* method containing the op *)
  caller : (Ir.Lir.method_ref * int) option; (* caller and its call site *)
  eval : Ir.Lir.operand -> int; (* evaluate an operand in the frame *)
  frame_id : int; (* unique id of the activation (per-frame profile state) *)
  class_of : int -> string option;
      (* runtime class of a reference value ([None] for null/arrays) *)
  stack : unit -> (Ir.Lir.method_ref * int) list;
      (* the current calling context, innermost first: each entry is a
         method and the call site in ITS caller (-1 for thread roots);
         used by stack-walking instrumentation such as calling-context
         trees *)
}

type hooks = Machine.hooks = {
  fire : int -> bool;
      (* [fire tid]: the sample condition of the paper's check (Figure 3).
         Called once per executed check; a [true] result diverts execution
         into the duplicated code / runs the guarded op. *)
  on_timer_tick : unit -> unit;
      (* called on every timer interrupt (time-based trigger support) *)
  on_instrument : ctx -> Ir.Lir.instrument_op -> unit;
  instr_cost : Ir.Lir.instrument_op -> int;
}

val null_hooks : hooks
(** Never samples, ignores instrumentation (cost 0). *)

exception Runtime_error of string

type result = Machine.result = {
  return_value : int option; (* of the initial thread's entry method *)
  cycles : int;
  instructions : int;
  counters : counters;
  icache_misses : int;
  dcache_misses : int;
  output : string; (* everything printed, for semantic comparisons *)
  fallbacks : (string * string) list;
      (* methods the fast engine degraded to the interpreter for, with the
         reason; [] on [`Ref] and whenever every method compiled *)
  instr_cycles : int;
      (* cycles charged by instrumentation machinery (checks, sample
         jumps, yieldpoints, instrument ops); included in [cycles].  The
         adaptive governor steers this against its overhead budget. *)
}

val run :
  ?engine:[ `Ref | `Fast ] ->
  ?fuel:int ->
  ?use_icache:bool ->
  ?use_dcache:bool ->
  ?costs:Costs.t ->
  ?timer_period:int ->
  ?seed:int ->
  ?faults:Fault.plan ->
  ?label:string ->
  ?deadline:float ->
  ?deadline_poll:int ->
  ?recorder:Machine.flat_recorder ->
  ?on_init:(Machine.state -> unit) ->
  Program.t ->
  entry:Ir.Lir.method_ref ->
  args:int list ->
  hooks ->
  result
(** [engine] selects the execution engine (default [`Fast], the
    closure-compiled {!Engine}; [`Ref] is the reference interpreter kept
    as the differential oracle — both produce bit-identical results).
    [fuel] bounds executed cycles (default 4e9; exceeding it raises
    {!Runtime_error}).  [timer_period] is the simulated timer-interrupt
    period in cycles (default 100_000 — "10ms" at the DESIGN.md scale of
    10k cycles/ms).  [seed] seeds the deterministic [rand] intrinsic.

    Robustness knobs: [faults] (default {!Fault.none}) schedules
    deterministic fault injection — both engines apply plan events at
    identical cycle counts, and methods the plan fails compilation for
    make [`Fast] degrade per-method to the interpreter while staying
    bit-identical.  [label] names the benchmark/config in error
    messages.  [deadline] is an absolute [Unix.gettimeofday] time after
    which the run aborts with a watchdog {!Runtime_error}, polled every
    [deadline_poll] cycles (default 5e7); without [deadline] the clock
    is never read and runs stay deterministic.

    [recorder] enables flat-slot recording ({!Machine.flat_recorder},
    built by [Profiles.Slots]): instrument ops whose [slot] is resolved
    record through preallocated buffers instead of [hooks.on_instrument];
    unresolved ops still use the hooks.  Both engines share the recording
    path, and the decoded profiles are bit-identical to the legacy
    event-by-event collector. *)
