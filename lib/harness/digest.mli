(** Canonical, content-addressed digests for run configurations.

    Every measurement the harness performs is fully determined by pure
    data: the linked program (itself determined by the benchmark, the
    scale and the instrumentation transform applied to its functions),
    the execution engine, the recording path, the sampling trigger, the
    cost table and the fault plan.  This module renders each of those to
    a canonical string and combines them into a single multi-line run
    key.  The full key — not its hash — is what the in-memory cache is
    indexed by, so in-process lookups can never collide; the MD5 of the
    key only names the on-disk entry file, and {!Runcache} stores the
    full key inside the entry and verifies it on every read (a
    parse-clean entry whose embedded key differs is reported loudly as
    a collision rather than silently served).

    Deliberately excluded from the key: the watchdog deadline and the
    fuel bound.  Both only affect {e failing} runs, and failures are
    never cached — a cached entry always holds a successful
    measurement.  Deliberately included even though today's code would
    tolerate merging them: the engine and the recording path, so the
    differential tests (Ref vs Fast, Legacy vs Slots) can never be fed
    each other's cached results. *)

val hex : string -> string
(** MD5 of a string, as 32 lowercase hex characters. *)

val funcs : Ir.Lir.func list -> string
(** Digest of a list of LIR functions in order, over their canonical
    pretty-printed form ({!Ir.Pp.func_to_string}).  The printer covers
    every semantically relevant field (including instrumentation hooks
    and payloads) and none of the VM's mutable scratch state, so two
    programs digest equal iff they execute identically. *)

val costs : Vm.Costs.t -> string
(** Canonical [field=value] rendering of the whole cost table. *)

val trigger : Core.Sampler.trigger -> string
(** Canonical rendering, e.g. ["counter:1000:0"], ["timer-bit"]. *)

val fault_plan : Fault.plan -> string
(** ["none"] for the empty plan, otherwise a digest over the plan's
    canonical serialization (seed, every event, the compile-failure
    set) — chaos runs therefore never alias clean runs, and two chaos
    runs alias only when their whole fault schedule is identical. *)

val run_config :
  ?adaptive:string ->
  kind:string ->
  bench:string ->
  scale:int ->
  funcs_digest:string ->
  engine:string ->
  recording:string ->
  trigger:string ->
  timer_period:int option ->
  costs:string ->
  faults:string ->
  unit ->
  string
(** The full canonical run key: one [field=value] line per component,
    prefixed with a format-version line so a change to the key schema
    can never be confused with an older one.  [adaptive] (the rendered
    controller configuration) is appended as an extra line only when
    the adaptive loop is on — keys of non-adaptive runs are
    byte-identical to what they were before the adaptive tier existed,
    so warm on-disk caches stay valid. *)
