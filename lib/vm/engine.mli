(** Closure-compiled execution engine.

    Translates each {!Program.meth} once into flat arrays of preallocated
    closures — operands resolved to register indices/immediates, field and
    static offsets, class ids, call targets and switch tables looked up at
    compile time — and runs the same {!Machine.state} as the reference
    interpreter.  Each word is one closure that ends with the
    dispatcher's per-word preamble for its successor and tail-calls it:
    the per-word chain is the engine's only compiled form.

    The engine is observationally {e bit-identical} to [Interp.step]'s
    loop: same return value, cycles, instruction count, event counters,
    i-/d-cache misses, instrumentation-hook call sequence, and the same
    errors at the same points (see DESIGN.md §5 and test/test_engine.ml
    for the equivalence argument and its differential enforcement).

    Compiled code is cached on the program ({!Program.engine_cache})
    behind a per-method {!Sync.Memo}, so concurrent domains compile each
    method exactly once and runs after the first reuse it.

    Degradation: a method whose compilation raises — or that the run's
    {!Fault.plan} says must fail to compile — falls back {e per method}
    to the reference [Machine.step], preserving bit-identical results;
    each degraded method is recorded once in the result's [fallbacks]. *)

val exec : Machine.state -> unit
(** Run the machine to completion ([st.alive = 0]), exactly like the
    reference interpreter's driver loop.  Raises {!Machine.Runtime_error}
    on the same faults (including fuel exhaustion) with identical
    messages. *)

val hot_swap : Machine.state -> Program.meth -> unit
(** Adaptive hot-swap (DESIGN.md §9): install a recompiled version of a
    method as the current one.  The new version must keep the old [id],
    [mref] and [n_args]; only [func] and [code_addr] may differ.  Future
    calls and dispatches run the new version; activations alive at the
    swap finish on the version their frame pins (old compiled code is
    kept in the program's compiled image).  Must be called from a
    safepoint — the adaptive poll ({!Machine.state.adaptive_poll}) — on
    a single-domain run.  Works on both engines: with no compiled image
    (reference engine) the method-table write is the whole swap. *)
