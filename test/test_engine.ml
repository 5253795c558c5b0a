(* Differential testing of the closure-compiled engine (`Fast) against
   the reference interpreter (`Ref).

   The two engines must be observationally BIT-IDENTICAL, not merely
   semantically equivalent: same return value and printed output, same
   cycle and instruction counts, same event counters (entries,
   yieldpoints, checks, samples, thread switches, instrumentation ops),
   same i-/d-cache miss counts, and — because instrumentation hooks fire
   in program order with full contexts — the same decoded profiles
   (call edges, field accesses, Ball–Larus paths).

   Every random program is run under every transform of the paper
   (exhaustive, Full-, Partial-, No-Duplication, and the
   yieldpoint-sharing optimization) crossed with every trigger
   (always/never/counter/jittered/per-thread/timer), with both caches
   enabled, and the full observation tuples are compared with
   structural equality.  A low-fuel sweep cuts each seeded program at a
   few points of its run and compares the whole outcome, so the fuel
   error's message (which names the pc the run stopped at) must agree
   too, which pins where each word's fuel check sits in the chain.

   Quick/Slow split (PR 1 convention): the quick pass replays a few
   seeded programs; the QCheck property (100 random programs) registers
   as `Slow and runs under `make ci`. *)

module Lir = Ir.Lir

(* call-edge + field-access + Ball–Larus paths: together these record
   every hook invocation the transforms can emit, so profile equality
   pins the hook call sequence *)
let spec =
  Core.Spec.combine
    [ Core.Spec.call_edge; Core.Spec.field_access; Profiles.Specs.path_profile ]

let transforms =
  [
    ("baseline", None);
    ("exhaustive", Some (Core.Transform.exhaustive spec));
    ("full-dup", Some (Core.Transform.full_dup spec));
    ("partial-dup", Some (Core.Transform.partial_dup spec));
    ("no-dup", Some (Core.Transform.no_dup spec));
    ("yp-opt", Some (Core.Transform.full_dup_yieldpoint_opt spec));
  ]

let triggers =
  [
    ("always", Core.Sampler.Always);
    ("never", Core.Sampler.Never);
    ("counter-3", Core.Sampler.Counter { interval = 3; jitter = 0 });
    ("counter-7j2", Core.Sampler.Counter { interval = 7; jitter = 2 });
    ("per-thread-5", Core.Sampler.Counter_per_thread { interval = 5 });
    ("timer", Core.Sampler.Timer_bit);
  ]

let compile src =
  let classes = Jasm.Compile.compile_string src in
  let funcs = Opt.Pipeline.front (Bytecode.To_lir.program_to_funcs classes) in
  (classes, funcs)

let instrument transform funcs =
  match transform with
  | None -> funcs
  | Some t -> List.map (fun f -> (t f).Core.Transform.func) funcs

(* Everything observable from one run, as one structurally comparable
   value: the whole run result (return value, output, cycles,
   instructions, counters, i-/d-cache misses, fallbacks,
   instrumentation cycles) and the decoded profiles.  A fresh link,
   collector and sampler per run: engines must agree starting from
   identical cold state.  [recording] selects the legacy event-by-event
   collector or the flat-slot recorder.  [on_init_of sampler slots]
   attaches a controller at start-up and needs the flat-slot recorder.
   [faults] injects a chaos plan. *)
let observe ~engine ?(fuel = 200_000_000) ?(recording = `Legacy) ?on_init_of
    ?faults classes funcs trigger =
  let prog = Vm.Program.link classes ~funcs in
  let sampler = Core.Sampler.create trigger in
  let hooks, recorder, decode, on_init =
    match recording with
    | `Legacy ->
        let c = Profiles.Collector.create () in
        (Profiles.Collector.hooks c sampler, None, (fun () -> c), None)
    | `Slots ->
        let s = Profiles.Slots.create prog in
        ( Profiles.Slots.hooks s sampler,
          Some (Profiles.Slots.recorder s),
          (fun () -> Profiles.Slots.decode s),
          Option.map (fun f -> f sampler s) on_init_of )
  in
  let res =
    Vm.Interp.run ~engine ~fuel ~use_icache:true ~use_dcache:true
      ?recorder ?on_init ?faults prog
      ~entry:{ Lir.mclass = "Main"; mname = "main" }
      ~args:[ 5 ] hooks
  in
  let collector = decode () in
  ( res,
    ( List.sort compare
        (Profiles.Call_edge.to_keyed collector.Profiles.Collector.call_edges),
      List.sort compare
        (Profiles.Field_access.to_keyed collector.Profiles.Collector.fields),
      List.sort compare
        (Profiles.Path_profile.to_alist collector.Profiles.Collector.paths) ) )

(* [fail]: how to report a divergence (QCheck's fail_reportf for the
   property, Alcotest.fail for the quick seeded pass) *)
let check_program ~fail src =
  let classes, funcs = compile src in
  List.for_all
    (fun (tname, transform) ->
      let funcs' = instrument transform funcs in
      List.for_all
        (fun (sname, trigger) ->
          let oracle = observe ~engine:`Ref classes funcs' trigger in
          List.for_all
            (fun (vname, obs) ->
              if obs <> oracle then
                fail
                  (Printf.sprintf
                     "engines diverge (%s): transform %s under trigger %s"
                     vname tname sname)
              else true)
            [
              ("Fast", observe ~engine:`Fast classes funcs' trigger);
              ( "Fast/slots",
                observe ~engine:`Fast ~recording:`Slots classes funcs' trigger
              );
            ])
        triggers)
    transforms

let engines_agree =
  QCheck.Test.make ~count:100
    ~name:"engine: Fast == Ref (all transforms x triggers, both caches)"
    Gen_jasm.arbitrary_program
    (fun p ->
      check_program
        ~fail:(fun msg -> QCheck.Test.fail_reportf "%s" msg)
        (Gen_jasm.render p))

(* quick pass: same check on a handful of programs from a pinned seed *)
let seeded_agree () =
  let rand = Random.State.make [| 0xE51 |] in
  let progs = QCheck.Gen.generate ~n:5 ~rand Gen_jasm.program in
  List.iter
    (fun p ->
      ignore (check_program ~fail:Alcotest.fail (Gen_jasm.render p)))
    progs

(* quick pass on generated call-path programs (Gen_jasm.call_program):
   every arity from 0 to 6, static and virtual, deep recursion, reused
   stack slots whose method and register count change, and locals read
   before any write, so a callee frame must be zeroed exactly as the
   reference's [take_frame] zeroes it *)
let call_path_agree () =
  let rand = Random.State.make [| 0xCA11 |] in
  let progs = QCheck.Gen.generate ~n:4 ~rand Gen_jasm.call_program in
  List.iter (fun src -> ignore (check_program ~fail:Alcotest.fail src)) progs

(* ---- programs aimed at the call path and the i-cache miss path ---- *)

(* Virtual dispatch over three receiver classes, each call with four
   arguments: the virtual-call arm reads the receiver, dispatches, then
   reads the other arguments straight into the callee's registers. *)
let dispatch_src =
  {|
  class Shape {
    var w: int;
    fun area(a: int, b: int, c: int, d: int): int { return a + b + c + d; }
  }
  class Rect extends Shape {
    fun area(a: int, b: int, c: int, d: int): int {
      return this.w * a + b - c + d;
    }
  }
  class Tri extends Shape {
    fun area(a: int, b: int, c: int, d: int): int {
      return (this.w * b) / 2 + a * c - d;
    }
  }
  class Main {
    static fun pick(k: int): Shape {
      if (k == 0) { var r: Rect = new Rect; r.w = 3; return r; }
      if (k == 1) { var t: Tri = new Tri; t.w = 5; return t; }
      var s: Shape = new Shape;
      s.w = 7;
      return s;
    }
    static fun main(n: int): int {
      var a: Shape = Main.pick(0);
      var b: Shape = Main.pick(1);
      var c: Shape = Main.pick(2);
      var acc: int = 0;
      var i: int = 0;
      while (i < 300) {
        acc = acc + a.area(i, n, acc & 15, 2) + b.area(n, i, 3, acc & 7)
          + c.area(i, i, n, 1);
        acc = acc & 65535;
        i = i + 1;
      }
      print(acc);
      return acc;
    }
  }
|}

(* 64 straight-line methods of 60 statements each, called in turn three
   times: the hot code is larger than the 8K-word i-cache, so every
   round evicts the previous one and the probe's miss path runs on
   every line. *)
let big_code_methods = 64

let big_code_src =
  let lines = String.concat "\n" in
  let meth k =
    lines
      ([ Printf.sprintf "  static fun f%d(x: int): int {" k; "    var t: int = x;" ]
      @ List.init 60 (fun j ->
            Printf.sprintf "    t = (t * %d + %d) & 65535;" ((j mod 7) + 2) (k + j))
      @ [ "    return t;"; "  }" ])
  in
  lines
    ([ "class Main {" ]
    @ List.init big_code_methods meth
    @ [
        "  static fun main(n: int): int {";
        "    var s: int = n;";
        "    var r: int = 0;";
        "    while (r < 3) {";
      ]
    @ List.init big_code_methods (fun k -> Printf.sprintf "      s = Main.f%d(s);" k)
    @ [ "      r = r + 1;"; "    }"; "    print(s);"; "    return s;"; "  }"; "}" ])

(* Cut a run short at [cuts] points spread over its reference cycle
   count: every engine configuration must stop with the same outcome —
   the same result tuple if the cut falls past the end, else the same
   out-of-fuel message, whose pc is exact on both engines. *)
let low_fuel_agree () =
  let rand = Random.State.make [| 0xF0E1 |] in
  let progs =
    List.map Gen_jasm.render (QCheck.Gen.generate ~n:5 ~rand Gen_jasm.program)
    @ [ dispatch_src; big_code_src ]
  in
  let trigger = Core.Sampler.Counter { interval = 3; jitter = 0 } in
  let cuts = 4 in
  let outcome f =
    match f () with
    | obs -> Ok obs
    | exception Vm.Interp.Runtime_error msg -> Error msg
  in
  List.iter
    (fun src ->
      let classes, funcs = compile src in
      List.iter
        (fun (tname, transform) ->
          let funcs' = instrument transform funcs in
          let total =
            (fst (observe ~engine:`Ref classes funcs' trigger)).Vm.Interp.cycles
          in
          for k = 1 to cuts do
            let fuel = total * k / (cuts + 1) in
            let oracle =
              outcome (fun () ->
                  observe ~engine:`Ref ~fuel classes funcs' trigger)
            in
            List.iter
              (fun (vname, run) ->
                let got = outcome run in
                if got <> oracle then
                  let say = function Ok _ -> "completes" | Error m -> m in
                  Alcotest.failf
                    "engines diverge at fuel %d (%s): transform %s\n\
                     ref:  %s\n\
                     this: %s"
                    fuel vname tname (say oracle) (say got))
              [
                ( "Fast",
                  fun () ->
                    observe ~engine:`Fast ~fuel classes funcs' trigger );
                ( "Fast/slots",
                  fun () ->
                    observe ~engine:`Fast ~fuel ~recording:`Slots classes funcs'
                      trigger );
              ]
          done)
        transforms)
    progs

(* ---- whole results on those programs, and across a migration ---- *)

let slots_spec =
  Core.Spec.combine
    [
      Core.Spec.call_edge;
      Core.Spec.field_access;
      Core.Spec.edge_profile;
      Profiles.Specs.receiver_profile;
    ]

(* Fast == Ref on whole results, legacy and flat-slot recording, with
   plain instrument ops (exhaustive) and guarded ops (full-dup) *)
let targeted_agree () =
  let trigger = Core.Sampler.Counter { interval = 3; jitter = 0 } in
  List.iter
    (fun (pname, src) ->
      let classes, funcs = compile src in
      List.iter
        (fun (tname, transform) ->
          let funcs' = instrument transform funcs in
          List.iter
            (fun recording ->
              let oracle = observe ~engine:`Ref ~recording classes funcs' trigger in
              let got = observe ~engine:`Fast ~recording classes funcs' trigger in
              if got <> oracle then
                Alcotest.failf "%s: Fast diverges from Ref (transform %s, %s)"
                  pname tname
                  (match recording with `Legacy -> "legacy" | `Slots -> "slots"))
            [ `Legacy; `Slots ])
        [
          ("baseline", None);
          ("exhaustive", Some (Core.Transform.exhaustive slots_spec));
          ("full-dup", Some (Core.Transform.full_dup slots_spec));
        ])
    [ ("dispatch", dispatch_src); ("big-code", big_code_src) ];
  (* the big program really overflows the cache: more misses than the
     cache has lines *)
  let classes, funcs = compile big_code_src in
  let res, _ = observe ~engine:`Fast classes funcs trigger in
  if res.Vm.Interp.icache_misses <= 2 * 1024 then
    Alcotest.failf "big-code: only %d i-cache misses" res.Vm.Interp.icache_misses

(* A long-running loop whose virtual call the adaptive controller
   inlines: the running [main] frame migrates to the new version at a
   yieldpoint mid-loop (Machine.try_migrate).  The same run with
   migration disarmed must differ, or the case would not cover it. *)
let migrate_src =
  {|
  class W {
    var acc: int;
    fun step(k: int, m: int): int {
      this.acc = (this.acc + k * m) & 65535;
      return this.acc;
    }
  }
  class V extends W {
    fun step(k: int, m: int): int {
      this.acc = (this.acc - k + m) & 65535;
      return this.acc;
    }
  }
  class Main {
    static fun make(k: int): W {
      if (k == 0) { return new V; }
      return new W;
    }
    static fun main(n: int): int {
      var w: W = Main.make(n);
      var s: int = 0;
      var i: int = 0;
      while (i < 3000) {
        s = (s + w.step(i, n)) & 1048575;
        i = i + 1;
      }
      print(s);
      return s;
    }
  }
|}

let migration_agree () =
  let classes, funcs = compile migrate_src in
  let funcs =
    instrument (Some (Core.Transform.exhaustive Harness.Table_adaptive.spec)) funcs
  in
  let config =
    {
      Adaptive.Controller.default with
      Adaptive.Controller.poll_period = 4000;
      inline_threshold = 2;
      reorder_threshold = 4;
    }
  in
  let on_init_of ~migration sampler slots st =
    Adaptive.Controller.on_init
      (Adaptive.Controller.create ~config ~sampler slots)
      st;
    if not migration then st.Vm.Machine.migration <- false
  in
  let trigger = Core.Sampler.Counter { interval = 3; jitter = 0 } in
  let run engine migration =
    observe ~engine ~recording:`Slots ~on_init_of:(on_init_of ~migration)
      classes funcs trigger
  in
  let oracle = run `Ref true in
  if run `Fast true <> oracle then
    Alcotest.fail "migrating adaptive run: Fast diverges from Ref";
  if run `Fast false = oracle then
    Alcotest.fail "no frame migrated: the case does not cover try_migrate"

(* ---- late branch flips in hot loops ---- *)

(* Each loop runs dozens of iterations down one side of a branch, then
   takes the other side once, reading a register the loop body wrote
   every iteration.  Fast must agree with Ref on the whole outcome, and
   the return value must match the same computation done in OCaml, so a
   stale register after the flip changes the answer, not just the
   timing.  The nested variant flips inside a callee whose loop is
   re-entered from a hot outer loop. *)
let flat_src =
  {|
  class Main {
    static fun main(n: int): int {
      var s: int = 0;
      var i: int = 0;
      while (i < 100) {
        var a: int = i * 3 + n;
        var b: int = a + s;
        if (i == 97) { s = s + b * 7; } else { s = s + a; }
        i = i + 1;
      }
      print(s);
      return s + i;
    }
  }
|}

let flat_expected n =
  let s = ref 0 in
  for i = 0 to 99 do
    let a = (i * 3) + n in
    let b = a + !s in
    if i = 97 then s := !s + (b * 7) else s := !s + a
  done;
  !s + 100

let nested_src =
  {|
  class Main {
    static fun inner(k: int, lim: int): int {
      var t: int = 0;
      var j: int = 0;
      while (j < lim) {
        var u: int = j * 2 + k;
        if (u == 93) { t = t + u * 11; } else { t = t + u; }
        j = j + 1;
      }
      return t;
    }
    static fun main(n: int): int {
      var s: int = 0;
      var i: int = 0;
      while (i < 40) {
        s = s + Main.inner(i, 30 + (i % 3));
        i = i + 1;
      }
      print(s);
      return s;
    }
  }
|}

let nested_expected _n =
  let inner k lim =
    let t = ref 0 in
    for j = 0 to lim - 1 do
      let u = (j * 2) + k in
      if u = 93 then t := !t + (u * 11) else t := !t + u
    done;
    !t
  in
  let s = ref 0 in
  for i = 0 to 39 do
    s := !s + inner i (30 + (i mod 3))
  done;
  !s

let trigger_3 = Core.Sampler.Counter { interval = 3; jitter = 0 }

let late_flip_agree () =
  List.iter
    (fun (name, src, expected) ->
      let classes, funcs = compile src in
      let funcs =
        instrument (Some (Core.Transform.exhaustive slots_spec)) funcs
      in
      let oracle = observe ~engine:`Ref ~recording:`Slots classes funcs trigger_3 in
      let got = observe ~engine:`Fast ~recording:`Slots classes funcs trigger_3 in
      if got <> oracle then Alcotest.failf "%s: Fast diverges from Ref" name;
      let res, _ = got in
      Alcotest.(check (option int))
        (name ^ ": return value") (Some (expected 5)) res.Vm.Interp.return_value)
    [
      ("flat loop", flat_src, flat_expected);
      ("nested loop", nested_src, nested_expected);
    ]

(* ---- seeded chaos plans inside a hot loop ---- *)

(* Pseudo-random fault plans spread over the clean run's own cycle
   count, so traps, cache flushes, spurious timers and compile failures
   land while the loop is running.  Fast must observe every fault at
   the same cycle as Ref — the same whole outcome, or the same runtime
   error.  At least one plan must change the outcome, or the faults
   all missed the run and the case proves nothing. *)
let chaos_agree () =
  let classes, funcs = compile flat_src in
  let funcs = instrument (Some (Core.Transform.full_dup slots_spec)) funcs in
  let outcome ~engine ?faults () =
    match observe ~engine ~recording:`Slots ?faults classes funcs trigger_3 with
    | obs -> Ok obs
    | exception Vm.Interp.Runtime_error msg -> Error msg
  in
  let clean = outcome ~engine:`Ref () in
  let budget =
    match clean with
    | Ok (res, _) -> res.Vm.Interp.cycles
    | Error msg -> Alcotest.failf "clean run failed: %s" msg
  in
  let changed = ref 0 in
  List.iter
    (fun seed ->
      let faults = Fault.of_seed ~budget seed in
      let oracle = outcome ~engine:`Ref ~faults () in
      if outcome ~engine:`Fast ~faults () <> oracle then
        Alcotest.failf "chaos seed %d: Fast diverges from Ref" seed;
      if oracle <> clean then incr changed)
    [ 1; 2; 3; 42; 1234 ];
  if !changed = 0 then Alcotest.fail "no chaos plan changed the run"

(* ---- forced trips ---- *)

(* Every workload with the fuel gate tripping every few cycles: a
   7-cycle watchdog poll (its deadline an hour away), a 400k-cycle fuel
   limit, and 300 i-cache flushes on consecutive cycles from cycle 5000,
   each applied inside a trip.  A trip must run the full preamble, probe
   included, even for a word whose same-line probe the chain elides; a
   flush then sits between a word and its elided successor.  Fast must
   match Ref on cycles, instructions and i-cache misses, or on the
   out-of-fuel message, and the flushes must change at least one run. *)
let forced_trip_agree () =
  let flushes =
    Fault.make
      (List.init 300 (fun k ->
           { Fault.at_cycle = 5000 + k; action = Fault.Flush_icache }))
  in
  let changed = ref 0 in
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      let classes = Workloads.Suite.compile b in
      let funcs =
        Opt.Pipeline.front (Bytecode.To_lir.program_to_funcs classes)
      in
      let prog = Vm.Program.link classes ~funcs in
      let outcome ~engine faults =
        match
          Vm.Interp.run ~engine ~use_icache:true ~fuel:400_000 ~faults
            ~deadline:(Unix.gettimeofday () +. 3600.) ~deadline_poll:7 prog
            ~entry:Workloads.Suite.entry ~args:[ 1 ] Vm.Interp.null_hooks
        with
        | r ->
            Ok (r.Vm.Interp.cycles, r.Vm.Interp.instructions,
                r.Vm.Interp.icache_misses)
        | exception Vm.Interp.Runtime_error msg -> Error msg
      in
      let oracle = outcome ~engine:`Ref flushes in
      if outcome ~engine:`Fast flushes <> oracle then
        Alcotest.failf "%s: Fast diverges from Ref under forced trips"
          b.Workloads.Suite.bname;
      if oracle <> outcome ~engine:`Ref Fault.none then incr changed)
    Workloads.Suite.all;
  if !changed = 0 then Alcotest.fail "no workload felt the flushes"

(* ---- the timer due at every terminator ---- *)

(* Every workload, Full-Duplication instrumented (so blocks end in
   checks as well as gotos, branches, switches and returns), with a
   1-cycle timer period: every terminator step finds the timer due and
   takes its cold path.  Fast must match Ref on cycles, instructions,
   i-cache misses, output and counters (the whole run result), and the
   Fast runs must have ticked the timer more than 1,000 times. *)
let timer_every_terminator () =
  let ticks = ref 0 in
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      let classes = Workloads.Suite.compile b in
      let funcs =
        Opt.Pipeline.front (Bytecode.To_lir.program_to_funcs classes)
        |> instrument (Some (Core.Transform.full_dup spec))
      in
      let outcome ~engine =
        let prog = Vm.Program.link classes ~funcs in
        let c = Profiles.Collector.create () in
        let hooks =
          Profiles.Collector.hooks c (Core.Sampler.create trigger_3)
        in
        let hooks =
          if engine = `Fast then
            {
              hooks with
              Vm.Interp.on_timer_tick =
                (fun () ->
                  incr ticks;
                  hooks.Vm.Interp.on_timer_tick ());
            }
          else hooks
        in
        match
          Vm.Interp.run ~engine ~use_icache:true ~timer_period:1 prog
            ~entry:Workloads.Suite.entry ~args:[ 1 ] hooks
        with
        | r -> Ok r
        | exception Vm.Interp.Runtime_error msg -> Error msg
      in
      let oracle = outcome ~engine:`Ref in
      (match oracle with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" b.Workloads.Suite.bname msg);
      if outcome ~engine:`Fast <> oracle then
        Alcotest.failf "%s: Fast diverges from Ref with the timer always due"
          b.Workloads.Suite.bname)
    Workloads.Suite.all;
  if !ticks <= 1000 then
    Alcotest.failf "only %d timer ticks: the cold paths were not exercised"
      !ticks

(* ---- adaptive hot-swap between calls ---- *)

(* Aggressive controller thresholds (as in Test_adaptive) so the small
   program inlines and reorders mid-run: [hot] is re-entered sixty
   times, and each call after a hot_swap must run the new version's
   compiled code, not a stale chain.  Fast must agree with Ref under the
   same controller config, and the controller must have acted. *)
let adaptive_src =
  {|
  class W {
    var acc: int;
    fun step(k: int): int {
      this.acc = this.acc + k;
      return this.acc;
    }
  }
  class Main {
    static fun hot(w: W, lim: int): int {
      var j: int = 0;
      var t: int = 0;
      while (j < lim) {
        t = t + w.step(j);
        j = j + 1;
      }
      return t;
    }
    static fun main(n: int): int {
      var w: W = new W;
      var s: int = 0;
      var i: int = 0;
      while (i < 60) {
        s = s + Main.hot(w, 20 + (i % 5));
        i = i + 1;
      }
      print(s);
      return s;
    }
  }
|}

let hot_swap_agree () =
  let classes, funcs = compile adaptive_src in
  let funcs =
    instrument (Some (Core.Transform.exhaustive Harness.Table_adaptive.spec)) funcs
  in
  let config =
    {
      Adaptive.Controller.default with
      Adaptive.Controller.poll_period = 4000;
      inline_threshold = 2;
      reorder_threshold = 4;
    }
  in
  let run engine =
    let ctl = ref None in
    let on_init_of sampler slots =
      let c = Adaptive.Controller.create ~config ~sampler slots in
      ctl := Some c;
      Adaptive.Controller.on_init c
    in
    let obs = observe ~engine ~recording:`Slots ~on_init_of classes funcs trigger_3 in
    (obs, Option.fold ~none:[] ~some:Adaptive.Controller.decisions !ctl)
  in
  let oracle, ref_log = run `Ref in
  let got, fast_log = run `Fast in
  if got <> oracle then Alcotest.fail "adaptive run: Fast diverges from Ref";
  Alcotest.(check (list string)) "same decision log" ref_log fast_log;
  if ref_log = [] then Alcotest.fail "the controller never acted"

(* ---- allocation per call ---- *)

(* Steady-state calls and returns allocate nothing: the callee frame is
   the thread's next stack slot, the arguments go straight into its
   registers, and nothing is consed for the thread's bookkeeping.
   Measured as minor-heap words per loop iteration (one virtual call of
   [arity] arguments and its return) between two run lengths, so set-up
   and compilation cancel out; for every arity from 1 to 4. *)
let alloc_src arity =
  let params = List.init arity (Printf.sprintf "k%d: int") in
  let sum = String.concat " + " (List.init arity (Printf.sprintf "k%d")) in
  let args = String.concat ", " (List.init arity (fun j -> if j = 0 then "i" else string_of_int j)) in
  Printf.sprintf
    {|
  class C {
    var acc: int;
    fun add(%s): int { this.acc = this.acc + %s; return this.acc; }
  }
  class D extends C {
    fun add(%s): int { this.acc = this.acc - (%s); return this.acc; }
  }
  class Main {
    static fun make(k: int): C {
      if (k == 0) { return new D; }
      return new C;
    }
    static fun main(n: int): int {
      var c: C = Main.make(n);
      var s: int = 0;
      var i: int = 0;
      while (i < n) {
        s = s + c.add(%s);
        i = i + 1;
      }
      return s;
    }
  }
|}
    (String.concat ", " params) sum (String.concat ", " params) sum args

let alloc_per_call () =
  List.iter
    (fun arity ->
      let classes, funcs = compile (alloc_src arity) in
      let virtual_call =
        List.exists
          (fun (f : Lir.func) ->
            Ir.Vec.exists
              (fun (b : Lir.block) ->
                Array.exists
                  (function
                    | Lir.Call { kind = Lir.Virtual; args; _ } ->
                        List.length args = arity + 1
                    | _ -> false)
                  b.Lir.instrs)
              f.Lir.blocks)
          funcs
      in
      if not virtual_call then
        Alcotest.failf "the loop's call is not a %d-arg virtual call" arity;
      let prog = Vm.Program.link classes ~funcs in
      let words n =
        let w0 = Gc.minor_words () in
        ignore
          (Vm.Interp.run ~engine:`Fast ~use_icache:true prog
             ~entry:{ Lir.mclass = "Main"; mname = "main" }
             ~args:[ n ] Vm.Interp.null_hooks
            : Vm.Interp.result);
        Gc.minor_words () -. w0
      in
      ignore (words 100 : float) (* compile *);
      let n1 = 10_000 and n2 = 110_000 in
      let w1 = words n1 in
      let w2 = words n2 in
      let per_call = (w2 -. w1) /. float_of_int (n2 - n1) in
      if per_call > 0.5 then
        Alcotest.failf
          "%.2f minor words per %d-arg call and return (bound 0.5)" per_call
          arity)
    [ 1; 2; 3; 4 ]

let suite =
  [
    ( "engine",
      Alcotest.test_case "Fast == Ref on seeded programs" `Quick seeded_agree
      :: Alcotest.test_case "Fast == Ref on generated call-path programs"
           `Quick call_path_agree
      :: Alcotest.test_case "Fast == Ref at low-fuel cut points" `Quick
           low_fuel_agree
      :: Alcotest.test_case "Fast == Ref on dispatch and i-cache programs"
           `Quick targeted_agree
      :: Alcotest.test_case "Fast == Ref across a frame migration" `Quick
           migration_agree
      :: Alcotest.test_case "Fast == Ref when a hot loop's branch flips late"
           `Quick late_flip_agree
      :: Alcotest.test_case "Fast == Ref under seeded chaos plans" `Quick
           chaos_agree
      :: Alcotest.test_case "Fast == Ref under forced trips" `Quick
           forced_trip_agree
      :: Alcotest.test_case "Fast == Ref with the timer due at every terminator"
           `Quick timer_every_terminator
      :: Alcotest.test_case "Fast == Ref across adaptive hot-swaps" `Quick
           hot_swap_agree
      :: Alcotest.test_case "no allocation per call and return" `Quick
           alloc_per_call
      :: List.map
           (QCheck_alcotest.to_alcotest ~long:false)
           [ engines_agree ] );
  ]
