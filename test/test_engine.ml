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
   too — those cuts also land next to fused runs, driving their
   precheck into the word-by-word fallback.

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
   value.  A fresh link, collector and sampler per run: engines must
   agree starting from identical cold state.  [traces] arms the
   trace-recording tier (Fast only) with a low threshold so the small
   generated loops actually turn hot; [recording] selects the legacy
   event-by-event collector or the flat-slot recorder — traced
   execution must be bit-identical under both. *)
let observe ~engine ?(fuel = 200_000_000) ?trace_threshold
    ?(recording = `Legacy) classes funcs trigger =
  let prog = Vm.Program.link classes ~funcs in
  let sampler = Core.Sampler.create trigger in
  let hooks, recorder, decode =
    match recording with
    | `Legacy ->
        let c = Profiles.Collector.create () in
        (Profiles.Collector.hooks c sampler, None, fun () -> c)
    | `Slots ->
        let s = Profiles.Slots.create prog in
        ( Profiles.Slots.hooks s sampler,
          Some (Profiles.Slots.recorder s),
          fun () -> Profiles.Slots.decode s )
  in
  let res =
    Vm.Interp.run ~engine ~fuel ~use_icache:true ~use_dcache:true
      ?recorder ?trace_threshold prog
      ~entry:{ Lir.mclass = "Main"; mname = "main" }
      ~args:[ 5 ] hooks
  in
  let collector = decode () in
  let c = res.Vm.Interp.counters in
  ( ( res.Vm.Interp.return_value,
      res.Vm.Interp.output,
      res.Vm.Interp.cycles,
      res.Vm.Interp.instructions ),
    ( c.Vm.Interp.entries,
      c.Vm.Interp.backedge_yps,
      c.Vm.Interp.entry_yps,
      c.Vm.Interp.checks,
      c.Vm.Interp.samples,
      c.Vm.Interp.thread_switches,
      c.Vm.Interp.instrument_ops ),
    (res.Vm.Interp.icache_misses, res.Vm.Interp.dcache_misses),
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
              ( "Fast+traces",
                observe ~engine:`Fast ~trace_threshold:3 classes funcs'
                  trigger );
              ( "Fast+traces/slots",
                observe ~engine:`Fast ~trace_threshold:3 ~recording:`Slots
                  classes funcs' trigger );
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

(* Cut a run short at [cuts] points spread over its reference cycle
   count: every engine configuration must stop with the same outcome —
   the same result tuple if the cut falls past the end, else the same
   out-of-fuel message, whose pc is exact on both engines. *)
let low_fuel_agree () =
  let rand = Random.State.make [| 0xF0E1 |] in
  let progs = QCheck.Gen.generate ~n:5 ~rand Gen_jasm.program in
  let trigger = Core.Sampler.Counter { interval = 3; jitter = 0 } in
  let cuts = 4 in
  let outcome f =
    match f () with
    | obs -> Ok obs
    | exception Vm.Interp.Runtime_error msg -> Error msg
  in
  List.iter
    (fun p ->
      let classes, funcs = compile (Gen_jasm.render p) in
      List.iter
        (fun (tname, transform) ->
          let funcs' = instrument transform funcs in
          let total =
            let (_, _, cycles, _), _, _, _ =
              observe ~engine:`Ref classes funcs' trigger
            in
            cycles
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
                ( "Fast+traces/slots",
                  fun () ->
                    observe ~engine:`Fast ~fuel ~trace_threshold:3
                      ~recording:`Slots classes funcs' trigger );
              ]
          done)
        transforms)
    progs

let suite =
  [
    ( "engine",
      Alcotest.test_case "Fast == Ref on seeded programs" `Quick seeded_agree
      :: Alcotest.test_case "Fast == Ref at low-fuel cut points" `Quick
           low_fuel_agree
      :: List.map
           (QCheck_alcotest.to_alcotest ~long:false)
           [ engines_agree ] );
  ]
