module Lir = Ir.Lir

type build = {
  bench : Workloads.Suite.benchmark;
  scale : int;
  classes : Bytecode.Classfile.program;
  base_funcs : Lir.func list;
}

(* Both caches are keyed per-key-locked (Sync.Memo): when experiment cells
   run on a domain pool, the first cell to need a (benchmark, scale) build
   compiles it while the others block, and every later cell reads the
   published, immutable value.  No build is ever compiled twice. *)
let build_cache : (string * int, build) Sync.Memo.t = Sync.Memo.create ()

let prepare ?(scale = 0) (bench : Workloads.Suite.benchmark) =
  let scale = if scale = 0 then bench.Workloads.Suite.default_scale else scale in
  let key = (bench.Workloads.Suite.bname, scale) in
  Sync.Memo.get build_cache key (fun () ->
      let classes = Workloads.Suite.compile bench in
      let base_funcs =
        Opt.Pipeline.front (Bytecode.To_lir.program_to_funcs classes)
      in
      { bench; scale; classes; base_funcs })

(* The execution engine every experiment runs on, settable once from the
   CLI (isf --engine).  The engines are bit-identical, so this can never
   change a number — EXPERIMENTS.md results are engine-invariant — but
   caches are still keyed by it so mixed-engine comparisons (bench, the
   differential suite) never alias. *)
let default_engine : [ `Ref | `Fast ] Atomic.t = Atomic.make `Fast

let set_engine e = Atomic.set default_engine e
let current_engine () = Atomic.get default_engine

(* The profile recording path (isf --recording).  [`Slots] (default)
   resolves every instrument op to a flat slot after linking and records
   through preallocated buffers (Profiles.Slots), decoding into the
   legacy collector structures at end of run; [`Legacy] is the original
   event-by-event hook dispatch, kept as the differential oracle.  The
   two are bit-identical — cycles, counters and every decoded profile
   table including iteration order — so results are recording-invariant
   (test/test_slots.ml enforces this differentially). *)
let recording : [ `Slots | `Legacy ] Atomic.t = Atomic.make `Slots

let set_recording r = Atomic.set recording r
let current_recording () = Atomic.get recording

(* Chaos mode (isf --chaos SEED): every measurement runs under a fault
   plan derived from the session seed and the cell's (benchmark, scale)
   — deliberately NOT from which table or worker asks, so concurrent
   cells measuring the same build inject the same faults and results
   stay independent of -j and of execution order. *)
let chaos : int option Atomic.t = Atomic.make None

let set_chaos s = Atomic.set chaos s

(* Per-cell wall-clock budget in seconds (isf --watchdog); <= 0 disables
   the deadline entirely (the clock is then never read). *)
let watchdog : float Atomic.t = Atomic.make 600.0

let set_watchdog s = Atomic.set watchdog s

let fault_plan build =
  match Atomic.get chaos with
  | None -> Fault.none
  | Some seed ->
      Fault.of_seed ~compile_fail_pct:25
        (seed
        lxor Hashtbl.hash (build.bench.Workloads.Suite.bname, build.scale))

type metrics = {
  cycles : int;
  instructions : int;
  checks : int;
  samples : int;
  entries : int;
  backedge_yps : int;
  instrument_ops : int;
  output : string;
  code_words : int;
  collector : Profiles.Collector.t;
  fallbacks : (string * string) list;
}

let metrics_of prog (res : Vm.Interp.result) collector =
  {
    cycles = res.Vm.Interp.cycles;
    instructions = res.Vm.Interp.instructions;
    checks = res.Vm.Interp.counters.Vm.Interp.checks;
    samples = res.Vm.Interp.counters.Vm.Interp.samples;
    entries = res.Vm.Interp.counters.Vm.Interp.entries;
    backedge_yps = res.Vm.Interp.counters.Vm.Interp.backedge_yps;
    instrument_ops = res.Vm.Interp.counters.Vm.Interp.instrument_ops;
    output = res.Vm.Interp.output;
    code_words = prog.Vm.Program.total_code_words;
    collector;
    fallbacks = res.Vm.Interp.fallbacks;
  }

(* How one run records its profile events: hooks (+ recorder for the
   flat path) built against the linked program, and a decode producing
   the collector afterwards.  [mk] runs after linking because slot
   resolution needs the resolved method ids. *)
type recording_instance = {
  r_hooks : Vm.Interp.hooks;
  r_recorder : Vm.Machine.flat_recorder option;
  r_decode : unit -> Profiles.Collector.t;
  r_on_init : (Vm.Machine.state -> unit) option;
      (* adaptive runs attach their controller here *)
}

let no_recording (_ : Vm.Program.t) =
  {
    r_hooks = Vm.Interp.null_hooks;
    r_recorder = None;
    r_decode = Profiles.Collector.create;
    r_on_init = None;
  }

let execute ?engine ?timer_period build funcs mk =
  let engine =
    match engine with Some e -> e | None -> Atomic.get default_engine
  in
  let prog = Vm.Program.link build.classes ~funcs in
  let recording = mk prog in
  let faults = fault_plan build in
  let label =
    let ctx = Robust.context () in
    if not (String.equal ctx "") then ctx
    else
      Printf.sprintf "%s (scale %d)" build.bench.Workloads.Suite.bname
        build.scale
  in
  let deadline =
    let w = Atomic.get watchdog in
    if w <= 0.0 then None else Some (Unix.gettimeofday () +. w)
  in
  let res =
    Vm.Interp.run ~engine ~use_icache:true ?timer_period ~faults ~label
      ?deadline ?recorder:recording.r_recorder ?on_init:recording.r_on_init
      prog
      ~entry:Workloads.Suite.entry ~args:[ build.scale ] recording.r_hooks
  in
  (metrics_of prog res (recording.r_decode ()), res)

(* Content-addressed result cache (in-memory always; plus the on-disk
   tier when [Runcache.set_dir] armed one).  The key is the full
   canonical run configuration — transformed code digest, engine,
   recording, trigger, timer period, cost table, fault plan — so two
   cells that would perform an identical measurement share one run, no
   matter which table driver or which process asks.  This subsumes the
   old per-(benchmark, scale, engine) baseline memo: a baseline is just
   a run of the untransformed code with no recording attached. *)
module Cache = Runcache.Make (struct
  type t = metrics
end)

let base_digest_cache : (string * int, string) Sync.Memo.t =
  Sync.Memo.create ()

let base_funcs_digest build =
  Sync.Memo.get base_digest_cache
    (build.bench.Workloads.Suite.bname, build.scale)
    (fun () -> Digest.funcs build.base_funcs)

let () =
  Runcache.on_reset (fun () ->
      Sync.Memo.clear build_cache;
      Sync.Memo.clear base_digest_cache)

let engine_str = function `Ref -> "ref" | `Fast -> "fast"

let run_key ?adaptive ~kind ~funcs_digest ~engine ~recording ~trigger
    ~timer_period build =
  Digest.run_config ?adaptive ~kind
    ~bench:build.bench.Workloads.Suite.bname ~scale:build.scale ~funcs_digest
    ~engine:(engine_str engine) ~recording ~trigger ~timer_period
    ~costs:(Digest.costs Vm.Costs.default)
    ~faults:(Digest.fault_plan (fault_plan build))
    ()

let run_baseline ?engine build =
  let engine =
    match engine with Some e -> e | None -> Atomic.get default_engine
  in
  let key =
    run_key ~kind:"baseline" ~funcs_digest:(base_funcs_digest build) ~engine
      ~recording:"none" ~trigger:"none" ~timer_period:None build
  in
  Cache.find ~key (fun () ->
      fst (execute ~engine build build.base_funcs no_recording))

let run_transformed ?engine ?recording:rec_override
    ?(trigger = Core.Sampler.Never) ?timer_period ~transform build =
  let engine =
    match engine with Some e -> e | None -> Atomic.get default_engine
  in
  let recording_path =
    match rec_override with Some r -> r | None -> Atomic.get recording
  in
  let funcs =
    List.map
      (fun f -> (transform f).Core.Transform.func)
      build.base_funcs
  in
  let mk prog =
    let sampler = Core.Sampler.create trigger in
    match recording_path with
    | `Legacy ->
        let collector = Profiles.Collector.create () in
        {
          r_hooks = Profiles.Collector.hooks collector sampler;
          r_recorder = None;
          r_decode = (fun () -> collector);
          r_on_init = None;
        }
    | `Slots ->
        let slots = Profiles.Slots.create prog in
        {
          r_hooks = Profiles.Slots.hooks slots sampler;
          r_recorder = Some (Profiles.Slots.recorder slots);
          r_decode = (fun () -> Profiles.Slots.decode slots);
          r_on_init = None;
        }
  in
  let key =
    run_key ~kind:"instrumented" ~funcs_digest:(Digest.funcs funcs) ~engine
      ~recording:
        (match recording_path with `Slots -> "slots" | `Legacy -> "legacy")
      ~trigger:(Digest.trigger trigger) ~timer_period build
  in
  Cache.find ~key (fun () -> fst (execute ~engine ?timer_period build funcs mk))

(* ------------------------------------------------------------------ *)
(* Adaptive runs (DESIGN.md §9)                                        *)
(* ------------------------------------------------------------------ *)

type adaptive_metrics = {
  am : metrics;
  instr_cycles : int;
  achieved_overhead_pct : float;
  decisions : string list;
  polls : int;
}

(* A separate cache instance because the Marshal'd payload differs from
   [metrics]; keys can't alias Cache's — [kind=adaptive] plus the
   adaptive= line make them distinct strings. *)
module Adaptive_cache = Runcache.Make (struct
  type t = adaptive_metrics
end)

let run_adaptive ?engine ?(trigger = Core.Sampler.Counter { interval = 64; jitter = 0 })
    ?timer_period ?(config = Adaptive.Controller.default) ~transform build =
  let engine =
    match engine with Some e -> e | None -> Atomic.get default_engine
  in
  let funcs =
    List.map (fun f -> (transform f).Core.Transform.func) build.base_funcs
  in
  (* the controller reads the live profile from the flat-slot recorder,
     so adaptive runs are pinned to [`Slots] recording regardless of the
     session-wide setting (the loop-off byte-identity guarantees are
     what both recordings keep) *)
  let key =
    run_key
      ~adaptive:(Adaptive.Controller.config_digest config)
      ~kind:"adaptive" ~funcs_digest:(Digest.funcs funcs) ~engine
      ~recording:"slots" ~trigger:(Digest.trigger trigger) ~timer_period build
  in
  Adaptive_cache.find ~key (fun () ->
      let ctl = ref None in
      let mk prog =
        let sampler = Core.Sampler.create trigger in
        let slots = Profiles.Slots.create prog in
        let c = Adaptive.Controller.create ~config ~sampler slots in
        ctl := Some c;
        {
          r_hooks = Profiles.Slots.hooks slots sampler;
          r_recorder = Some (Profiles.Slots.recorder slots);
          r_decode = (fun () -> Profiles.Slots.decode slots);
          r_on_init = Some (Adaptive.Controller.on_init c);
        }
      in
      let m, res = execute ~engine ?timer_period build funcs mk in
      let c = Option.get !ctl in
      {
        am = m;
        instr_cycles = res.Vm.Interp.instr_cycles;
        achieved_overhead_pct =
          Adaptive.Budget.overhead ~cycles:res.Vm.Interp.cycles
            ~icycles:res.Vm.Interp.instr_cycles;
        decisions = Adaptive.Controller.decisions c;
        polls = Adaptive.Controller.polls c;
      })

(* One UNCACHED adaptive execution, timed.  [run_adaptive] results flow
   through the run cache (by design — tables want cell reuse), which
   makes wall-clock timing of the cached entry point meaningless; bench
   drivers time this instead.  Same configuration surface and the same
   execution path as [run_adaptive], minus the cache and the controller
   introspection. *)
let adaptive_wall ?engine
    ?(trigger = Core.Sampler.Counter { interval = 64; jitter = 0 })
    ?timer_period ?(config = Adaptive.Controller.default) ~transform build =
  let engine =
    match engine with Some e -> e | None -> Atomic.get default_engine
  in
  let funcs =
    List.map (fun f -> (transform f).Core.Transform.func) build.base_funcs
  in
  let mk prog =
    let sampler = Core.Sampler.create trigger in
    let slots = Profiles.Slots.create prog in
    let c = Adaptive.Controller.create ~config ~sampler slots in
    {
      r_hooks = Profiles.Slots.hooks slots sampler;
      r_recorder = Some (Profiles.Slots.recorder slots);
      r_decode = (fun () -> Profiles.Slots.decode slots);
      r_on_init = Some (Adaptive.Controller.on_init c);
    }
  in
  let t0 = Unix.gettimeofday () in
  let (_ : metrics * Vm.Interp.result) =
    execute ~engine ?timer_period build funcs mk
  in
  Unix.gettimeofday () -. t0

let overhead_pct ~base m =
  100.0 *. float_of_int (m.cycles - base.cycles) /. float_of_int base.cycles

let check_output ~base m =
  if not (String.equal base.output m.output) then
    failwith
      (Printf.sprintf
         "instrumented run changed program output (%S vs %S prefixes)"
         (String.sub base.output 0 (min 40 (String.length base.output)))
         (String.sub m.output 0 (min 40 (String.length m.output))))

let median l =
  let s = List.sort compare l in
  List.nth s (List.length s / 2)

let compile_stats ~transform build =
  let raw_funcs = Bytecode.To_lir.program_to_funcs build.classes in
  let time_pipeline tr =
    let samples =
      List.init 5 (fun _ ->
          let _, stats = Opt.Pipeline.compile ~transform:tr raw_funcs in
          stats)
    in
    let pick f = median (List.map f samples) in
    {
      Opt.Pipeline.seconds_front = pick (fun s -> s.Opt.Pipeline.seconds_front);
      seconds_transform = pick (fun s -> s.Opt.Pipeline.seconds_transform);
      seconds_back = pick (fun s -> s.Opt.Pipeline.seconds_back);
    }
  in
  let base = time_pipeline Fun.id in
  let instr =
    time_pipeline (fun f -> (transform f).Core.Transform.func)
  in
  (base, instr)
