module Lir = Ir.Lir

(* The run configuration travels with the build, so two configurations
   can coexist in one process (a daemon's jobs, a test's flipped engine)
   without either seeing the other's. *)
type config = {
  engine : [ `Ref | `Fast ];
  recording : [ `Slots | `Legacy ];
  chaos : int option;
  watchdog : float;
}

let default =
  { engine = `Fast; recording = `Slots; chaos = None; watchdog = 600.0 }

type build = {
  bench : Workloads.Suite.benchmark;
  scale : int;
  classes : Bytecode.Classfile.program;
  base_funcs : Lir.func list;
  config : config;
}

(* Both caches are keyed per-key-locked (Sync.Memo): when experiment cells
   run on a domain pool, the first cell to need a (benchmark, scale) build
   compiles it while the others block, and every later cell reads the
   published, immutable value.  No build is ever compiled twice. *)
let build_cache : (string * int, build) Sync.Memo.t = Sync.Memo.create ()

let prepare ?(config = default) ?(scale = 0)
    (bench : Workloads.Suite.benchmark) =
  let scale =
    if scale = 0 then bench.Workloads.Suite.default_scale else scale
  in
  let key = (bench.Workloads.Suite.bname, scale) in
  let b =
    Sync.Memo.get build_cache key (fun () ->
        let classes = Workloads.Suite.compile bench in
        let base_funcs =
          Opt.Pipeline.front (Bytecode.To_lir.program_to_funcs classes)
        in
        { bench; scale; classes; base_funcs; config = default })
  in
  { b with config }

(* Chaos: the fault plan derives from the seed and the build's
   (benchmark, scale) — deliberately NOT from which table or worker
   asks, so concurrent cells measuring the same build inject the same
   faults and results stay independent of -j and of execution order. *)
let fault_plan build =
  match build.config.chaos with
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

let execute ?timer_period build funcs mk =
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
    let w = build.config.watchdog in
    if w <= 0.0 then None else Some (Unix.gettimeofday () +. w)
  in
  let res =
    Vm.Interp.run ~engine:build.config.engine ~use_icache:true ?timer_period
      ~faults ~label
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

let run_key ?adaptive ~kind ~funcs_digest ~recording ~trigger ~timer_period
    build =
  Digest.run_config ?adaptive ~kind
    ~bench:build.bench.Workloads.Suite.bname ~scale:build.scale ~funcs_digest
    ~engine:(engine_str build.config.engine) ~recording ~trigger ~timer_period
    ~costs:(Digest.costs Vm.Costs.default)
    ~faults:(Digest.fault_plan (fault_plan build))
    ()

let run_baseline build =
  let key =
    run_key ~kind:"baseline" ~funcs_digest:(base_funcs_digest build)
      ~recording:"none" ~trigger:"none" ~timer_period:None build
  in
  Cache.find ~key (fun () -> fst (execute build build.base_funcs no_recording))

let transformed_funcs transform build =
  List.map (fun f -> (transform f).Core.Transform.func) build.base_funcs

(* flat-slot recording into [slots]; adaptive runs attach their
   controller through [on_init] *)
let slots_recording ?on_init slots sampler =
  {
    r_hooks = Profiles.Slots.hooks slots sampler;
    r_recorder = Some (Profiles.Slots.recorder slots);
    r_decode = (fun () -> Profiles.Slots.decode slots);
    r_on_init = on_init;
  }

let run_transformed ?(trigger = Core.Sampler.Never) ?timer_period ~transform
    build =
  let funcs = transformed_funcs transform build in
  let mk prog =
    let sampler = Core.Sampler.create trigger in
    match build.config.recording with
    | `Legacy ->
        let collector = Profiles.Collector.create () in
        {
          r_hooks = Profiles.Collector.hooks collector sampler;
          r_recorder = None;
          r_decode = (fun () -> collector);
          r_on_init = None;
        }
    | `Slots -> slots_recording (Profiles.Slots.create prog) sampler
  in
  let key =
    run_key ~kind:"instrumented" ~funcs_digest:(Digest.funcs funcs)
      ~recording:
        (match build.config.recording with
        | `Slots -> "slots"
        | `Legacy -> "legacy")
      ~trigger:(Digest.trigger trigger) ~timer_period build
  in
  Cache.find ~key (fun () -> fst (execute ?timer_period build funcs mk))

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

let adaptive_trigger = Core.Sampler.Counter { interval = 64; jitter = 0 }

(* The controller reads the live profile from the flat-slot recorder,
   so adaptive runs are pinned to [`Slots] recording whatever the
   build's config says (the loop-off byte-identity guarantees are what
   both recordings keep). *)
let adaptive_execute ~trigger ?timer_period ~config ~funcs build =
  let ctl = ref None in
  let mk prog =
    let sampler = Core.Sampler.create trigger in
    let slots = Profiles.Slots.create prog in
    let c = Adaptive.Controller.create ~config ~sampler slots in
    ctl := Some c;
    slots_recording ~on_init:(Adaptive.Controller.on_init c) slots sampler
  in
  let m, res = execute ?timer_period build funcs mk in
  let c = Option.get !ctl in
  {
    am = m;
    instr_cycles = res.Vm.Interp.instr_cycles;
    achieved_overhead_pct =
      Adaptive.Budget.overhead ~cycles:res.Vm.Interp.cycles
        ~icycles:res.Vm.Interp.instr_cycles;
    decisions = Adaptive.Controller.decisions c;
    polls = Adaptive.Controller.polls c;
  }

let run_adaptive ?(trigger = adaptive_trigger) ?timer_period
    ?(config = Adaptive.Controller.default) ~transform build =
  let funcs = transformed_funcs transform build in
  let key =
    run_key
      ~adaptive:(Adaptive.Controller.config_digest config)
      ~kind:"adaptive" ~funcs_digest:(Digest.funcs funcs) ~recording:"slots"
      ~trigger:(Digest.trigger trigger) ~timer_period build
  in
  Adaptive_cache.find ~key (fun () ->
      adaptive_execute ~trigger ?timer_period ~config ~funcs build)

(* One UNCACHED adaptive execution, timed.  [run_adaptive] results flow
   through the run cache (by design — tables want cell reuse), which
   makes wall-clock timing of the cached entry point meaningless; bench
   drivers time this instead, over the same execution path. *)
let adaptive_wall ?(trigger = adaptive_trigger) ?timer_period
    ?(config = Adaptive.Controller.default) ~transform build =
  let funcs = transformed_funcs transform build in
  let t0 = Unix.gettimeofday () in
  ignore (adaptive_execute ~trigger ?timer_period ~config ~funcs build);
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
