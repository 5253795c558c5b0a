(* The traced replay: the benchmark's own calls into each layer's public
   functions, each wrapped in a span, reproducing what a verb or the
   daemon does for one measurement (Harness.Measure's execution path).
   Spans come only from this file and the workload files; nothing
   inside the program is instrumented. *)

open Pbcore

let span = Spans.with_span

(* ------------------------------------------------------------------ *)
(* Builds: jasm -> bytecode -> LIR -> front-end optimizer             *)
(* ------------------------------------------------------------------ *)

type build = {
  bench : Workloads.Suite.benchmark;
  scale : int;
  classes : Bytecode.Classfile.program;
  base_funcs : Ir.Lir.func list;
}

let builds : (string * int, build) Sync.Memo.t = Sync.Memo.create ()

(* Like Harness.Measure.prepare: built once per (benchmark, scale), by
   the first caller. *)
let prepare name scale =
  let bench = Workloads.Suite.find name in
  let scale = if scale = 0 then bench.Workloads.Suite.default_scale else scale in
  Sync.Memo.get builds (name, scale) (fun () ->
      let classes = span "jasm.compile" (fun () -> Workloads.Suite.compile bench) in
      let raw = span "bytecode.to_lir" (fun () -> Bytecode.To_lir.program_to_funcs classes) in
      let base_funcs = span "opt.front" (fun () -> Opt.Pipeline.front raw) in
      { bench; scale; classes; base_funcs })

(* ------------------------------------------------------------------ *)
(* One measurement                                                     *)
(* ------------------------------------------------------------------ *)

type kind =
  | Baseline
  | Instrumented of [ `Slots | `Legacy ] * Core.Sampler.trigger
  | Adaptive of Core.Sampler.trigger * Adaptive.Controller.config

let words funcs =
  List.fold_left (fun n f -> n + Vm.Program.code_size_words f) 0 funcs

let transform build t =
  let funcs =
    span "core.transform" (fun () ->
        List.map (fun f -> (t f).Core.Transform.func) build.base_funcs)
  in
  Spans.count "core.words_instr" (float_of_int (words funcs));
  Spans.count "core.words_base" (float_of_int (words build.base_funcs));
  funcs

(* The canonical run key the verb files this measurement under. *)
let run_key ?adaptive ~kind ~funcs ~recording ~trigger ~timer_period build =
  span "harness.digest" (fun () ->
      Harness.Digest.run_config ?adaptive ~kind
        ~bench:build.bench.Workloads.Suite.bname ~scale:build.scale
        ~funcs_digest:(Harness.Digest.funcs funcs) ~engine:"fast" ~recording
        ~trigger ~timer_period
        ~costs:(Harness.Digest.costs Vm.Costs.default)
        ~faults:(Harness.Digest.fault_plan Fault.none)
        ())

type outcome = {
  res : Vm.Interp.result;
  collector : Profiles.Collector.t;
  controller : Adaptive.Controller.t option;
}

(* Link, attach the recording, run on the Fast engine, decode. *)
let execute ?timer_period build funcs kind =
  let prog = span "vm.link" (fun () -> Vm.Program.link build.classes ~funcs) in
  let slots trigger =
    let sampler = Core.Sampler.create trigger in
    let s = span "profiles.slots_create" (fun () -> Profiles.Slots.create prog) in
    (s, sampler)
  in
  let hooks, recorder, decode, controller =
    match kind with
    | Baseline -> (Vm.Interp.null_hooks, None, Profiles.Collector.create, None)
    | Instrumented (`Legacy, trigger) ->
        let c = Profiles.Collector.create () in
        (Profiles.Collector.hooks c (Core.Sampler.create trigger), None, (fun () -> c), None)
    | Instrumented (`Slots, trigger) ->
        let s, sampler = slots trigger in
        ( Profiles.Slots.hooks s sampler,
          Some (Profiles.Slots.recorder s),
          (fun () -> Profiles.Slots.decode s),
          None )
    | Adaptive (trigger, config) ->
        let s, sampler = slots trigger in
        let c = Adaptive.Controller.create ~config ~sampler s in
        ( Profiles.Slots.hooks s sampler,
          Some (Profiles.Slots.recorder s),
          (fun () -> Profiles.Slots.decode s),
          Some c )
  in
  let on_init = Option.map Adaptive.Controller.on_init controller in
  let run () =
    Vm.Interp.run ~engine:`Fast ~use_icache:true ?timer_period ~faults:Fault.none
      ?recorder ?on_init prog ~entry:Workloads.Suite.entry ~args:[ build.scale ] hooks
  in
  let res =
    match kind with
    | Adaptive _ -> span "adaptive.run" run
    | _ ->
        let r = span "vm.run" run in
        Spans.count "vm.instructions" (float_of_int r.Vm.Interp.instructions);
        r
  in
  let collector = span "profiles.decode" decode in
  (match controller with
  | Some c ->
      Spans.count "adaptive.polls" (float_of_int (Adaptive.Controller.polls c));
      Spans.count "adaptive.decisions"
        (float_of_int (List.length (Adaptive.Controller.decisions c)))
  | None -> ());
  { res; collector; controller }

(* ------------------------------------------------------------------ *)
(* Serve jobs                                                          *)
(* ------------------------------------------------------------------ *)

let sampler_trigger = function
  | Serve.Job.Counter { interval; jitter } -> Core.Sampler.Counter { interval; jitter }
  | Serve.Job.Counter_per_thread { interval } -> Core.Sampler.Counter_per_thread { interval }
  | Serve.Job.Timer_bit -> Core.Sampler.Timer_bit
  | Serve.Job.Always -> Core.Sampler.Always
  | Serve.Job.Never -> Core.Sampler.Never

let job_transform (j : Serve.Job.t) =
  Serve.Job.transform_of_variant (Serve.Job.spec_of_names j.specs) j.variant

let recording_str = function `Slots -> "slots" | `Legacy -> "legacy"

(* A job's summary, as Serve.Job.execute_full computes it. *)
let summary (o : outcome) =
  let csv = span "profiles.report" (fun () -> Profiles.Report.to_csv o.collector) in
  span "harness.digest" (fun () ->
      {
        Serve.Job.cycles = o.res.Vm.Interp.cycles;
        instructions = o.res.Vm.Interp.instructions;
        checks = o.res.Vm.Interp.counters.Vm.Interp.checks;
        samples = o.res.Vm.Interp.counters.Vm.Interp.samples;
        output_md5 = Harness.Digest.hex o.res.Vm.Interp.output;
        profile_md5 =
          Harness.Digest.hex
            (String.concat "\000" (List.map (fun (k, t) -> k ^ "\001" ^ t) csv));
      })

(* One job as the daemon runs it on a cold cache: build (first use),
   transform, key, execute, summarise, and render its PROFILE payload. *)
let run_job (j : Serve.Job.t) =
  let build = prepare j.bench (Option.value ~default:0 j.scale) in
  let trigger = sampler_trigger j.trigger in
  let funcs = transform build (job_transform j) in
  let key =
    run_key ~kind:"instrumented" ~funcs ~recording:(recording_str j.recording)
      ~trigger:(Harness.Digest.trigger trigger) ~timer_period:None build
  in
  let o = execute build funcs (Instrumented (j.recording, trigger)) in
  let s = summary o in
  let m = span "profiles.of_collector" (fun () -> Profiles.Merge.of_collector o.collector) in
  let payload = span "profiles.render" (fun () -> Profiles.Merge.render m) in
  (key, o, s, payload)

(** The fleet client's merge of [payloads] (`isf fleet --merge-out`):
    input digests, parse, merge tree, render; the aggregate is parsed
    back and rendered again on its way out.  Returns the final rendering
    and the parse rate in MB/s. *)
let merge payloads =
  let parse f =
    let t0 = Unix.gettimeofday () in
    let r = span "profiles.parse" f in
    (r, Unix.gettimeofday () -. t0)
  in
  ignore
    (span "profiles.digest" (fun () ->
         Harness.Aggregate.merged_key (List.map Harness.Digest.hex payloads)));
  let parsed, p1 = parse (fun () -> List.map Profiles.Merge.parse payloads) in
  let merged = span "profiles.merge" (fun () -> Harness.Aggregate.merge_tree ~jobs:2 parsed) in
  let rendered = span "profiles.render" (fun () -> Profiles.Merge.render merged) in
  let back, p2 = parse (fun () -> Profiles.Merge.parse rendered) in
  let final = span "profiles.render" (fun () -> Profiles.Merge.render back) in
  let bytes = List.fold_left (fun k p -> k + String.length p) (String.length rendered) payloads in
  (final, float_of_int bytes /. 1e6 /. (p1 +. p2))

(* ------------------------------------------------------------------ *)
(* Running a replay and reading the ledger                             *)
(* ------------------------------------------------------------------ *)

(** Apply [f] to every item on 2 domains (work taken in order from a
    shared counter), each item in a root span [name]; results in input
    order, with the replay's wall-clock bounds. *)
let par name f items =
  let a = Array.of_list items in
  let out = Array.make (Array.length a) None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length a then begin
        out.(i) <- Some (span name (fun () -> f a.(i)));
        loop ()
      end
    in
    loop ()
  in
  let t0 = Unix.gettimeofday () in
  List.iter Domain.join (List.init 2 (fun _ -> Domain.spawn worker));
  let t1 = Unix.gettimeofday () in
  (Array.to_list (Array.map Option.get out), t0, t1)

let layer_names =
  [
    "vm.run"; "vm.link"; "jasm.compile"; "bytecode.to_lir"; "opt.front";
    "core.transform"; "harness.digest"; "harness.cache_store"; "harness.cache_read";
    "adaptive.run"; "profiles.slots_create"; "profiles.decode";
    "profiles.of_collector"; "profiles.render"; "profiles.parse"; "profiles.digest";
    "profiles.merge"; "profiles.report"; "serve.journal_append";
  ]

(** Every per-layer metric, from the recorded spans and counts plus the
    workload-specific values in [extra] (which win).  Layers a workload
    never reached read 0. *)
let ledger ~extra =
  let bufs = Spans.buffers () in
  let self = Spans.self_by_name bufs in
  let counts = Spans.counts () in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let instr = get counts "vm.instructions" in
  let base_words = get counts "core.words_base" in
  let times = List.map (fun n -> (n ^ "_s", get self n, "s")) layer_names in
  let derived =
    [
      ("vm.instructions", instr, "count");
      ("vm.ns_per_instr", (if instr > 0.0 then 1e9 *. get self "vm.run" /. instr else 0.0), "ns");
      ( "core.code_growth",
        (if base_words > 0.0 then get counts "core.words_instr" /. base_words else 0.0),
        "ratio" );
      ("adaptive.polls", get counts "adaptive.polls", "count");
      ("adaptive.decisions", get counts "adaptive.decisions", "count");
    ]
  in
  let given = List.map (fun (n, _, _) -> n) extra in
  List.filter (fun (n, _, _) -> not (List.mem n given)) (times @ derived) @ extra
