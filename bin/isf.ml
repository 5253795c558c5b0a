(* isf — instrumentation-sampling-framework CLI.

   Subcommands: list, run, profile, dump, table, figure, all, serve,
   fleet. *)

open Cmdliner

module Measure = Harness.Measure

(* Known instrumentations and variants, by CLI name — the single source
   of truth lives in Serve.Job (jobs name the same specs and variants
   over the wire).  The argument parsers below validate against these
   lists, so a typo is a cmdliner usage error (non-zero exit, valid
   choices listed) instead of an uncaught Invalid_argument. *)
let instr_kinds = Serve.Job.instr_kinds
let variants = Serve.Job.variants

(* enum over the names rather than the values: specs and transforms hold
   closures, which cmdliner's enum printer cannot compare *)
let name_conv what names =
  let parse s =
    if List.mem s names then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown %s %s (expected one of %s)" what s
             (String.concat ", " names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let spec_of_names = Serve.Job.spec_of_names
let transform_of_variant = Serve.Job.transform_of_variant

(* Graceful SIGINT/SIGTERM for the one-shot verbs: the checkpoint and
   the journal are flushed per record and the run cache writes via
   temp+rename, so nothing buffered can be lost — the handler closes
   the checkpoint channel (best effort) and exits with the
   conventional 128+signal code so callers can tell an interrupt from
   a failure.  [isf serve] overrides these with flag-setting handlers
   for an orderly daemon shutdown. *)
let exit_code_of_signal s = if s = Sys.sigterm then 143 else 130

let oneshot_signal s =
  prerr_endline
    (Printf.sprintf "isf: interrupted by %s; checkpoint and cache are intact"
       (if s = Sys.sigterm then "SIGTERM" else "SIGINT"));
  (try Harness.Robust.set_checkpoint None with _ -> ());
  exit (exit_code_of_signal s)

let install_oneshot_signals () =
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle oneshot_signal) with _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* ---- arguments ---- *)

let bench_arg =
  let doc = "Benchmark name (see $(b,isf list))." in
  Arg.(
    required
    & pos 0 (some (name_conv "benchmark" Workloads.Suite.names)) None
    & info [] ~docv:"BENCH" ~doc)

(* the same rule serve job lines apply to their scale field *)
let scale_arg =
  let doc = "Workload scale factor, at least 1 (default: benchmark-specific)." in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "expected a scale >= 1 (got %s)" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some positive) None & info [ "scale"; "s" ] ~docv:"N" ~doc)

let variant_arg =
  let doc =
    "Transformation: full-dup, partial-dup, no-dup, yp-opt, exhaustive."
  in
  Arg.(
    value
    & opt (name_conv "variant" (List.map fst variants)) "full-dup"
    & info [ "variant"; "v" ] ~docv:"V" ~doc)

let instr_arg =
  let doc =
    "Instrumentations (comma separated): call-edge, field-access, edge, value, path, receiver, cct."
  in
  Arg.(
    value
    & opt (list (name_conv "instrumentation" (List.map fst instr_kinds))) []
    & info [ "instr"; "i" ] ~docv:"I,.." ~doc)

let interval_arg =
  let doc = "Counter-based sample interval." in
  Arg.(value & opt int 1000 & info [ "interval"; "k" ] ~docv:"K" ~doc)

let jitter_arg =
  let doc = "Randomized interval span (0 = deterministic)." in
  Arg.(value & opt int 0 & info [ "jitter"; "j" ] ~docv:"J" ~doc)

let timer_arg =
  let doc = "Use the (inaccurate) time-based trigger instead of the counter." in
  Arg.(value & flag & info [ "timer" ] ~doc)

let top_arg =
  let doc = "How many profile entries to print." in
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "Directory to write one CSV per collected profile kind." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let jobs_arg =
  let doc =
    "Run experiment cells on $(docv) domains (default: \\$ISF_JOBS, else one \
     per core minus one).  Output is byte-identical for every N."
  in
  Arg.(
    value
    & opt int (Harness.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let trace_arg =
  let doc = "Print a progress line (cells done/total) to stderr." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let engine_arg =
  let doc =
    "VM execution engine: $(b,fast) (closure-compiled, default) or \
     $(b,ref) (reference interpreter).  The engines are bit-identical, \
     so every number is engine-invariant; $(b,ref) exists as the \
     differential oracle."
  in
  Arg.(
    value
    & opt (enum [ ("ref", `Ref); ("fast", `Fast) ]) `Fast
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let recording_arg =
  let doc =
    "Profile recording path: $(b,slots) (flat-slot recording, default: \
     compile-time event resolution into preallocated buffers, decoded at \
     end of run) or $(b,legacy) (event-by-event hook dispatch, kept as \
     the differential oracle).  The paths are bit-identical, so every \
     number is recording-invariant."
  in
  Arg.(
    value
    & opt (enum [ ("slots", `Slots); ("legacy", `Legacy) ]) `Slots
    & info [ "recording" ] ~docv:"PATH" ~doc)

let chaos_arg =
  let doc =
    "Chaos mode: derive a deterministic fault plan from $(docv) for every \
     experiment cell (spurious timer interrupts, cache flushes, sample \
     counter corruption, traps, simulated compile failures).  Failing \
     cells render as ERR and exit non-zero; the same seed reproduces the \
     same faults."
  in
  Arg.(value & opt (some int) None & info [ "chaos" ] ~docv:"SEED" ~doc)

let watchdog_arg =
  let doc =
    "Wall-clock budget per experiment cell, in seconds ($(docv) <= 0 \
     disables the watchdog).  A cell over budget becomes an ERR cell; its \
     siblings are unaffected."
  in
  Arg.(value & opt float 600.0 & info [ "watchdog" ] ~docv:"SECS" ~doc)

let checkpoint_arg =
  let doc =
    "Persist each completed experiment cell to $(docv) (append-only, \
     crash-safe) and, when re-run after an interruption, resume from the \
     completed cells instead of recomputing them.  The file records the \
     run configuration and refuses to resume a mismatched run."
  in
  Arg.(
    value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let cache_arg =
  let doc =
    "Persist every measurement to $(docv), content-addressed by its full \
     run configuration (code digest, engine, recording, trigger, scale, \
     fault plan), and reuse matching entries across runs and processes.  \
     Results are byte-identical with and without the cache.  Corrupt or \
     truncated entries are recomputed; a directory written by an \
     incompatible version is refused."
  in
  let env = Cmd.Env.info "ISF_CACHE" in
  Arg.(
    value & opt (some string) None & info [ "cache" ] ~env ~docv:"DIR" ~doc)

(* a refused cache, checkpoint or journal, malformed job lines or jasm
   source: one line on stderr and exit 2 instead of a backtrace *)
let or_die f =
  try f ()
  with Failure m ->
    prerr_endline ("isf: " ^ m);
    exit 2

let set_cache cache = or_die (fun () -> Harness.Runcache.set_dir cache)
let set_trace t = if t then Harness.Pool.trace := true
let chaos_str = function Some s -> string_of_int s | None -> "off"

(* open the checkpoint file, tagged with everything that changes cell
   values, so resuming under a different configuration is an error
   rather than a silently wrong table (recording and watchdog never
   change a value that completes) *)
let set_checkpoint ~which ~scale ~(config : Measure.config) checkpoint =
  let meta =
    Printf.sprintf "which=%s scale=%s engine=%s chaos=%s" which
      (match scale with Some s -> string_of_int s | None -> "default")
      (match config.engine with `Ref -> "ref" | `Fast -> "fast")
      (chaos_str config.chaos)
  in
  or_die (fun () ->
      Harness.Robust.set_checkpoint ~meta
        ~scope:(Measure.scope ~config ?scale ())
        checkpoint)

(* ---- commands ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (b : Workloads.Suite.benchmark) ->
        Printf.printf "%-14s %s\n" b.Workloads.Suite.bname
          b.Workloads.Suite.description)
      Workloads.Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite")
    Term.(const run $ const ())

let run_cmd =
  let run bench scale engine =
    let config = { Measure.default with engine } in
    let build = Measure.prepare ~config ?scale (Workloads.Suite.find bench) in
    let m = Measure.run_baseline build in
    Printf.printf "%s: %d cycles, %d instructions, code %d words\n" bench
      m.Measure.cycles m.Measure.instructions m.Measure.code_words;
    Printf.printf "entries %d, backedge yieldpoints %d\n" m.Measure.entries
      m.Measure.backedge_yps;
    print_string m.Measure.output
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a benchmark without instrumentation")
    Term.(const run $ bench_arg $ scale_arg $ engine_arg)

let profile_cmd =
  let run bench scale variant instr interval jitter timer top csv engine
      recording chaos =
    let config = { Measure.default with engine; recording; chaos } in
    let build = Measure.prepare ~config ?scale (Workloads.Suite.find bench) in
    let base = Measure.run_baseline build in
    let spec = spec_of_names instr in
    let transform = transform_of_variant spec variant in
    let trigger =
      if timer then Core.Sampler.Timer_bit
      else Core.Sampler.Counter { interval; jitter }
    in
    let m = Measure.run_transformed ~trigger ~transform build in
    Measure.check_output ~base m;
    Printf.printf
      "%s under %s: overhead %.1f%%, %d checks, %d samples, %d ops\n\n" bench
      variant
      (Measure.overhead_pct ~base m)
      m.Measure.checks m.Measure.samples m.Measure.instrument_ops;
    let col = m.Measure.collector in
    print_string (Profiles.Report.summary col);
    print_newline ();
    print_string (Profiles.Report.top ~n:top col);
    match csv with
    | None -> ()
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (kind, text) ->
            let path = Filename.concat dir (kind ^ ".csv") in
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            Printf.printf "wrote %s\n" path)
          (Profiles.Report.to_csv col)
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Run a benchmark under sampled instrumentation")
    Term.(
      const run $ bench_arg $ scale_arg $ variant_arg $ instr_arg
      $ interval_arg $ jitter_arg $ timer_arg $ top_arg $ csv_arg
      $ engine_arg $ recording_arg $ chaos_arg)

let dump_cmd =
  let run bench variant instr meth =
    let b = Workloads.Suite.find bench in
    let build = Measure.prepare b in
    let spec = spec_of_names instr in
    let transform = transform_of_variant spec variant in
    List.iter
      (fun f ->
        let name = Ir.Lir.string_of_method_ref f.Ir.Lir.fname in
        if meth = None || meth = Some name then begin
          let r = transform f in
          Printf.printf "%s\n(static checks: %d, duplicated blocks: %d)\n\n"
            (Ir.Pp.func_to_string r.Core.Transform.func)
            r.Core.Transform.static_checks r.Core.Transform.duplicated_blocks
        end)
      build.Measure.base_funcs
  in
  let meth_arg =
    let doc = "Only dump this method (e.g. Main.main)." in
    Arg.(value & opt (some string) None & info [ "method"; "m" ] ~docv:"M" ~doc)
  in
  Cmd.v (Cmd.info "dump" ~doc:"Dump transformed LIR")
    Term.(const run $ bench_arg $ variant_arg $ instr_arg $ meth_arg)

(* run or profile a user-provided .jasm file *)
let exec_cmd =
  let run file args variant instr interval jitter top engine =
    let src = In_channel.with_open_text file In_channel.input_all in
    let classes = or_die (fun () -> Jasm.Compile.compile_string ~file src) in
    let funcs = Opt.Pipeline.front (Bytecode.To_lir.program_to_funcs classes) in
    let entry = { Ir.Lir.mclass = "Main"; mname = "main" } in
    (* a program that faults while running is the user's error too *)
    let run_or_die funcs hooks =
      try
        Vm.Interp.run ~engine ~use_icache:true
          (Vm.Program.link classes ~funcs)
          ~entry ~args hooks
      with Vm.Interp.Runtime_error m ->
        Printf.eprintf "isf: %s: runtime error: %s\n" file m;
        exit 2
    in
    let baseline = run_or_die funcs Vm.Interp.null_hooks in
    print_string baseline.Vm.Interp.output;
    Printf.printf "=> %s in %d cycles (%d instructions)\n"
      (match baseline.Vm.Interp.return_value with
      | Some v -> string_of_int v
      | None -> "(no result)")
      baseline.Vm.Interp.cycles baseline.Vm.Interp.instructions;
    if instr <> [] then begin
      let spec = spec_of_names instr in
      let transform = transform_of_variant spec variant in
      let transformed =
        List.map (fun f -> (transform f).Core.Transform.func) funcs
      in
      let collector = Profiles.Collector.create () in
      let sampler =
        Core.Sampler.create (Core.Sampler.Counter { interval; jitter })
      in
      let res =
        run_or_die transformed (Profiles.Collector.hooks collector sampler)
      in
      Printf.printf
        "\nwith %s sampling (interval %d): %.1f%% overhead, %d samples\n\n"
        variant interval
        (100.0
        *. float_of_int (res.Vm.Interp.cycles - baseline.Vm.Interp.cycles)
        /. float_of_int baseline.Vm.Interp.cycles)
        res.Vm.Interp.counters.Vm.Interp.samples;
      print_string (Profiles.Report.top ~n:top collector)
    end
  in
  let file_arg =
    let doc = "A .jasm source file with a class Main and static fun main(n: int): int." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let args_arg =
    let doc = "Arguments passed to Main.main." in
    Arg.(value & opt (list int) [ 1 ] & info [ "args"; "a" ] ~docv:"N,.." ~doc)
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "Compile and run a jasm source file (optionally with sampled \
          instrumentation)")
    Term.(
      const run $ file_arg $ args_arg $ variant_arg $ instr_arg $ interval_arg
      $ jitter_arg $ top_arg $ engine_arg)

let table_cmd =
  let run which scale jobs trace engine recording chaos watchdog checkpoint
      cache adaptive budget =
    set_trace trace;
    let config = { Measure.engine; recording; chaos; watchdog } in
    let name =
      match which with `All -> "all" | `One w -> Harness.Experiments.name w
    in
    set_checkpoint ~which:name ~scale ~config checkpoint;
    set_cache cache;
    (match which with
    | `All ->
        (* Deterministic run-everything mode: skips the one wall-clock
           measurement (Table 2 compile column, printed "-") so the
           output is byte-identical across runs and across engines, and
           gates the result on the shapes recorded in EXPERIMENTS.md.
           The adaptive experiment is NOT part of it (loop-off output
           stays byte-identical); --adaptive appends it below. *)
        if not (Harness.Experiments.run_gated ~config ?scale ~jobs ()) then
          exit 1
    | `One w ->
        if Harness.Experiments.run_one ~config ?scale ~jobs ~budget w <> []
        then exit 2);
    (* `--adaptive` appends the adaptive experiment after whatever was
       selected (a no-op when WHICH was already `adaptive`) *)
    if adaptive && which <> `One Harness.Experiments.Adaptive then begin
      print_newline ();
      if
        Harness.Experiments.run_one ~config ?scale ~jobs ~budget
          Harness.Experiments.Adaptive
        <> []
      then exit 2
    end
  in
  let adaptive_arg =
    let doc =
      "Also run the adaptive experiment (the online FDO loop, DESIGN.md \
       §9) after the selected tables.  Never changes the selected \
       tables' output: the loop only runs in the appended experiment."
    in
    Arg.(value & flag & info [ "adaptive" ] ~doc)
  in
  let budget_arg =
    let doc =
      "Overhead budget for the adaptive experiment's governor, in points \
       of instrumentation overhead (only meaningful with $(b,adaptive))."
    in
    Arg.(
      value & opt float 10.0 & info [ "overhead-budget" ] ~docv:"PCT" ~doc)
  in
  let which_conv =
    let parse s =
      if String.equal s "all" then Ok `All
      else
        match Harness.Experiments.of_name s with
        | w -> Ok (`One w)
        | exception Invalid_argument _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown experiment %s (expected all, 1-5, 7, 8, tableN or \
                    figureN)"
                   s))
    in
    let print ppf = function
      | `All -> Format.pp_print_string ppf "all"
      | `One w -> Format.pp_print_string ppf (Harness.Experiments.name w)
    in
    Arg.conv (parse, print)
  in
  let which_arg =
    let doc =
      "Experiment: 1-5 (tables), 7 or 8 (figures), tableN/figureN, \
       $(b,adaptive) (the online FDO loop), or $(b,all) (every \
       table/figure, fully deterministic, shape-gated)."
    in
    Arg.(required & pos 0 (some which_conv) None & info [] ~docv:"WHICH" ~doc)
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Reproduce one of the paper's tables/figures")
    Term.(
      const run $ which_arg $ scale_arg $ jobs_arg $ trace_arg $ engine_arg
      $ recording_arg $ chaos_arg $ watchdog_arg $ checkpoint_arg $ cache_arg
      $ adaptive_arg $ budget_arg)

let all_cmd =
  let run scale jobs trace engine recording chaos watchdog checkpoint cache =
    set_trace trace;
    let config = { Measure.engine; recording; chaos; watchdog } in
    set_checkpoint ~which:"everything" ~scale ~config checkpoint;
    set_cache cache;
    if Harness.Experiments.run_all ~config ?scale ~jobs () <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Reproduce every table and figure of the paper")
    Term.(
      const run $ scale_arg $ jobs_arg $ trace_arg $ engine_arg
      $ recording_arg $ chaos_arg $ watchdog_arg $ checkpoint_arg $ cache_arg)

let ablation_cmd =
  let run scale jobs trace engine recording cache =
    set_trace trace;
    set_cache cache;
    let config = { Measure.default with engine; recording } in
    Harness.Ablation.run_all ~config ?scale ~jobs ()
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:
         "Run the ablation studies (trigger determinism, check cost, \
          duplication strategy, per-thread counters)")
    Term.(
      const run $ scale_arg $ jobs_arg $ trace_arg $ engine_arg
      $ recording_arg $ cache_arg)

(* ---- service mode ---- *)

let journal_arg =
  let doc =
    "Append-only job journal: every submission and completion is \
     recorded (flushed per record, torn-tail tolerant), so a killed \
     daemon restarted on the same journal replays completed results \
     verbatim and re-runs exactly the in-flight jobs.  A journal \
     written under a different serve configuration is refused."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let capacity_arg =
  let doc =
    "Admission bound: queued jobs beyond $(docv) are shed with an \
     explicit rejection (never queued unboundedly)."
  in
  Arg.(value & opt int 64 & info [ "capacity" ] ~docv:"N" ~doc)

let retries_arg =
  let doc = "Transient-failure retries per job (exponential backoff)." in
  Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)

let quarantine_arg =
  let doc =
    "Bug-classified failures (per job digest) before the job is \
     quarantined: journaled, reported, never run again."
  in
  Arg.(value & opt int 3 & info [ "quarantine-after" ] ~docv:"N" ~doc)

let breaker_arg =
  let doc =
    "Cache-corruption events before the circuit breaker trips and the \
     daemon falls back to the in-memory cache tier (one-way, keeps \
     serving)."
  in
  Arg.(value & opt int 3 & info [ "breaker-after" ] ~docv:"N" ~doc)

(* jobs name their own engine and recording; the daemon supplies chaos
   and the watchdog *)
let serve_config ~workers ~capacity ~retries ~quarantine_after ~breaker_after
    ~chaos ~watchdog =
  {
    Serve.Daemon.workers;
    capacity;
    retries;
    quarantine_after;
    breaker_after;
    measure = { Measure.default with chaos; watchdog };
  }

(* everything that changes result bytes belongs in the journal meta;
   worker count and capacity deliberately do not (scheduling never
   changes results), so a crashed 8-worker run may resume with 1 *)
let serve_meta ~tag (config : Serve.Daemon.config) =
  Printf.sprintf "%s chaos=%s watchdog=%g retries=%d quarantine-after=%d" tag
    (chaos_str config.measure.chaos)
    config.measure.watchdog config.retries config.quarantine_after

let print_fleet_stats (st : Serve.Fleet.fleet_stats) =
  Printf.printf
    "fleet: %d job(s) in %.2fs (%.1f jobs/s), latency p50 %.1fms p99 \
     %.1fms\n\
     fleet: %d ok, %d failed (classified), %d quarantined, %d shed, %d \
     replayed from journal\n"
    st.Serve.Fleet.jobs st.Serve.Fleet.wall_seconds st.Serve.Fleet.jobs_per_sec
    st.Serve.Fleet.p50_ms st.Serve.Fleet.p99_ms st.Serve.Fleet.ok
    st.Serve.Fleet.failed st.Serve.Fleet.quarantined st.Serve.Fleet.shed
    st.Serve.Fleet.replayed

(* Check the acceptance gates a fleet must pass: every failure carries a
   known classification and no exception ever escaped a worker. *)
let gate_fleet ~uncaught results =
  let bad = Serve.Fleet.unclassified results in
  if bad <> [] then begin
    Printf.eprintf "isf fleet: %d unclassified failure(s):\n"
      (List.length bad);
    List.iter (fun (_, line) -> Printf.eprintf "  %s\n" line) bad;
    exit 2
  end;
  if uncaught > 0 then begin
    Printf.eprintf
      "isf fleet: %d exception(s) escaped a worker's job wrapper\n" uncaught;
    exit 2
  end

let serve_cmd =
  let run socket job_file results_file journal workers capacity retries
      quarantine_after breaker_after chaos watchdog cache trace =
    set_trace trace;
    set_cache cache;
    let config =
      serve_config ~workers ~capacity ~retries ~quarantine_after
        ~breaker_after ~chaos ~watchdog
    in
    (* signal => orderly shutdown: the select loop / drain poll notices
       the flag, the daemon stops without draining its backlog (those
       jobs stay journaled as submitted, so a restart resumes exactly
       them), and we exit 128+signal *)
    let signalled = Atomic.make 0 in
    List.iter
      (fun s ->
        Sys.set_signal s (Sys.Signal_handle (fun s -> Atomic.set signalled s)))
      [ Sys.sigint; Sys.sigterm ];
    match (socket, job_file) with
    | None, None ->
        prerr_endline "isf serve: need --socket PATH or --job-file FILE";
        exit 2
    | Some _, Some _ ->
        prerr_endline "isf serve: --socket and --job-file are exclusive";
        exit 2
    | Some sock, None ->
        let srv = Serve.Server.create ~socket:sock in
        let meta = serve_meta ~tag:"socket" config in
        let d =
          or_die (fun () ->
              Serve.Daemon.start ~config ?journal ~meta
                ~on_result:(Serve.Server.on_result srv) ())
        in
        Printf.printf
          "isf serve: listening on %s (%d worker(s), capacity %d)\n%!" sock
          config.Serve.Daemon.workers config.Serve.Daemon.capacity;
        Serve.Server.run srv d ~stop:(fun () -> Atomic.get signalled <> 0);
        Serve.Daemon.stop ~drain:false d;
        (match Atomic.get signalled with
        | 0 -> ()
        | s ->
            prerr_endline "isf serve: shut down cleanly; journal is intact";
            exit (exit_code_of_signal s))
    | None, Some jf ->
        let out =
          match results_file with Some o -> o | None -> jf ^ ".results"
        in
        let entries = or_die (fun () -> Serve.Fleet.read_job_file jf) in
        let n = List.length entries in
        let meta =
          let file_digest =
            Harness.Digest.hex
              (In_channel.with_open_bin jf In_channel.input_all)
          in
          serve_meta ~tag:("job-file " ^ file_digest) config
        in
        let d = or_die (fun () -> Serve.Daemon.start ~config ?journal ~meta ()) in
        (* ids are 1-based line numbers; skip everything the journal
           already completed or recovery already requeued *)
        List.iteri
          (fun i (client, job) ->
            let id = i + 1 in
            if
              Atomic.get signalled = 0
              && not (Serve.Daemon.is_known d ~id)
            then Serve.Daemon.submit_pinned d ~id ~client job)
          entries;
        (* poll instead of Daemon.drain so a signal interrupts the wait *)
        let rec wait () =
          if Atomic.get signalled <> 0 then `Signalled
          else
            let st = Serve.Daemon.stats d in
            if
              st.Serve.Daemon.completed >= st.Serve.Daemon.accepted
              && List.length (Serve.Daemon.results d) >= n
            then `Done
            else begin
              Unix.sleepf 0.02;
              wait ()
            end
        in
        (match wait () with
        | `Signalled ->
            let s = Atomic.get signalled in
            Serve.Daemon.stop ~drain:false d;
            prerr_endline
              "isf serve: interrupted; completed jobs are journaled — rerun \
               with the same --journal to resume";
            exit (exit_code_of_signal s)
        | `Done ->
            let results = Serve.Daemon.results d in
            let st = Serve.Daemon.stats d in
            Serve.Daemon.stop d;
            if List.length results <> n then begin
              Printf.eprintf "isf serve: %d job(s) but %d result(s)\n" n
                (List.length results);
              exit 2
            end;
            Serve.Fleet.write_results out results;
            Printf.printf
              "isf serve: %d job(s) done (%d replayed from journal, %d \
               quarantined, %d worker(s)); results in %s\n"
              n st.Serve.Daemon.replayed st.Serve.Daemon.quarantined
              (Array.length st.Serve.Daemon.per_worker)
              out;
            if st.Serve.Daemon.uncaught > 0 then begin
              Printf.eprintf
                "isf serve: %d exception(s) escaped a worker's job wrapper\n"
                st.Serve.Daemon.uncaught;
              exit 2
            end)
  in
  let socket_arg =
    let doc =
      "Serve jobs over the Unix-domain socket at $(docv) (line protocol: \
       SUBMIT*, PROFILES, STATS, PING, QUIT; results push asynchronously \
       as RESULT* frames)."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let job_file_arg =
    let doc =
      "Drain the job file at $(docv) (one \"client job...\" per line; the \
       line number is the job id) and exit when every job has a result."
    in
    Arg.(value & opt (some string) None & info [ "job-file" ] ~docv:"FILE" ~doc)
  in
  let results_arg =
    let doc = "Where to write result lines (default: JOB-FILE.results)." in
    Arg.(value & opt (some string) None & info [ "results" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the profiling daemon: concurrent workers, bounded fair \
          admission, quarantine, journaled crash recovery")
    Term.(
      const run $ socket_arg $ job_file_arg $ results_arg $ journal_arg
      $ jobs_arg $ capacity_arg $ retries_arg $ quarantine_arg $ breaker_arg
      $ chaos_arg $ watchdog_arg $ cache_arg $ trace_arg)

(* shared by `isf merge` and `isf fleet --merge`: the merged aggregate
   rendered through the same report tables as a single profiled run *)
let print_merged ~top merged =
  let col = Profiles.Merge.to_collector merged in
  print_string (Profiles.Report.summary col);
  print_newline ();
  print_string (Profiles.Report.top ~n:top col)

let write_merged ~verb f merged =
  Out_channel.with_open_text f (fun oc ->
      output_string oc (Profiles.Merge.render merged));
  Printf.printf "isf %s: wrote merged profile to %s\n" verb f

let merge_cmd =
  let run files out top csv jobs cache =
    set_cache cache;
    let renders =
      List.map
        (fun f ->
          try In_channel.with_open_text f In_channel.input_all
          with Sys_error m ->
            prerr_endline ("isf merge: " ^ m);
            exit 2)
        files
    in
    let parsed =
      List.map2
        (fun f r ->
          try Profiles.Merge.parse r
          with Profiles.Merge.Parse_error m ->
            Printf.eprintf "isf merge: %s: %s\n" f m;
            exit 2)
        files renders
    in
    (* digest the canonical re-rendering, so a semantically identical
       shard hits the same cached aggregate however it was whitespaced *)
    let digests = List.map Profiles.Merge.digest parsed in
    let merged =
      Harness.Aggregate.merge_cached ~jobs ~digests (fun () -> parsed)
    in
    (match out with Some f -> write_merged ~verb:"merge" f merged | None -> ());
    print_merged ~top merged;
    match csv with
    | None -> ()
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (kind, text) ->
            let path = Filename.concat dir (kind ^ ".csv") in
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            Printf.printf "wrote %s\n" path)
          (Profiles.Report.to_csv (Profiles.Merge.to_collector merged))
  in
  let files_arg =
    let doc =
      "Merged-profile shard files: canonical renderings as written by \
       $(b,isf fleet --merge-out) or this command's $(b,--out)."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Also write the merged aggregate's canonical rendering to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Merge profile shards (all seven kinds) into one aggregate with \
          byte-deterministic output, independent of shard count and merge \
          order")
    Term.(
      const run $ files_arg $ out_arg $ top_arg $ csv_arg $ jobs_arg
      $ cache_arg)

let fleet_cmd =
  let run n seed clients poison engine recording emit file sequential socket
      out journal workers capacity retries quarantine_after breaker_after
      chaos watchdog cache trace merge merge_out batch window =
    install_oneshot_signals ();
    set_trace trace;
    set_cache cache;
    let config =
      serve_config ~workers ~capacity ~retries ~quarantine_after
        ~breaker_after ~chaos ~watchdog
    in
    let entries =
      match file with
      | Some f -> or_die (fun () -> Serve.Fleet.read_job_file f)
      | None ->
          Serve.Fleet.jobs ~engine ~recording ~poison ~seed ~n ()
          |> List.mapi (fun i j -> (Serve.Fleet.client_of ~clients i, j))
    in
    match emit with
    | Some f ->
        Serve.Fleet.write_job_file f entries;
        Printf.printf "isf fleet: wrote %d job(s) to %s\n"
          (List.length entries) f
    | None ->
        let want_merge = merge || merge_out <> None in
        let results, profiles, stats =
          if sequential then
            (* the byte-identity reference: no stats to compare *)
            let results, profiles =
              Serve.Fleet.run_sequential ~config entries
            in
            (results, profiles, None)
          else
            match socket with
            | Some sock ->
                let results, shed, profiles =
                  or_die (fun () ->
                      Serve.Server.client_run ~batch ~profiles:want_merge
                        ~socket:sock entries)
                in
                if shed > 0 then
                  Printf.printf
                    "isf fleet: %d submission(s) shed and retried\n" shed;
                (results, profiles, None)
            | None ->
                let meta = serve_meta ~tag:"fleet" config in
                let st, results, profiles =
                  or_die (fun () ->
                      Serve.Fleet.run_daemon ~config ?journal ~meta ?window
                        entries)
                in
                (results, profiles, Some st)
        in
        (match out with
        | Some f ->
            Serve.Fleet.write_results f results;
            Printf.printf "isf fleet: wrote %d result(s) to %s\n"
              (List.length results) f
        | None -> List.iter (fun (_, line) -> print_endline line) results);
        let uncaught =
          match stats with
          | Some st ->
              print_fleet_stats st;
              st.Serve.Fleet.uncaught
          | None -> 0
        in
        gate_fleet ~uncaught results;
        if want_merge then begin
          let merged =
            or_die (fun () ->
                Serve.Fleet.merge_profiles ~config:config.measure ~jobs:workers
                  ~entries ~results profiles)
          in
          (match merge_out with
          | Some f -> write_merged ~verb:"fleet" f merged
          | None -> ());
          if merge then begin
            print_newline ();
            print_merged ~top:10 merged
          end
        end
  in
  let n_arg =
    let doc = "How many jobs to generate." in
    Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Generation seed: the fleet is a pure function of it, so the same \
       seed reproduces the same jobs on every machine."
    in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let clients_arg =
    let doc = "Spread submissions over $(docv) round-robin client names." in
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc)
  in
  let poison_arg =
    let doc =
      "Weave $(docv) deliberately broken jobs through the fleet (each \
       fails bug-classified and must end quarantined)."
    in
    Arg.(value & opt int 0 & info [ "poison" ] ~docv:"N" ~doc)
  in
  let emit_arg =
    let doc = "Write the generated fleet to $(docv) as a job file and exit." in
    Arg.(value & opt (some string) None & info [ "emit" ] ~docv:"FILE" ~doc)
  in
  let file_arg =
    let doc = "Run the jobs in $(docv) instead of generating them." in
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc)
  in
  let sequential_arg =
    let doc =
      "Run with one worker in submission order — the byte-identity \
       reference every concurrent run must match."
    in
    Arg.(value & flag & info [ "sequential" ] ~doc)
  in
  let socket_arg =
    let doc =
      "Submit to the daemon listening on $(docv) instead of running \
       in-process."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let out_arg =
    let doc = "Write result lines to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let merge_arg =
    let doc =
      "After the run, merge every completed job's profile into one \
       aggregate (parallel merge tree, cached by input digests) and print \
       the same report tables as a single profiled run.  The aggregate is \
       byte-identical however the fleet was sharded or scheduled."
    in
    Arg.(value & flag & info [ "merge" ] ~doc)
  in
  let merge_out_arg =
    let doc =
      "Write the merged aggregate's canonical rendering to $(docv) \
       (implies the merge; readable by $(b,isf merge))."
    in
    Arg.(value & opt (some string) None & info [ "merge-out" ] ~docv:"FILE" ~doc)
  in
  let batch_arg =
    let doc =
      "Pipelined submission batch size for $(b,--socket) runs: jobs per \
       SUBMIT* frame."
    in
    Arg.(value & opt int 32 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let window_arg =
    let doc =
      "Closed-loop submission window for in-process runs: keep at most \
       $(docv) jobs outstanding and submit the next on each completion, \
       so latency percentiles measure per-job service latency instead of \
       backlog age.  Results are byte-identical either way.  Default: \
       open loop (everything submitted upfront)."
    in
    Arg.(value & opt (some int) None & info [ "window" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Generate and run a deterministic fleet of mixed-scale profiling \
          jobs against the serve engine")
    Term.(
      const run $ n_arg $ seed_arg $ clients_arg $ poison_arg $ engine_arg
      $ recording_arg $ emit_arg $ file_arg $ sequential_arg $ socket_arg
      $ out_arg $ journal_arg $ jobs_arg $ capacity_arg $ retries_arg
      $ quarantine_arg $ breaker_arg $ chaos_arg $ watchdog_arg $ cache_arg
      $ trace_arg $ merge_arg $ merge_out_arg $ batch_arg $ window_arg)

let main =
  let doc =
    "Instrumentation sampling framework (Arnold & Ryder, PLDI 2001) — \
     reproduction CLI"
  in
  Cmd.group (Cmd.info "isf" ~doc)
    [
      list_cmd;
      run_cmd;
      exec_cmd;
      profile_cmd;
      dump_cmd;
      table_cmd;
      all_cmd;
      ablation_cmd;
      serve_cmd;
      fleet_cmd;
      merge_cmd;
    ]

let () =
  install_oneshot_signals ();
  exit (Cmd.eval main)
