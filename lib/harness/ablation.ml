(* Ablation studies for the design choices the paper discusses but does
   not table:

   A1 — deterministic vs randomized sample interval (section 4.4: "adding
        a small random factor to the sample interval ... could possibly
        even increase the accuracy in the expected case").  Our synthetic
        loops are more periodic than SPECjvm98, so the aliasing worst
        case is visible and the jitter repairs it.
   A2 — naive 5-instruction check vs a PowerPC-style decrement-and-check
        single instruction (section 2.2's hardware remark).
   A3 — duplication strategy (Full / Partial / No) vs instrumentation
        density: code size and overhead, the section 3 trade-off.
   A4 — global vs per-thread sampling counter on the threaded benchmarks
        (section 2.2's multiprocessor concern). *)

module Lir = Ir.Lir

let both = Common.both_specs

(* ------------------------------------------------------------------ *)
(* A1: trigger determinism                                             *)
(* ------------------------------------------------------------------ *)

type a1_row = {
  a1_bench : string;
  interval : int;
  det_acc : float;
  jit_acc : float;
}

let run_a1 ?config ?scale ?jobs () =
  let cells =
    List.concat_map
      (fun bname -> List.map (fun i -> (bname, i)) [ 10; 100; 1000 ])
      [ "mpegaudio"; "compress"; "jess"; "javac" ]
  in
  Pool.map ?jobs
    (fun (bname, interval) ->
      let build = Measure.prepare ?config ?scale (Workloads.Suite.find bname) in
      let perfect_ce, _ = Common.perfect_profiles build in
      let acc jitter =
        let m =
          Measure.run_transformed
            ~trigger:(Core.Sampler.Counter { interval; jitter })
            ~transform:(Core.Transform.full_dup both)
            build
        in
        Profiles.Overlap.percent perfect_ce
          (Profiles.Call_edge.to_keyed
             m.Measure.collector.Profiles.Collector.call_edges)
      in
      {
        a1_bench = bname;
        interval;
        det_acc = acc 0;
        jit_acc = acc (max 1 (interval / 4));
      })
    cells

let a1_to_string rows =
  "Ablation A1: deterministic vs randomized sample interval (call-edge \
   accuracy)\n"
  ^ Text_table.render
      ~header:[ "Benchmark"; "Interval"; "Deterministic (%)"; "Jittered (%)" ]
      (List.map
         (fun r ->
           [
             r.a1_bench;
             string_of_int r.interval;
             Text_table.pct r.det_acc;
             Text_table.pct r.jit_acc;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* A2: check implementation cost                                       *)
(* ------------------------------------------------------------------ *)

type a2_row = { a2_bench : string; naive : float; count_register : float }

let framework_overhead_with costs build =
  let transform f = (Core.Transform.full_dup both f).Core.Transform.func in
  let funcs = List.map transform build.Measure.base_funcs in
  let run fs =
    Vm.Interp.run ~use_icache:true ~costs
      (Vm.Program.link build.Measure.classes ~funcs:fs)
      ~entry:Workloads.Suite.entry
      ~args:[ build.Measure.scale ]
      Vm.Interp.null_hooks
  in
  let base = run build.Measure.base_funcs in
  let instr = run funcs in
  100.0
  *. float_of_int (instr.Vm.Interp.cycles - base.Vm.Interp.cycles)
  /. float_of_int base.Vm.Interp.cycles

let run_a2 ?config ?scale ?jobs () =
  Pool.map ?jobs
    (fun bench ->
      let build = Measure.prepare ?config ?scale bench in
      {
        a2_bench = bench.Workloads.Suite.bname;
        naive = framework_overhead_with Vm.Costs.default build;
        count_register =
          framework_overhead_with Vm.Costs.hardware_count_register build;
      })
    (Common.benchmarks ())

let a2_to_string rows =
  "Ablation A2: naive check vs hardware decrement-and-check (framework \
   overhead)\n"
  ^ Text_table.render
      ~header:[ "Benchmark"; "Naive 5-op check (%)"; "Count register (%)" ]
      (List.map
         (fun r ->
           [
             r.a2_bench;
             Text_table.pct r.naive;
             Text_table.pct r.count_register;
           ])
         rows
      @ [
          [
            "Average";
            Text_table.pct (Common.mean (List.map (fun r -> r.naive) rows));
            Text_table.pct
              (Common.mean (List.map (fun r -> r.count_register) rows));
          ];
        ])

(* ------------------------------------------------------------------ *)
(* A3: duplication strategy vs instrumentation density                 *)
(* ------------------------------------------------------------------ *)

type a3_row = {
  density : string;
  variant : string;
  space_ratio : float; (* code words vs baseline *)
  framework : float; (* checking overhead, no samples *)
  sampled_1000 : float; (* total overhead at interval 1000 *)
}

let run_a3 ?config ?scale ?jobs () =
  let build = Measure.prepare ?config ?scale (Workloads.Suite.find "javac") in
  let base = Measure.run_baseline build in
  let cells =
    List.concat_map
      (fun (density, spec) ->
        List.map
          (fun (variant, transform) -> (density, variant, transform))
          [
            ("full-dup", Core.Transform.full_dup spec);
            ("partial-dup", Core.Transform.partial_dup spec);
            ("no-dup", Core.Transform.no_dup spec);
          ])
      [
        ("sparse (call-edge)", Core.Spec.call_edge);
        ("dense (call-edge+field)", both);
      ]
  in
  Pool.map ?jobs
    (fun (density, variant, transform) ->
      let fw = Measure.run_transformed ~transform build in
      let sampled =
        Measure.run_transformed
          ~trigger:(Core.Sampler.Counter { interval = 1_000; jitter = 0 })
          ~transform build
      in
      {
        density;
        variant;
        space_ratio =
          float_of_int fw.Measure.code_words
          /. float_of_int base.Measure.code_words;
        framework = Measure.overhead_pct ~base fw;
        sampled_1000 = Measure.overhead_pct ~base sampled;
      })
    cells

let a3_to_string rows =
  "Ablation A3: duplication strategy vs instrumentation density (javac)\n"
  ^ Text_table.render
      ~header:
        [ "Density"; "Variant"; "Space ratio"; "Framework (%)"; "Sampled@1000 (%)" ]
      (List.map
         (fun r ->
           [
             r.density;
             r.variant;
             Printf.sprintf "%.2f" r.space_ratio;
             Text_table.pct r.framework;
             Text_table.pct r.sampled_1000;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* A4: global vs per-thread counter                                    *)
(* ------------------------------------------------------------------ *)

type a4_row = {
  a4_bench : string;
  global_acc : float;
  per_thread_acc : float;
  global_samples : int;
  per_thread_samples : int;
}

let run_a4 ?config ?scale ?jobs () =
  Pool.map ?jobs
    (fun bname ->
      let build = Measure.prepare ?config ?scale (Workloads.Suite.find bname) in
      let perfect_ce, _ = Common.perfect_profiles build in
      let run trigger =
        let m =
          Measure.run_transformed ~trigger
            ~transform:(Core.Transform.full_dup both)
            build
        in
        ( Profiles.Overlap.percent perfect_ce
            (Profiles.Call_edge.to_keyed
               m.Measure.collector.Profiles.Collector.call_edges),
          m.Measure.samples )
      in
      let ga, gs = run (Core.Sampler.Counter { interval = 500; jitter = 0 }) in
      let pa, ps = run (Core.Sampler.Counter_per_thread { interval = 500 }) in
      {
        a4_bench = bname;
        global_acc = ga;
        per_thread_acc = pa;
        global_samples = gs;
        per_thread_samples = ps;
      })
    [ "pbob"; "volano" ]

let a4_to_string rows =
  "Ablation A4: global vs per-thread sampling counter (threaded \
   benchmarks, call-edge accuracy)\n"
  ^ Text_table.render
      ~header:
        [
          "Benchmark";
          "Global acc (%)";
          "Per-thread acc (%)";
          "Global samples";
          "Per-thread samples";
        ]
      (List.map
         (fun r ->
           [
             r.a4_bench;
             Text_table.pct r.global_acc;
             Text_table.pct r.per_thread_acc;
             string_of_int r.global_samples;
             string_of_int r.per_thread_samples;
           ])
         rows)

(* Pure-data description of the ablations' measurements for Schedule.
   A2 calls Vm.Interp.run directly with swapped cost tables — it
   bypasses Measure entirely and is neither cached nor requested. *)
let requests ?scale () =
  let both_names = [ "call-edge"; "field-access" ] in
  let perfect ?scale b =
    Schedule.instrumented ?scale ~variant:Schedule.Full_dup ~specs:both_names
      ~trigger:Core.Sampler.Always b
  in
  let a1 =
    List.concat_map
      (fun bname ->
        List.concat_map
          (fun interval ->
            [
              perfect ?scale bname;
              Schedule.instrumented ?scale ~variant:Schedule.Full_dup
                ~specs:both_names
                ~trigger:(Core.Sampler.Counter { interval; jitter = 0 })
                bname;
              Schedule.instrumented ?scale ~variant:Schedule.Full_dup
                ~specs:both_names
                ~trigger:
                  (Core.Sampler.Counter
                     { interval; jitter = max 1 (interval / 4) })
                bname;
            ])
          [ 10; 100; 1000 ])
      [ "mpegaudio"; "compress"; "jess"; "javac" ]
  in
  let a3 =
    Schedule.baseline ?scale "javac"
    :: List.concat_map
         (fun specs ->
           List.concat_map
             (fun variant ->
               [
                 Schedule.instrumented ?scale ~variant ~specs "javac";
                 Schedule.instrumented ?scale ~variant ~specs
                   ~trigger:
                     (Core.Sampler.Counter { interval = 1_000; jitter = 0 })
                   "javac";
               ])
             [ Schedule.Full_dup; Schedule.Partial_dup; Schedule.No_dup ])
         [ [ "call-edge" ]; both_names ]
  in
  let a4 =
    List.concat_map
      (fun bname ->
        [
          perfect ?scale bname;
          Schedule.instrumented ?scale ~variant:Schedule.Full_dup
            ~specs:both_names
            ~trigger:(Core.Sampler.Counter { interval = 500; jitter = 0 })
            bname;
          Schedule.instrumented ?scale ~variant:Schedule.Full_dup
            ~specs:both_names
            ~trigger:(Core.Sampler.Counter_per_thread { interval = 500 })
            bname;
        ])
      [ "pbob"; "volano" ]
  in
  a1 @ a3 @ a4

let run_all ?config ?scale ?jobs () =
  Schedule.prewarm ?config ?jobs (requests ?scale ());
  print_string (a1_to_string (run_a1 ?config ?scale ?jobs ()));
  print_newline ();
  print_string (a2_to_string (run_a2 ?config ?scale ?jobs ()));
  print_newline ();
  print_string (a3_to_string (run_a3 ?config ?scale ?jobs ()));
  print_newline ();
  print_string (a4_to_string (run_a4 ?config ?scale ?jobs ()))
