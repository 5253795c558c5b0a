(* Table 4: overhead and accuracy of SAMPLED instrumentation vs sample
   interval, for Full-Duplication and No-Duplication, with call-edge and
   field-access instrumentation applied together in the same run.

   Paper: at interval 1000 accuracy stays 93-98% while the
   sampled-instrumentation overhead (above the framework's own) drops
   under 1%; accuracy only collapses around interval 100,000 where too
   few samples remain; No-Duplication's total stays high because its
   field-access checking overhead dominates. *)

type cell = {
  interval : int;
  num_samples : float; (* average over benchmarks *)
  sampled_instr : float; (* total minus framework overhead, % *)
  total : float; (* vs non-instrumented baseline, % *)
  acc_call_edge : float; (* overlap vs perfect profile, % *)
  acc_field : float;
}

type rows = {
  full_dup : cell list;
  no_dup : cell list;
  failures : Robust.failure list;
}

(* Paper's averaged figures (sample interval, samples, sampled-instr %,
   total %, call-edge accuracy %, field-access accuracy %). *)
let paper_full_dup =
  [
    (1, 1.1e7, 167.2, 182.2, 100.0, 100.0);
    (10, 1.1e6, 26.4, 29.3, 99.0, 100.0);
    (100, 1.1e5, 4.2, 10.3, 98.0, 99.0);
    (1_000, 1.1e4, 0.8, 6.3, 94.0, 97.0);
    (10_000, 1137.0, 0.1, 5.1, 82.0, 94.0);
    (100_000, 109.0, 0.1, 5.0, 71.0, 83.0);
  ]

let paper_no_dup =
  [
    (1, 6.7e7, 118.2, 269.1, 100.0, 100.0);
    (10, 6.7e6, 22.8, 79.5, 98.0, 100.0);
    (100, 6.7e5, 3.6, 61.3, 97.0, 99.0);
    (1_000, 6.7e4, 1.0, 57.2, 93.0, 98.0);
    (10_000, 6736.0, 0.2, 55.7, 81.0, 96.0);
    (100_000, 662.0, 0.2, 55.2, 70.0, 87.0);
  ]

let variant_of_name = function
  | `Full -> Core.Transform.full_dup Common.both_specs
  | `No -> Core.Transform.no_dup Common.both_specs

let variant_slug = function `Full -> "full" | `No -> "no"

let sweep ?config ?scale ?jobs ~progress benches variant =
  let transform = variant_of_name variant in
  let slug = variant_slug variant in
  (* per-benchmark framework overhead of this variant (trigger Never);
     the per-interval cells re-derive build/baseline through the memo
     caches *)
  let framework =
    Pool.map ?jobs
      (fun bench ->
        let r =
          Robust.cell
            ~key:
              (Printf.sprintf "table4/%s/framework/%s" slug
                 bench.Workloads.Suite.bname)
            (fun () ->
              let build = Measure.prepare ?config ?scale bench in
              let base = Measure.run_baseline build in
              let fw = Measure.run_transformed ~transform build in
              Measure.overhead_pct ~base fw)
        in
        Pool.Progress.step progress;
        (bench, r))
      benches
  in
  (* one cell per (interval, benchmark), regrouped by interval below *)
  let cells =
    List.concat_map
      (fun interval -> List.map (fun fw -> (interval, fw)) framework)
      Common.sample_intervals
  in
  let per_cell =
    Pool.map ?jobs
      (fun (interval, (bench, fw_outcome)) ->
        let key =
          Printf.sprintf "table4/%s/%d/%s" slug interval
            bench.Workloads.Suite.bname
        in
        let r =
          match fw_outcome with
          | Error f ->
              (* the sampled-instr column needs the framework number;
                 don't run a cell whose input is missing, report the
                 dependency instead *)
              Error
                {
                  Robust.key;
                  classification = "dependency";
                  attempts = 0;
                  message = "framework cell failed: " ^ f.Robust.message;
                  backtrace = "";
                }
          | Ok fw_pct ->
              Robust.cell ~key (fun () ->
                  let build = Measure.prepare ?config ?scale bench in
                  let base = Measure.run_baseline build in
                  let m =
                    Measure.run_transformed
                      ~trigger:(Core.Sampler.Counter { interval; jitter = 0 })
                      ~transform build
                  in
                  Measure.check_output ~base m;
                  let perfect_ce, perfect_fa = Common.perfect_profiles build in
                  let sampled_ce =
                    Profiles.Call_edge.to_keyed
                      m.Measure.collector.Profiles.Collector.call_edges
                  in
                  let sampled_fa =
                    Profiles.Field_access.to_keyed
                      m.Measure.collector.Profiles.Collector.fields
                  in
                  let total = Measure.overhead_pct ~base m in
                  ( float_of_int m.Measure.samples,
                    total -. fw_pct,
                    total,
                    Profiles.Overlap.percent perfect_ce sampled_ce,
                    Profiles.Overlap.percent perfect_fa sampled_fa ))
        in
        Pool.Progress.step progress;
        r)
      cells
  in
  let nb = List.length benches in
  let aggregated =
    List.mapi
      (fun i interval ->
        let per_bench = List.filteri (fun j _ -> j / nb = i) per_cell in
        let vals = Robust.oks per_bench in
        let nth f = Common.mean (List.map f vals) in
        {
          interval;
          num_samples = nth (fun (s, _, _, _, _) -> s);
          sampled_instr = nth (fun (_, si, _, _, _) -> si);
          total = nth (fun (_, _, t, _, _) -> t);
          acc_call_edge = nth (fun (_, _, _, a, _) -> a);
          acc_field = nth (fun (_, _, _, _, a) -> a);
        })
      Common.sample_intervals
  in
  (aggregated, Robust.errors (List.map snd framework) @ Robust.errors per_cell)

(* Pure-data description of the sweep's measurements for Schedule; each
   per-interval cell also re-derives its baseline and the perfect
   profile (Common.perfect_profiles), so those are requested per cell
   and collapse in the global dedupe. *)
let requests ?scale ?benches () =
  let benches =
    match benches with Some l -> l | None -> Common.benchmarks ()
  in
  let both = [ "call-edge"; "field-access" ] in
  List.concat_map
    (fun variant ->
      let v =
        match variant with `Full -> Schedule.Full_dup | `No -> Schedule.No_dup
      in
      List.concat_map
        (fun (bench : Workloads.Suite.benchmark) ->
          let b = bench.Workloads.Suite.bname in
          [
            Schedule.baseline ?scale b;
            Schedule.instrumented ?scale ~variant:v ~specs:both b;
          ])
        benches
      @ List.concat_map
          (fun interval ->
            List.concat_map
              (fun (bench : Workloads.Suite.benchmark) ->
                let b = bench.Workloads.Suite.bname in
                [
                  Schedule.baseline ?scale b;
                  Schedule.instrumented ?scale ~variant:v ~specs:both
                    ~trigger:(Core.Sampler.Counter { interval; jitter = 0 })
                    b;
                  Schedule.instrumented ?scale ~variant:Schedule.Full_dup
                    ~specs:both ~trigger:Core.Sampler.Always b;
                ])
              benches)
          Common.sample_intervals)
    [ `Full; `No ]

let run ?config ?scale ?jobs ?benches () =
  let benches =
    match benches with Some l -> l | None -> Common.benchmarks ()
  in
  let cells_per_variant =
    List.length benches * (1 + List.length Common.sample_intervals)
  in
  let progress =
    Pool.Progress.create ~label:"table4" ~total:(2 * cells_per_variant) ()
  in
  let sweep = sweep ?config ?scale ?jobs ~progress benches in
  let full_dup, full_fails = sweep `Full in
  let no_dup, no_fails = sweep `No in
  Pool.Progress.finish progress;
  { full_dup; no_dup; failures = full_fails @ no_fails }

let cells_to_string title cells =
  title ^ "\n"
  ^ Text_table.render
      ~header:
        [
          "Interval";
          "Samples";
          "SampledInstr (%)";
          "Total (%)";
          "CallEdge acc (%)";
          "FieldAcc acc (%)";
        ]
      (List.map
         (fun c ->
           [
             string_of_int c.interval;
             Printf.sprintf "%.0f" c.num_samples;
             Text_table.pct c.sampled_instr;
             Text_table.pct c.total;
             Text_table.pct c.acc_call_edge;
             Text_table.pct c.acc_field;
           ])
         cells)

let to_string r =
  cells_to_string "Full-Duplication" r.full_dup
  ^ "\n"
  ^ cells_to_string "No-Duplication" r.no_dup

let print r =
  print_string
    "Table 4: sampled instrumentation overhead and accuracy (averaged over \
     all benchmarks)\n";
  print_string (to_string r);
  match r.failures with [] -> () | fs -> print_string (Robust.report fs)
