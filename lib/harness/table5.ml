(* Table 5: counter-based vs time-based trigger accuracy, Full-Duplication
   with field-access instrumentation.

   Paper: time-based averaged 63% overlap vs 84% for counter-based at a
   matched number of samples (counter interval 30,000), because the
   timer-set bit is observed at the *next* check, mis-attributing samples
   to whatever follows long instruction sequences (section 2.1). *)

type meas = {
  time_based : float;
  counter_based : float;
  matched_interval : int; (* counter interval chosen to match sample counts *)
}

type row = { bench : string; meas : meas Robust.outcome }

let time_based r = match r.meas with Ok m -> m.time_based | Error _ -> Float.nan

let counter_based r =
  match r.meas with Ok m -> m.counter_based | Error _ -> Float.nan

let paper =
  [
    ("compress", 88.0, 98.0);
    ("jess", 91.0, 95.0);
    ("db", 66.0, 95.0);
    ("javac", 59.0, 73.0);
    ("mpegaudio", 69.0, 95.0);
    ("mtrt", 51.0, 67.0);
    ("jack", 45.0, 94.0);
    ("opt_compiler", 58.0, 65.0);
    ("pbob", 75.0, 87.0);
    ("volano", 27.0, 71.0);
  ]

let transform = Core.Transform.full_dup Core.Spec.field_access

(* Pure-data description for Schedule.  The matched-interval counter
   run depends on the timer run's sample count, so it cannot be
   described up front; the cell computes it on demand. *)
let requests ?scale ?benches () =
  let benches =
    match benches with Some l -> l | None -> Common.benchmarks ()
  in
  List.concat_map
    (fun (bench : Workloads.Suite.benchmark) ->
      let b = bench.Workloads.Suite.bname in
      [
        Schedule.baseline ?scale b;
        Schedule.instrumented ?scale ~variant:Schedule.Full_dup
          ~specs:[ "field-access" ] ~trigger:Core.Sampler.Always b;
        Schedule.instrumented ?scale ~variant:Schedule.Full_dup
          ~specs:[ "field-access" ] ~trigger:Core.Sampler.Timer_bit
          ~timer_period:25_000 b;
      ])
    benches

let run ?config ?scale ?jobs ?benches () =
  let scope = Measure.scope ?config ?scale () in
  let benches =
    match benches with Some l -> l | None -> Common.benchmarks ()
  in
  let progress =
    Pool.Progress.create ~label:"table5" ~total:(List.length benches) ()
  in
  let rows =
    Pool.map ?jobs
      (fun bench ->
        let meas =
          Robust.cell ~scope
            ~key:(Printf.sprintf "table5/%s" bench.Workloads.Suite.bname)
            (fun () ->
              let build = Measure.prepare ?config ?scale bench in
              let base = Measure.run_baseline build in
              let perfect_fa =
                let m =
                  Measure.run_transformed ~trigger:Core.Sampler.Always
                    ~transform build
                in
                Profiles.Field_access.to_keyed
                  m.Measure.collector.Profiles.Collector.fields
              in
              (* the paper's 10 ms timer on 1-5 s runs yields hundreds of
                 samples; our runs are shorter, so the simulated timer
                 period is scaled to 25k cycles ("2.5 ms") to keep the
                 sample counts comparable *)
              let timer =
                Measure.run_transformed ~trigger:Core.Sampler.Timer_bit
                  ~timer_period:25_000 ~transform build
              in
              Measure.check_output ~base timer;
              let timer_acc =
                Profiles.Overlap.percent perfect_fa
                  (Profiles.Field_access.to_keyed
                     timer.Measure.collector.Profiles.Collector.fields)
              in
              (* match the counter's sample count to the timer's, as the
                 paper does ("a sample interval of 30,000 ... resulted in
                 approximately the same number of samples") *)
              let interval =
                max 1 (timer.Measure.checks / max 1 timer.Measure.samples)
              in
              let counter =
                Measure.run_transformed
                  ~trigger:(Core.Sampler.Counter { interval; jitter = 0 })
                  ~transform build
              in
              let counter_acc =
                Profiles.Overlap.percent perfect_fa
                  (Profiles.Field_access.to_keyed
                     counter.Measure.collector.Profiles.Collector.fields)
              in
              {
                time_based = timer_acc;
                counter_based = counter_acc;
                matched_interval = interval;
              })
        in
        Pool.Progress.step progress;
        { bench = bench.Workloads.Suite.bname; meas })
      benches
  in
  Pool.Progress.finish progress;
  rows

let failures rows = Robust.errors (List.map (fun r -> r.meas) rows)

let average rows =
  let ms = Robust.oks (List.map (fun r -> r.meas) rows) in
  ( Common.mean (List.map (fun m -> m.time_based) ms),
    Common.mean (List.map (fun m -> m.counter_based) ms) )

let to_string rows =
  let t, c = average rows in
  Text_table.render
    ~header:
      [ "Benchmark"; "Time-based (%)"; "Counter-based (%)"; "Interval used" ]
    (List.map
       (fun r ->
         r.bench
         ::
         (match r.meas with
         | Ok m ->
             [
               Text_table.pct m.time_based;
               Text_table.pct m.counter_based;
               string_of_int m.matched_interval;
             ]
         | Error _ -> [ "ERR"; "ERR"; "ERR" ]))
       rows
    @ [ [ "Average"; Text_table.pct t; Text_table.pct c; "" ] ])

let print rows =
  print_string
    "Table 5: trigger-mechanism accuracy, field-access profile overlap\n";
  print_string (to_string rows);
  match failures rows with
  | [] -> ()
  | fs -> print_string (Robust.report fs)
