(* Table 2: Full-Duplication framework overhead — no samples taken, so
   everything measured here is the cost of the framework itself: the
   counter-based checks on entries/backedges plus indirect effects of
   doubling the code (i-cache).

   Paper: total averages 4.9%; compress/mpegaudio are backedge-dominated,
   javac/opt-compiler entry-dominated; space roughly doubles; compile
   time increases 34% on average (the doubling happens late, so only
   instruction selection / scheduling / register allocation see 2x
   code). *)

type meas = {
  total : float; (* full framework (duplication + all checks), no samples *)
  backedge_only : float; (* checks on backedges only, no duplication *)
  entry_only : float; (* checks on entries only, no duplication *)
  space_increase_kb : float;
  compile_increase : float; (* percent *)
}

type row = { bench : string; meas : meas Robust.outcome }

(* Field of a row for shape checks and downstream tables; NaN when the
   row's cell failed, which poisons any comparison into a shape FAIL
   rather than silently passing. *)
let get f r = match r.meas with Ok m -> f m | Error _ -> Float.nan

let paper =
  [
    ("compress", 8.7, 8.3, 0.9, 106.0, 37.0);
    ("jess", 3.3, 2.9, 0.1, 244.0, 37.0);
    ("db", 2.1, 1.8, 0.2, 123.0, 34.0);
    ("javac", 2.7, 0.2, 1.4, 442.0, 38.0);
    ("mpegaudio", 9.9, 9.0, 0.8, 156.0, 31.0);
    ("mtrt", 3.4, 2.0, 2.4, 163.0, 31.0);
    ("jack", 8.4, 6.6, 1.2, 258.0, 18.0);
    ("opt_compiler", 6.2, 2.1, 4.4, 976.0, 48.0);
    ("pbob", 3.8, 2.5, 0.9, 306.0, 37.0);
    ("volano", 1.4, 0.3, 1.0, 75.0, 32.0);
  ]

let words_to_kb w = float_of_int (w * 4) /. 1024.0

(* Pure-data description of this table's measurements for Schedule;
   compile_stats is wall-clock (never cached) and so never requested. *)
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
          ~specs:[ "call-edge"; "field-access" ] b;
        Schedule.instrumented ?scale
          ~variant:(Schedule.Checks_only { entries = false; backedges = true })
          ~specs:[] b;
        Schedule.instrumented ?scale
          ~variant:(Schedule.Checks_only { entries = true; backedges = false })
          ~specs:[] b;
      ])
    benches

let run ?config ?scale ?jobs ?benches ?(measure_compile = true) () =
  let scope = Measure.scope ?config ?scale () in
  let benches =
    match benches with Some l -> l | None -> Common.benchmarks ()
  in
  let progress =
    Pool.Progress.create ~label:"table2" ~total:(List.length benches) ()
  in
  let rows =
    Pool.map ?jobs
      (fun bench ->
        let meas =
          Robust.cell ~scope
            ~key:(Printf.sprintf "table2/%s" bench.Workloads.Suite.bname)
            (fun () ->
              let build = Measure.prepare ?config ?scale bench in
              let base = Measure.run_baseline build in
              let full =
                Measure.run_transformed
                  ~transform:(Core.Transform.full_dup Common.both_specs)
                  build
              in
              Measure.check_output ~base full;
              let be =
                Measure.run_transformed
                  ~transform:
                    (Core.Transform.checks_only ~entries:false ~backedges:true)
                  build
              in
              let en =
                Measure.run_transformed
                  ~transform:
                    (Core.Transform.checks_only ~entries:true ~backedges:false)
                  build
              in
              let compile_increase =
                (* the only wall-clock (nondeterministic) measurement
                   anywhere; skipped (NaN, printed "-") in
                   fully-deterministic mode *)
                if not measure_compile then Float.nan
                else begin
                  let base_compile, instr_compile =
                    Measure.compile_stats
                      ~transform:(Core.Transform.full_dup Common.both_specs)
                      build
                  in
                  let tot (s : Opt.Pipeline.compile_stats) =
                    s.Opt.Pipeline.seconds_front
                    +. s.Opt.Pipeline.seconds_transform
                    +. s.Opt.Pipeline.seconds_back
                  in
                  if tot base_compile <= 0.0 then 0.0
                  else
                    100.0
                    *. (tot instr_compile -. tot base_compile)
                    /. tot base_compile
                end
              in
              {
                total = Measure.overhead_pct ~base full;
                backedge_only = Measure.overhead_pct ~base be;
                entry_only = Measure.overhead_pct ~base en;
                space_increase_kb =
                  words_to_kb
                    (full.Measure.code_words - base.Measure.code_words);
                compile_increase;
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
  ( Common.mean (List.map (fun m -> m.total) ms),
    Common.mean (List.map (fun m -> m.backedge_only) ms),
    Common.mean (List.map (fun m -> m.entry_only) ms),
    Common.mean (List.map (fun m -> m.space_increase_kb) ms),
    Common.mean (List.map (fun m -> m.compile_increase) ms) )

let opt_pct v = if Float.is_nan v then "-" else Text_table.pct v

let to_string rows =
  let t, b, e, s, c = average rows in
  Text_table.render
    ~header:
      [
        "Benchmark";
        "Total (%)";
        "Backedges (%)";
        "Entries (%)";
        "Space (KB)";
        "Compile (+%)";
      ]
    (List.map
       (fun r ->
         r.bench
         ::
         (match r.meas with
         | Ok m ->
             [
               Text_table.pct m.total;
               Text_table.pct m.backedge_only;
               Text_table.pct m.entry_only;
               Text_table.pct m.space_increase_kb;
               opt_pct m.compile_increase;
             ]
         | Error _ -> [ "ERR"; "ERR"; "ERR"; "ERR"; "ERR" ]))
       rows
    @ [
        [
          "Average";
          Text_table.pct t;
          Text_table.pct b;
          Text_table.pct e;
          Text_table.pct s;
          opt_pct c;
        ];
      ])

let print rows =
  print_string
    "Table 2: Full-Duplication framework overhead (no samples taken)\n";
  print_string (to_string rows);
  match failures rows with
  | [] -> ()
  | fs -> print_string (Robust.report fs)
