(* Figure 8: the Jalapeno-specific yieldpoint optimization (section 4.5).

   (A) framework overhead per benchmark with yieldpoints moved into the
       duplicated code — the checks absorb the yieldpoint cost, dropping
       the paper's 4.9% average to 1.4%;
   (B) total sampling overhead (both instrumentations) vs sample
       interval, converging to ~1.5% instead of ~5%. *)

type row_a = { bench : string; framework : float Robust.outcome }

type row_b = { interval : int; total : float }

type data = { a : row_a list; b : row_b list; failures : Robust.failure list }

let paper_a =
  [
    ("compress", 1.4);
    ("jess", -0.5);
    ("db", 1.6);
    ("javac", 2.2);
    ("mpegaudio", -2.1);
    ("mtrt", 1.9);
    ("jack", 0.8);
    ("opt_compiler", 4.8);
    ("pbob", 1.4);
    ("volano", 0.5);
  ]

let paper_b =
  [
    (1, 179.9);
    (10, 27.6);
    (100, 8.1);
    (1_000, 3.0);
    (10_000, 1.5);
    (100_000, 1.5);
  ]

let transform = Core.Transform.full_dup_yieldpoint_opt Common.both_specs

(* Pure-data description for Schedule. *)
let requests ?scale ?benches () =
  let benches =
    match benches with Some l -> l | None -> Common.benchmarks ()
  in
  let both = [ "call-edge"; "field-access" ] in
  List.concat_map
    (fun (bench : Workloads.Suite.benchmark) ->
      let b = bench.Workloads.Suite.bname in
      [
        Schedule.baseline ?scale b;
        Schedule.instrumented ?scale ~variant:Schedule.Yp_opt ~specs:both b;
      ])
    benches
  @ List.concat_map
      (fun interval ->
        List.concat_map
          (fun (bench : Workloads.Suite.benchmark) ->
            let b = bench.Workloads.Suite.bname in
            [
              Schedule.baseline ?scale b;
              Schedule.instrumented ?scale ~variant:Schedule.Yp_opt
                ~specs:both
                ~trigger:(Core.Sampler.Counter { interval; jitter = 0 })
                b;
            ])
          benches)
      Common.sample_intervals

let run ?config ?scale ?jobs ?benches () =
  let benches =
    match benches with Some l -> l | None -> Common.benchmarks ()
  in
  let nb = List.length benches in
  let ni = List.length Common.sample_intervals in
  let progress =
    Pool.Progress.create ~label:"figure8" ~total:(nb + (ni * nb)) ()
  in
  let a =
    Pool.map ?jobs
      (fun bench ->
        let framework =
          Robust.cell
            ~key:(Printf.sprintf "figure8/a/%s" bench.Workloads.Suite.bname)
            (fun () ->
              let build = Measure.prepare ?config ?scale bench in
              let base = Measure.run_baseline build in
              let fw = Measure.run_transformed ~transform build in
              Measure.check_output ~base fw;
              Measure.overhead_pct ~base fw)
        in
        Pool.Progress.step progress;
        { bench = bench.Workloads.Suite.bname; framework })
      benches
  in
  (* one cell per (interval, benchmark) *)
  let cells =
    List.concat_map
      (fun interval -> List.map (fun b -> (interval, b)) benches)
      Common.sample_intervals
  in
  let totals =
    Pool.map ?jobs
      (fun (interval, bench) ->
        let r =
          Robust.cell
            ~key:
              (Printf.sprintf "figure8/b/%d/%s" interval
                 bench.Workloads.Suite.bname)
            (fun () ->
              let build = Measure.prepare ?config ?scale bench in
              let base = Measure.run_baseline build in
              let m =
                Measure.run_transformed
                  ~trigger:(Core.Sampler.Counter { interval; jitter = 0 })
                  ~transform build
              in
              Measure.overhead_pct ~base m)
        in
        Pool.Progress.step progress;
        r)
      cells
  in
  Pool.Progress.finish progress;
  let b =
    List.mapi
      (fun i interval ->
        let mine = List.filteri (fun j _ -> j / nb = i) totals in
        { interval; total = Common.mean (Robust.oks mine) })
      Common.sample_intervals
  in
  {
    a;
    b;
    failures =
      Robust.errors (List.map (fun r -> r.framework) a)
      @ Robust.errors totals;
  }

let to_string d =
  "Figure 8 (A): framework overhead with the yieldpoint optimization\n"
  ^ Text_table.render
      ~header:[ "Benchmark"; "Framework (%)" ]
      (List.map
         (fun r -> [ r.bench; Robust.cell_str Text_table.pct r.framework ])
         d.a
      @ [
          [
            "Average";
            Text_table.pct
              (Common.mean
                 (Robust.oks (List.map (fun r -> r.framework) d.a)));
          ];
        ])
  ^ "\nFigure 8 (B): total sampling overhead vs interval (avg over benchmarks)\n"
  ^ Text_table.render
      ~header:[ "Interval"; "Total (%)" ]
      (List.map
         (fun r -> [ string_of_int r.interval; Text_table.pct r.total ])
         d.b)

let print d =
  print_string "Figure 8: Jalapeno-specific yieldpoint optimization\n";
  print_string (to_string d);
  match d.failures with [] -> () | fs -> print_string (Robust.report fs)
