(* Adaptive experiment (DESIGN.md §9): closes the FDO loop and measures
   what it buys.

   Per benchmark, three runs of the same exhaustively-instrumented code
   (call-edge + field-access + edge-profile — the profiles the
   controller steers by):

   - baseline:      uninstrumented (the usual overhead denominator);
   - instrumented:  exhaustive instrumentation, adaptive loop OFF —
                    the paper's "too expensive to execute unnoticed"
                    configuration;
   - adaptive:      the same code with the loop ON: the overhead-budget
                    governor (budget in points, default 10) strips and
                    dilates against the live icycles ratio while the
                    controller inlines hot sampled call edges and
                    block-reorders hot methods.

   Columns: overhead of the instrumented and adaptive runs over the
   baseline, the speedup the loop bought (instrumented / adaptive
   cycles), the achieved instrumentation overhead (the governor's own
   metric, {!Adaptive.Budget.overhead}, to compare against the budget),
   and the number of adaptive decisions taken.

   Not part of `isf table all` — everything there keeps its
   byte-identical loop-off output; this table exists to measure the
   loop. *)

type nums = {
  instr_oh : float;  (* instrumented-over-baseline overhead, % *)
  adaptive_oh : float;  (* adaptive-over-baseline overhead, % *)
  speedup : float;  (* instrumented cycles / adaptive cycles *)
  achieved : float;  (* achieved instrumentation overhead, points *)
  ndecisions : int;
}

type row = { bench : string; budget : float; nums : nums Robust.outcome }

let spec =
  Core.Spec.combine
    [ Core.Spec.call_edge; Core.Spec.field_access; Core.Spec.edge_profile ]

let config ?(budget = 10.0) () =
  {
    Adaptive.Controller.default with
    Adaptive.Controller.budget_pct = Some budget;
  }

let run ?config:measure ?scale ?jobs ?(budget = 10.0) ?benches () =
  let benches =
    match benches with Some l -> l | None -> Common.benchmarks ()
  in
  let progress =
    Pool.Progress.create ~label:"adaptive" ~total:(List.length benches) ()
  in
  let rows =
    Pool.map ?jobs
      (fun (bench : Workloads.Suite.benchmark) ->
        let r =
          Robust.cell
            ~key:(Printf.sprintf "adaptive/%s" bench.Workloads.Suite.bname)
            (fun () ->
              let build = Measure.prepare ?config:measure ?scale bench in
              let base = Measure.run_baseline build in
              let transform = Core.Transform.exhaustive spec in
              let instr = Measure.run_transformed ~transform build in
              let a =
                Measure.run_adaptive ~config:(config ~budget ()) ~transform
                  build
              in
              Measure.check_output ~base instr;
              Measure.check_output ~base a.Measure.am;
              {
                instr_oh = Measure.overhead_pct ~base instr;
                adaptive_oh = Measure.overhead_pct ~base a.Measure.am;
                speedup =
                  float_of_int instr.Measure.cycles
                  /. float_of_int a.Measure.am.Measure.cycles;
                achieved = a.Measure.achieved_overhead_pct;
                ndecisions = List.length a.Measure.decisions;
              })
        in
        Pool.Progress.step progress;
        { bench = bench.Workloads.Suite.bname; budget; nums = r })
      benches
  in
  Pool.Progress.finish progress;
  rows

let failures rows = Robust.errors (List.map (fun r -> r.nums) rows)

let geomean = function
  | [] -> nan
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 l
        /. float_of_int (List.length l))

let summary rows =
  let oks = Robust.oks (List.map (fun r -> r.nums) rows) in
  ( geomean (List.map (fun n -> n.speedup) oks),
    Common.mean (List.map (fun n -> n.achieved) oks) )

let to_string rows =
  let g, a = summary rows in
  let x f = Printf.sprintf "%.2fx" f in
  Text_table.render
    ~header:
      [
        "Benchmark";
        "Instr (%)";
        "Adaptive (%)";
        "Speedup";
        "Achieved (pts)";
        "Decisions";
      ]
    (List.map
       (fun r ->
         [
           r.bench;
           Robust.cell_str Text_table.pct
             (Result.map (fun n -> n.instr_oh) r.nums);
           Robust.cell_str Text_table.pct
             (Result.map (fun n -> n.adaptive_oh) r.nums);
           Robust.cell_str x (Result.map (fun n -> n.speedup) r.nums);
           Robust.cell_str Text_table.pct1
             (Result.map (fun n -> n.achieved) r.nums);
           Robust.cell_str string_of_int
             (Result.map (fun n -> n.ndecisions) r.nums);
         ])
       rows
    @ [
        [
          "Geomean/mean";
          "";
          "";
          x g;
          Text_table.pct1 a;
          "";
        ];
      ])

let print rows =
  (match rows with
  | { budget; _ } :: _ ->
      Printf.printf
        "Adaptive: online recompilation under a %.0f-point overhead budget\n"
        budget
  | [] -> ());
  print_string (to_string rows);
  match failures rows with [] -> () | fs -> print_string (Robust.report fs)
