(* Table 3: No-Duplication checking overhead — each instrumentation
   operation guarded by its own check, no samples taken.

   Paper: call-edge averages 1.3% (checks on method entries only — cheap,
   No-Duplication wins there); field-access averages 51.1%, barely less
   than exhaustive instrumentation, because a check costs about as much
   as the field-access op it guards — "making the insertion of checks
   completely ineffective". *)

type row = {
  bench : string;
  call_edge : float Robust.outcome;
  field_access : float Robust.outcome;
}

let paper =
  [
    ("compress", 0.9, 151.5);
    ("jess", 0.1, 36.6);
    ("db", 0.2, 6.9);
    ("javac", 1.4, 21.3);
    ("mpegaudio", 0.8, 100.7);
    ("mtrt", 2.4, 49.1);
    ("jack", 1.2, 72.1);
    ("opt_compiler", 4.4, 41.1);
    ("pbob", 2.3, 21.3);
    ("volano", 1.0, 10.4);
  ]

(* Pure-data description of this table's measurements for Schedule. *)
let requests ?scale ?benches () =
  let benches =
    match benches with Some l -> l | None -> Common.benchmarks ()
  in
  List.concat_map
    (fun (bench : Workloads.Suite.benchmark) ->
      List.concat_map
        (fun slug ->
          [
            Schedule.baseline ?scale bench.Workloads.Suite.bname;
            Schedule.instrumented ?scale ~variant:Schedule.No_dup
              ~specs:[ slug ] bench.Workloads.Suite.bname;
          ])
        [ "call-edge"; "field-access" ])
    benches

let run ?config ?scale ?jobs ?benches () =
  let benches =
    match benches with Some l -> l | None -> Common.benchmarks ()
  in
  let cells =
    List.concat_map
      (fun bench ->
        [
          (bench, "call-edge", Core.Spec.call_edge);
          (bench, "field-access", Core.Spec.field_access);
        ])
      benches
  in
  let progress =
    Pool.Progress.create ~label:"table3" ~total:(List.length cells) ()
  in
  let pcts =
    Pool.map ?jobs
      (fun (bench, slug, spec) ->
        let r =
          Robust.cell
            ~key:
              (Printf.sprintf "table3/%s/%s" bench.Workloads.Suite.bname slug)
            (fun () ->
              let build = Measure.prepare ?config ?scale bench in
              let base = Measure.run_baseline build in
              let m =
                Measure.run_transformed ~transform:(Core.Transform.no_dup spec)
                  build
              in
              Measure.check_output ~base m;
              Measure.overhead_pct ~base m)
        in
        Pool.Progress.step progress;
        r)
      cells
  in
  Pool.Progress.finish progress;
  let rec rows benches pcts =
    match (benches, pcts) with
    | [], [] -> []
    | bench :: bt, ce :: fa :: pt ->
        {
          bench = bench.Workloads.Suite.bname;
          call_edge = ce;
          field_access = fa;
        }
        :: rows bt pt
    | _ -> assert false
  in
  rows benches pcts

let failures rows =
  Robust.errors
    (List.concat_map (fun r -> [ r.call_edge; r.field_access ]) rows)

let average rows =
  ( Common.mean (Robust.oks (List.map (fun r -> r.call_edge) rows)),
    Common.mean (Robust.oks (List.map (fun r -> r.field_access) rows)) )

let to_string rows =
  let avg_ce, avg_fa = average rows in
  Text_table.render
    ~header:[ "Benchmark"; "Call-edge (%)"; "Field-access (%)" ]
    (List.map
       (fun r ->
         [
           r.bench;
           Robust.cell_str Text_table.pct r.call_edge;
           Robust.cell_str Text_table.pct r.field_access;
         ])
       rows
    @ [ [ "Average"; Text_table.pct avg_ce; Text_table.pct avg_fa ] ])

let print rows =
  print_string
    "Table 3: No-Duplication checking overhead (no samples taken)\n";
  print_string (to_string rows);
  match failures rows with
  | [] -> ()
  | fs -> print_string (Robust.report fs)
