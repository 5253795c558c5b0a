(* Table 1: time overhead of exhaustive instrumentation (no framework),
   call-edge and field-access, per benchmark.

   Paper: call-edge averages 88.3%, field-access 60.4%; db is the lowest
   row on both, compress the field-access-heaviest, opt-compiler the
   call-heaviest.  "Clearly, these instrumentations as implemented here
   are too expensive to execute unnoticed at runtime." *)

type row = {
  bench : string;
  call_edge : float Robust.outcome;
  field_access : float Robust.outcome;
}

let paper =
  [
    ("compress", 72.4, 204.8);
    ("jess", 133.2, 60.9);
    ("db", 8.3, 7.7);
    ("javac", 75.7, 14.2);
    ("mpegaudio", 129.6, 99.8);
    ("mtrt", 122.2, 46.0);
    ("jack", 34.3, 108.7);
    ("opt_compiler", 189.0, 34.9);
    ("pbob", 72.3, 20.2);
    ("volano", 46.6, 7.6);
  ]

(* The measurements the cells below will ask Measure for, as pure data
   for Schedule's global deduplication; mirrors [run] exactly. *)
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
            Schedule.instrumented ?scale ~variant:Schedule.Exhaustive
              ~specs:[ slug ] bench.Workloads.Suite.bname;
          ])
        [ "call-edge"; "field-access" ])
    benches

let run ?config ?scale ?jobs ?benches () =
  let benches =
    match benches with Some l -> l | None -> Common.benchmarks ()
  in
  (* one cell per (benchmark, instrumentation) *)
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
    Pool.Progress.create ~label:"table1" ~total:(List.length cells) ()
  in
  let pcts =
    Pool.map ?jobs
      (fun (bench, slug, spec) ->
        let r =
          Robust.cell
            ~key:
              (Printf.sprintf "table1/%s/%s" bench.Workloads.Suite.bname slug)
            (fun () ->
              let build = Measure.prepare ?config ?scale bench in
              let base = Measure.run_baseline build in
              let m =
                Measure.run_transformed
                  ~transform:(Core.Transform.exhaustive spec) build
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
    "Table 1: exhaustive instrumentation overhead (no framework)\n";
  print_string (to_string rows);
  match failures rows with
  | [] -> ()
  | fs -> print_string (Robust.report fs)
