(* Benchmark harness.  Modes (first argv word):

   (default) — Part 1: Bechamel micro-benchmarks, one [Test.make] per
   paper table/figure, each timing the measurement kernel of that
   experiment on a small workload (wall-clock of the reproduction
   machinery itself).  Part 2: the full reproduction — regenerates every
   table and figure of the paper, prints them (the output recorded in
   bench_output.txt and compared in EXPERIMENTS.md), checks every
   reproduced table against its recorded EXPERIMENTS.md shape
   (Harness.Shapes) and EXITS NON-ZERO if any diverged, then runs the
   ablation studies.

   interp — wall-clock engine-vs-engine benchmark (reference interpreter
   vs closure-compiled engine) over all ten workloads; writes
   BENCH_interp.json.

   smoke — the interp benchmark at the smallest scale plus validation of
   the JSON it wrote; the `make bench-smoke` CI target.

   profiles — wall-clock recording-path benchmark (legacy event-by-event
   collector vs flat-slot recording) per profile kind on both engines;
   writes BENCH_profiles.json.

   profiles-smoke — the profiles benchmark at the smallest scale into
   BENCH_profiles.smoke.json plus validation, warning (not failing) on a
   >10% geomean regression against the committed BENCH_profiles.json;
   the `make bench-profiles` CI target. *)

open Bechamel
open Toolkit
module M = Harness.Measure

let mtrt () = M.prepare (Workloads.Suite.find "mtrt")
let javac () = M.prepare (Workloads.Suite.find "javac")

let both = Harness.Common.both_specs

let table_tests () =
  (* warm the build caches so the staged bodies measure only the
     experiment kernels *)
  let b_mtrt = mtrt () and b_javac = javac () in
  ignore (M.run_baseline b_mtrt);
  ignore (M.run_baseline b_javac);
  let t name body = Test.make ~name (Staged.stage body) in
  Test.make_grouped ~name:"isf"
    [
      t "table1:exhaustive-instrumentation" (fun () ->
          ignore
            (M.run_transformed ~transform:(Core.Transform.exhaustive both)
               b_mtrt));
      t "table2:full-dup-framework" (fun () ->
          ignore
            (M.run_transformed ~transform:(Core.Transform.full_dup both) b_mtrt));
      t "table3:no-dup-checking" (fun () ->
          ignore
            (M.run_transformed ~transform:(Core.Transform.no_dup both) b_mtrt));
      t "table4:sampled-interval-1000" (fun () ->
          ignore
            (M.run_transformed
               ~trigger:(Core.Sampler.Counter { interval = 1_000; jitter = 0 })
               ~transform:(Core.Transform.full_dup both) b_mtrt));
      t "table5:timer-trigger" (fun () ->
          ignore
            (M.run_transformed ~trigger:Core.Sampler.Timer_bit
               ~transform:(Core.Transform.full_dup Core.Spec.field_access)
               b_mtrt));
      t "figure7:javac-call-edges" (fun () ->
          ignore
            (M.run_transformed
               ~trigger:(Core.Sampler.Counter { interval = 100; jitter = 0 })
               ~transform:(Core.Transform.full_dup both) b_javac));
      t "figure8:yieldpoint-opt" (fun () ->
          ignore
            (M.run_transformed
               ~trigger:(Core.Sampler.Counter { interval = 1_000; jitter = 0 })
               ~transform:(Core.Transform.full_dup_yieldpoint_opt both) b_mtrt));
      t "transform:full-dup-only" (fun () ->
          List.iter
            (fun f -> ignore (Core.Transform.full_dup both f))
            b_javac.M.base_funcs);
      t "transform:partial-dup-only" (fun () ->
          List.iter
            (fun f -> ignore (Core.Transform.partial_dup both f))
            b_javac.M.base_funcs);
    ]

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.8) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (table_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  print_endline "Bechamel micro-benchmarks (per-run wall time):";
  List.iter
    (fun (name, o) ->
      let est =
        match Analyze.OLS.estimates o with
        | Some (e :: _) -> Printf.sprintf "%10.3f ms" (e /. 1e6)
        | _ -> "n/a"
      in
      Printf.printf "  %-40s %s\n" name est)
    (List.sort compare rows);
  print_newline ()

let run_full () =
  run_bechamel ();
  print_endline
    "================================================================";
  print_endline
    "Full reproduction of every table and figure (Arnold-Ryder 2001)";
  print_endline
    "================================================================";
  print_newline ();
  let shapes_ok = Harness.Experiments.run_gated ~measure_compile:true () in
  print_newline ();
  print_endline
    "================================================================";
  print_endline "Ablation studies (design choices discussed in the paper)";
  print_endline
    "================================================================";
  print_newline ();
  Harness.Ablation.run_all ();
  (* exit non-zero on shape divergence so this binary works as a CI gate *)
  if not shapes_ok then begin
    prerr_endline "bench: reproduced tables diverged from EXPERIMENTS.md shapes";
    exit 1
  end

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "full" with
  | "full" -> run_full ()
  | "interp" -> Interp_bench.run ()
  | "smoke" -> Interp_bench.smoke ()
  | "profiles" -> Profile_bench.run ()
  | "profiles-smoke" -> Profile_bench.smoke ()
  | "adaptive" -> Adaptive_bench.run ()
  | "adaptive-smoke" -> Adaptive_bench.smoke ()
  | m ->
      Printf.eprintf
        "usage: %s \
         [full|interp|smoke|profiles|profiles-smoke|adaptive|adaptive-smoke] \
         (unknown mode %S)\n"
        Sys.argv.(0) m;
      exit 2
