(* The benchmark program:
     pb.exe --workload W --seed N --seconds S --trace 0|1
   runs one workload from the root of a checkout (isf built at
   _build/default/bin/isf.exe), checks its outputs against the oracles
   and prints one JSON object as the last line of stdout.  With
   --trace 0 it reports the end-to-end metrics of an untraced run; with
   --trace 1 the per-layer metrics of a traced replay.  Exits non-zero
   when any output is wrong.
     pb.exe --write-oracle
   records perfbench/oracle/serve-cold.md5: every job serve-cold can
   draw, run on the Ref engine (a few minutes on 2 cores). *)

let workloads = [ "repro-cold"; "serve-cold" ]

(* Every per-layer metric, with its unit; a traced run reports each,
   0 where its workload never reaches the layer. *)
let per_layer =
  List.map (fun n -> (n ^ "_s", "s")) Replay.layer_names
  @ [
      ("vm.instructions", "count"); ("vm.ns_per_instr", "ns");
      ("core.code_growth", "ratio"); ("adaptive.polls", "count");
      ("adaptive.decisions", "count"); ("harness.dedup_ratio", "ratio");
      ("harness.cache_hit_ratio", "ratio"); ("harness.pool_busy_share", "ratio");
      ("profiles.payload_bytes_per_job", "B"); ("profiles.parse_mb_per_s", "MB/s");
      ("serve.submissions_per_job", "ratio"); ("serve.journal_bytes_per_job", "B");
      ("serve.wait_ms_p50", "ms");
    ]
  @ List.map (fun k -> ("serve.stats." ^ k, "count")) Serve_wl.stats_keys
  @ [
      ("peak_rss_mb", "MB"); ("bench.trace_overhead_share", "ratio");
      ("bench.unattributed_s", "s");
    ]

let complete (r : Proc.result) =
  {
    r with
    metrics =
      List.map
        (fun (n, u) ->
          match List.find_opt (fun (n', _, _) -> String.equal n n') r.metrics with
          | Some m -> m
          | None -> (n, 0.0, u))
        per_layer;
  }

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "1e308"

let print_result (r : Proc.result) =
  let correct = r.failed = 0 && r.attempted > 0 in
  let ms =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed (String.concat ", " ms);
  correct

let write_oracle () =
  let jobs = Pbcore.Gen.universe () in
  let expected = Harness.Pool.map ~jobs:2 Pbcore.Oracle.expected jobs in
  Out_channel.with_open_bin Serve_wl.oracle_file (fun oc ->
      List.iter2
        (fun j e -> output_string oc (Pbcore.Oracle.to_line j e ^ "\n"))
        jobs expected)

let () =
  let write = ref false in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--isf", Arg.Set_string Proc.isf, "PATH the isf binary");
      ("--write-oracle", Arg.Set write, " record " ^ Serve_wl.oracle_file ^ " and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pb.exe --workload W --seed N --seconds S --trace 0|1";
  if !write then begin
    write_oracle ();
    exit 0
  end;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("pb: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if not (Sys.file_exists !Proc.isf) then begin
    prerr_endline ("pb: no isf binary at " ^ !Proc.isf);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a signal still stops the children (Proc's at_exit) *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm ];
  let dir = Proc.fresh_dir ".perfbench" in
  let seed = !seed and seconds = !seconds in
  let r =
    match (!workload, !trace) with
    | "repro-cold", 0 -> Repro.run ~dir ~seconds
    | "serve-cold", 0 -> Serve_wl.run ~dir ~seed ~seconds
    | "repro-cold", _ -> complete (Repro.traced ~dir)
    | _ -> complete (Serve_wl.traced ~dir ~seed ~seconds)
  in
  if not (print_result r) then exit 1
