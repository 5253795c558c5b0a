(* Engine-vs-engine wall-clock benchmark.

   For every workload, links the baseline (uninstrumented) program once
   and runs it to completion on both engines — the reference
   interpreter and the closure-compiled engine — timing wall-clock per
   run and normalizing to nanoseconds per simulated instruction.  A
   third column, [fd], times the closure-compiled engine on the
   workload's Full-Duplication build (call-edge and field-access
   instrumentation, a counter trigger every 1000 checks, flat-slot
   recording): the code the reproduction's instrumented runs execute,
   whose check blocks and instrumentation ops the baseline lacks.
   Before timing, each pair of engine results is asserted identical
   (return value, output, cycles, instructions, event counters, cache
   misses): the benchmark refuses to compare engines that disagree.

   Timing is median-of-5 interleaved batches: every workload is
   linked, warmed and checked first, then each of the 30
   configurations (ten workloads x three columns) is timed five times,
   round-robin over all of them, so host speed drift hits every
   workload and engine alike and cross-workload ratios (javac's Fast
   ns/instr over compress's) are as comparable as within-workload
   ones.  The JSON reports min/median/max per configuration — this
   container shows ±20-40% per-run wall-clock variance, so a single-run
   (or best-run-only) number is untrustworthy.  Speedups are computed
   from medians.

   The cross-workload ratios ROADMAP item 1 gates on (javac's and
   opt_compiler's Fast ns/instr over compress's) get their own phase:
   [ratio_rounds] rounds that each time the three back to back, one
   ratio per round and pair, reported as the median with its quartiles
   and IQR.  Pairing within a round cancels host drift between rounds,
   which a ratio of two medians taken seconds apart does not.

   Results go to BENCH_interp.json (hand-written JSON; the repo has no
   JSON dependency).  [smoke] reruns the same thing at scale 1 with a
   tiny time budget into BENCH_interp.smoke.json — one writer and one
   validator for both files, so smoke and full can never drift apart
   schema-wise — and then validates the JSON: it must parse, must
   contain both engines' numbers and the Full-Duplication column for
   all ten workloads, and
   a geomean speedup more than 10% below the committed BENCH_interp.json
   produces a WARNING (not a failure — scale-1 smoke timings are noisy;
   the committed full-scale file is the reference). *)

module M = Harness.Measure

let out_file = "BENCH_interp.json"
let smoke_file = "BENCH_interp.smoke.json"

type timing = { t_min : float; t_med : float; t_max : float }
(* ns per simulated instruction, over the interleaved batches *)

type ratio = { r_q1 : float; r_med : float; r_q3 : float }
(* quartiles of the per-round paired ratios *)

type row = {
  name : string;
  scale : int;
  cycles : int;
  instructions : int;
  ref_t : timing;
  fast_t : timing;
  fd_instructions : int;
  fd_t : timing; (* Fast engine, Full-Duplication build *)
}

let speedup r = r.ref_t.t_med /. r.fast_t.t_med

(* ---- measurement ---- *)

let assert_identical name what (a : Vm.Interp.result) (b : Vm.Interp.result) =
  let fail field =
    failwith (Printf.sprintf "%s: %s disagree on %s" name what field)
  in
  if a.Vm.Interp.return_value <> b.Vm.Interp.return_value then fail "return value";
  if not (String.equal a.Vm.Interp.output b.Vm.Interp.output) then fail "output";
  if a.Vm.Interp.cycles <> b.Vm.Interp.cycles then fail "cycles";
  if a.Vm.Interp.instructions <> b.Vm.Interp.instructions then fail "instructions";
  if a.Vm.Interp.counters <> b.Vm.Interp.counters then fail "event counters";
  if a.Vm.Interp.icache_misses <> b.Vm.Interp.icache_misses then
    fail "icache misses";
  if a.Vm.Interp.dcache_misses <> b.Vm.Interp.dcache_misses then
    fail "dcache misses"

let probe run =
  let t0 = Unix.gettimeofday () in
  ignore (run ());
  Unix.gettimeofday () -. t0

(* Median-of-5 interleaved batches: every configuration is timed
   [batches] times, round-robin, and summarized as min/median/max of
   the per-batch means.  The median is what speedups are computed from
   — robust against one outlier batch in either direction, where a
   minimum can flatter a config that got one lucky batch and a single
   long average soaks up scheduling noise.  Interleaving keeps slow
   machine drift from biasing whichever side ran later. *)
let batches = 5

let summarize samples =
  let s = List.sort compare samples in
  {
    t_min = List.nth s 0;
    t_med = List.nth s (List.length s / 2);
    t_max = List.nth s (List.length s - 1);
  }

let time_all ~budget runs =
  let per_batch = budget /. float_of_int batches in
  let calibrated =
    List.map
      (fun run ->
        (run, max 1 (int_of_float (per_batch /. Float.max 1e-6 (probe run)))))
      runs
  in
  let batch run n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (run ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let samples = List.map (fun _ -> ref []) runs in
  for _ = 1 to batches do
    List.iter2
      (fun (run, n) acc -> acc := batch run n :: !acc)
      calibrated samples
  done;
  List.map (fun acc -> summarize !acc) samples

(* Link, warm and differentially check one workload; returns its three
   timed configurations and how to turn their timings into a row. *)
let prepare_workload ~scale (b : Workloads.Suite.benchmark) =
  let build = M.prepare ?scale b in
  let prog = Vm.Program.link build.M.classes ~funcs:build.M.base_funcs in
  let args = [ build.M.scale ] in
  (* with the i-cache model on, as every Measure run has it: the probe
     is part of each word's preamble *)
  let run engine () =
    Vm.Interp.run ~engine ~use_icache:true prog ~entry:Workloads.Suite.entry
      ~args Vm.Interp.null_hooks
  in
  (* warm runs: differential check, plus the Fast warm run compiles the
     program so compilation cost stays out of the timed loop (it is
     cached on the linked program afterwards) *)
  let r_ref = run `Ref () and r_fast = run `Fast () in
  let name = b.Workloads.Suite.bname in
  assert_identical name "engines" r_ref r_fast;
  (* the Full-Duplication build, recording through a fresh flat-slot
     recorder and sampler per run, as the reproduction's runs do *)
  let fd_prog =
    Vm.Program.link build.M.classes
      ~funcs:
        (List.map
           (fun f ->
             (Core.Transform.full_dup Harness.Common.both_specs f)
               .Core.Transform.func)
           build.M.base_funcs)
  in
  let run_fd engine () =
    let slots = Profiles.Slots.create fd_prog in
    let sampler =
      Core.Sampler.create (Core.Sampler.Counter { interval = 1000; jitter = 0 })
    in
    Vm.Interp.run ~engine ~use_icache:true
      ~recorder:(Profiles.Slots.recorder slots)
      fd_prog ~entry:Workloads.Suite.entry ~args
      (Profiles.Slots.hooks slots sampler)
  in
  let fd_ref = run_fd `Ref () and fd_fast = run_fd `Fast () in
  assert_identical name "engines on the Full-Duplication build" fd_ref fd_fast;
  let norm instructions t =
    let instr = float_of_int instructions in
    {
      t_min = t.t_min *. 1e9 /. instr;
      t_med = t.t_med *. 1e9 /. instr;
      t_max = t.t_max *. 1e9 /. instr;
    }
  in
  let instructions = r_ref.Vm.Interp.instructions in
  let fd_instructions = fd_ref.Vm.Interp.instructions in
  let row_of ref_t fast_t fd_t =
    {
      name;
      scale = build.M.scale;
      cycles = r_ref.Vm.Interp.cycles;
      instructions;
      ref_t = norm instructions ref_t;
      fast_t = norm instructions fast_t;
      fd_instructions;
      fd_t = norm fd_instructions fd_t;
    }
  in
  ((name, run `Fast, instructions), [ run `Ref; run `Fast; run_fd `Fast ], row_of)

(* ---- paired cross-workload ratios ---- *)

let ratio_rounds = 21
let ratio_base = "compress"
let ratio_over = [ "javac"; "opt_compiler" ]

(* the [q]-quantile of [xs], linearly interpolated *)
let quantile xs q =
  let a = Array.of_list (List.sort compare xs) in
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  let frac = pos -. float_of_int i in
  if i + 1 >= Array.length a then a.(i)
  else (a.(i) *. (1. -. frac)) +. (a.(i + 1) *. frac)

(* Each round times [ratio_base] and every workload of [ratio_over] back
   to back, a calibrated batch of Fast runs each (about [budget] /
   [ratio_rounds] seconds), and takes each workload's ns/instr over the
   base's of the same round. *)
let paired_ratios ~budget fasts =
  let find name = List.find (fun (n, _, _) -> n = name) fasts in
  let base = find ratio_base in
  let others = List.map find ratio_over in
  let per_batch = budget /. float_of_int ratio_rounds in
  let calibrate (name, run, instructions) =
    (name, run, instructions, max 1 (int_of_float (per_batch /. Float.max 1e-6 (probe run))))
  in
  let base = calibrate base and others = List.map calibrate others in
  let ns_per_instr (_, run, instructions, n) =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (run ())
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (n * instructions)
  in
  let samples = List.map (fun _ -> ref []) others in
  for _ = 1 to ratio_rounds do
    let b = ns_per_instr base in
    List.iter2 (fun o acc -> acc := (ns_per_instr o /. b) :: !acc) others samples
  done;
  List.map2
    (fun name acc ->
      ( name,
        {
          r_q1 = quantile !acc 0.25;
          r_med = quantile !acc 0.5;
          r_q3 = quantile !acc 0.75;
        } ))
    ratio_over samples

(* Every workload is prepared before any is timed, and one [time_all]
   round-robins over all of their configurations; then the paired
   ratios. *)
let bench_all ~scale ~budget =
  let prepared = List.map (prepare_workload ~scale) Workloads.Suite.all in
  let rec rows timings prepared =
    match (timings, prepared) with
    | a :: b :: c :: timings, (_, _, row_of) :: prepared ->
        let row = row_of a b c in
        Printf.printf
          "  %-14s ref %7.2f ns/instr   fast %7.2f ns/instr (%4.2fx)   fd \
           %7.2f ns/instr\n%!"
          row.name row.ref_t.t_med row.fast_t.t_med (speedup row)
          row.fd_t.t_med;
        row :: rows timings prepared
    | [], [] -> []
    | _ -> assert false
  in
  let rows =
    rows
      (time_all ~budget (List.concat_map (fun (_, runs, _) -> runs) prepared))
      prepared
  in
  let ratios =
    paired_ratios ~budget:(3. *. budget) (List.map (fun (f, _, _) -> f) prepared)
  in
  (rows, ratios)

(* ---- JSON out ---- *)

let geomean f rows =
  exp
    (List.fold_left (fun a r -> a +. log (f r)) 0.0 rows
    /. float_of_int (List.length rows))

(* The one writer both the full bench and the smoke share: identical
   schema (including [geomean_speedup] — the smoke file used to drift
   from the full one), with per-configuration min/median/max.  The
   bare *_ns_per_instr fields carry the median. *)
let json_of_rows (rows, ratios) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"benchmarks\": [\n";
  let timing k (t : timing) =
    Printf.sprintf
      "\"%s_ns_per_instr\": %.3f, \"%s_ns_min\": %.3f, \"%s_ns_max\": %.3f" k
      t.t_med k t.t_min k t.t_max
  in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": %S, \"scale\": %d, \"cycles\": %d, \
            \"instructions\": %d, %s, %s, \"speedup\": %.3f, \
            \"fd_instructions\": %d, %s }%s\n"
           r.name r.scale r.cycles r.instructions
           (timing "ref" r.ref_t) (timing "fast" r.fast_t) (speedup r)
           r.fd_instructions (timing "fd" r.fd_t)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n  \"ratios\": [\n";
  List.iteri
    (fun i (name, r) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s/%s\", \"median\": %.3f, \"q1\": %.3f, \
            \"q3\": %.3f, \"iqr\": %.3f }%s\n"
           name ratio_base r.r_med r.r_q1 r.r_q3 (r.r_q3 -. r.r_q1)
           (if i = List.length ratios - 1 then "" else ",")))
    ratios;
  Buffer.add_string buf
    (Printf.sprintf
       "  ],\n\
       \  \"timing\": \"median-of-%d interleaved batches; ratios: median \
        of %d per-round paired ratios\",\n\
       \  \"geomean_speedup\": %.3f\n\
        }\n"
       batches ratio_rounds (geomean speedup rows));
  Buffer.contents buf

(* ---- JSON in (validation only; no JSON library in the repo) ---- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some c ->
              advance ();
              Buffer.add_char b
                (match c with 'n' -> '\n' | 't' -> '\t' | c -> c)
          | None -> raise (Bad "eof in escape"));
          go ()
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
      | None -> raise (Bad "eof in string")
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> raise (Bad (Printf.sprintf "bad number at %d" start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Bad "expected , or } in object")
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> raise (Bad "expected , or ] in array")
          in
          elems []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> raise (Bad "eof")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad (Printf.sprintf "trailing input at %d" !pos));
  v

let validate_json ~file text =
  let v = try parse_json text with Bad m -> failwith (file ^ ": " ^ m) in
  let top =
    match v with
    | Obj o -> o
    | _ -> failwith (file ^ ": expected a top-level object")
  in
  let top_num k =
    match List.assoc_opt k top with
    | Some (Num f) -> f
    | _ -> failwith (Printf.sprintf "%s: missing top-level number %S" file k)
  in
  let rows =
    match List.assoc_opt "benchmarks" top with
    | Some (Arr rows) -> rows
    | _ -> failwith (file ^ ": missing \"benchmarks\" array")
  in
  (* one schema for smoke and full: both must carry the geomean *)
  let gm = top_num "geomean_speedup" in
  let num obj k =
    match List.assoc_opt k obj with
    | Some (Num f) -> f
    | _ -> failwith (Printf.sprintf "%s: missing number %S" file k)
  in
  let names =
    List.map
      (fun r ->
        match r with
        | Obj o ->
            List.iter
              (fun cfg ->
                let med = num o (cfg ^ "_ns_per_instr") in
                let mn = num o (cfg ^ "_ns_min") in
                let mx = num o (cfg ^ "_ns_max") in
                if not (med > 0.0 && mn > 0.0 && mx > 0.0) then
                  failwith (file ^ ": non-positive ns/instr for " ^ cfg);
                if mn > med || med > mx then
                  failwith (file ^ ": min/median/max out of order for " ^ cfg))
              [ "ref"; "fast"; "fd" ];
            (match List.assoc_opt "name" o with
            | Some (Str s) -> s
            | _ -> failwith (file ^ ": row without a name"))
        | _ -> failwith (file ^ ": non-object row"))
      rows
  in
  (match List.assoc_opt "ratios" top with
  | Some (Arr rs) ->
      List.iter
        (fun over ->
          let want = over ^ "/" ^ ratio_base in
          match
            List.find_opt
              (function
                | Obj o -> List.assoc_opt "name" o = Some (Str want)
                | _ -> false)
              rs
          with
          | Some (Obj o) ->
              let q1 = num o "q1" and med = num o "median" and q3 = num o "q3" in
              if not (q1 > 0.0 && q1 <= med && med <= q3) then
                failwith (file ^ ": quartiles out of order for " ^ want)
          | _ -> failwith (Printf.sprintf "%s: missing ratio %S" file want))
        ratio_over
  | _ -> failwith (file ^ ": missing \"ratios\" array"));
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      if not (List.mem b.Workloads.Suite.bname names) then
        failwith
          (Printf.sprintf "%s: missing workload %S" file
             b.Workloads.Suite.bname))
    Workloads.Suite.all;
  (List.length names, gm)

let committed_geomeans () =
  match
    try Some (In_channel.with_open_text out_file In_channel.input_all)
    with Sys_error _ -> None
  with
  | None -> None
  | Some text ->
      let _, gm = validate_json ~file:out_file text in
      Some gm

(* ---- entry points ---- *)

let run_rows ~file ~scale ~budget =
  Printf.printf
    "Engine benchmark: reference interpreter vs closure-compiled engine \
     (fd: closure-compiled, Full-Duplication build)\n";
  let rows, ratios = bench_all ~scale ~budget in
  let oc = open_out file in
  output_string oc (json_of_rows (rows, ratios));
  close_out oc;
  let n = List.length rows in
  let twice = List.length (List.filter (fun r -> speedup r >= 2.0) rows) in
  Printf.printf "  geometric-mean speedup %.2fx; fast >= 2x on %d/%d workloads\n"
    (geomean speedup rows) twice n;
  (* the call-heavy workloads against the loop-heavy one (ROADMAP item 1) *)
  List.iter
    (fun (name, r) ->
      Printf.printf
        "  fast ns/instr %s/%s: %.2fx (median of %d paired rounds, IQR %.2f)\n"
        name ratio_base r.r_med ratio_rounds (r.r_q3 -. r.r_q1))
    ratios;
  Printf.printf "  wrote %s\n" file;
  rows

let run () = ignore (run_rows ~file:out_file ~scale:None ~budget:0.3)

let smoke () =
  let rows = run_rows ~file:smoke_file ~scale:(Some 1) ~budget:0.02 in
  let text = In_channel.with_open_text smoke_file In_channel.input_all in
  let n, gm = validate_json ~file:smoke_file text in
  if n <> List.length rows then
    failwith (smoke_file ^ ": row count does not match the suite");
  (match committed_geomeans () with
  | None -> Printf.printf "  (no committed %s to compare against)\n" out_file
  | Some committed ->
      if gm < 0.9 *. committed then
        Printf.printf
          "WARNING: smoke engine geomean %.2fx is >10%% below committed \
           %.2fx (%s)\n"
          gm committed out_file
      else
        Printf.printf "  smoke engine geomean %.2fx vs committed %.2fx: OK\n"
          gm committed);
  Printf.printf
    "bench-smoke OK: %s parses, both engines and the Full-Duplication \
     column present for all %d workloads\n"
    smoke_file n
