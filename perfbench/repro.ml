(* repro-cold: the paper's deterministic, shape-gated reproduction,
   `isf table all --adaptive -j 2`, into an empty run cache. *)

open Pbcore

let verb cache = [ "table"; "all"; "--adaptive"; "-j"; "2"; "--cache"; cache ]

(* The stdout digest of the same command on the Ref engine, recorded
   once in oracle/repro-cold.md5. *)
let oracle_md5 () =
  List.hd (String.split_on_char ' ' (Proc.read_file "perfbench/oracle/repro-cold.md5"))

let cells dir =
  Array.fold_left
    (fun n f -> if Filename.check_suffix f ".cell" then n + 1 else n)
    0 (Sys.readdir dir)

type rep = { info : Proc.exit_info; cells : int; ok : bool }

(* One cold reproduction in [dir]; its cache is left for the replay. *)
let once ~dir ~want =
  let cache = Proc.fresh_dir (Filename.concat dir "cache") in
  let out = Filename.concat dir "stdout.txt" in
  let info = Proc.run ~out (verb cache) in
  let got = Digest.to_hex (Digest.file out) in
  let ok = info.Proc.code = 0 && String.equal got want in
  if not ok then
    Printf.eprintf "repro-cold: exit %d, stdout md5 %s (oracle %s)\n%!"
      info.Proc.code got want;
  { info; cells = cells cache; ok }

(* Set-up: read the oracle, create an empty cache directory and start
   the program once (so the timed run does not pay for a cold binary).
   One set-up takes ~2.5 ms, so only the median of many is steady: 17
   before each reproduction and 17 after the last. *)
let setup ~dir () =
  ignore (oracle_md5 ());
  ignore (Proc.fresh_dir (Filename.concat dir "cache"));
  let i = Proc.run ~out:(Filename.concat dir "list.txt") [ "list" ] in
  if i.Proc.code <> 0 then failwith "isf list failed"

let setup_times ~dir = Proc.setup_times 17 ~undo:ignore (setup ~dir)

(* Reproductions one after the other until the next would end after
   --seconds (at least one).  The metrics are per reproduction, so a
   run takes about --seconds on any host and still compares with a run
   that fitted more reproductions. *)
let run ~dir ~seconds =
  let want = oracle_md5 () in
  let t0 = Unix.gettimeofday () in
  let rec go longest acc =
    let elapsed = Unix.gettimeofday () -. t0 in
    if acc = [] || elapsed +. longest <= seconds then begin
      let s = setup_times ~dir in
      let r = once ~dir ~want in
      go (Float.max longest r.info.Proc.wall) ((s, r) :: acc)
    end
    else List.rev acc
  in
  let timed = go 0.0 [] in
  let setup_s = Pbcore.Stats.median (setup_times ~dir @ List.concat_map fst timed) in
  let rs = List.map snd timed in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rs in
  let walls = List.map (fun r -> r.info.Proc.wall) rs in
  let attempted = List.fold_left (fun n r -> n + r.cells) 0 rs in
  let failed = List.fold_left (fun n r -> if r.ok then n else n + r.cells) 0 rs in
  Printf.eprintf "repro-cold: walls %s s\n%!"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.info.Proc.wall) rs));
  let k = float_of_int (List.length rs) in
  {
    Proc.metrics =
      [
        ("wall_s", sum (fun r -> r.info.Proc.wall) /. k, "s");
        ("cpu_s", sum (fun r -> r.info.Proc.cpu) /. k, "s");
        ( "ops_per_s",
          sum (fun r -> float_of_int (if r.ok then r.cells else 0)) /. sum (fun r -> r.info.Proc.wall),
          "1/s" );
        ("p50_ms", 1000.0 *. Pbcore.Stats.median walls, "ms");
        ("p90_ms", 1000.0 *. List.fold_left Float.max 0.0 walls, "ms");
        ("ok_share", float_of_int (attempted - failed) /. float_of_int (max 1 attempted), "ratio");
        ("setup_s", setup_s, "s");
      ];
    attempted = max 1 attempted;
    failed = (if attempted = 0 then 1 else failed);
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* One distinct measurement the verb filed in its cache. *)
type cell = {
  key : string;
  kind : string;  (** baseline | instrumented | adaptive *)
  bench : string;
  scale : int;
  funcs_digest : string;
  recording : string;
  trigger : string;
  timer_period : int option;
  adaptive : string option;
}

let field lines k =
  match List.find_opt (fun l -> String.starts_with ~prefix:(k ^ "=") l) lines with
  | Some l -> Some (String.sub l (String.length k + 1) (String.length l - String.length k - 1))
  | None -> None

let cell_of_key key =
  let lines = String.split_on_char '\n' key in
  let get k =
    match field lines k with Some v -> v | None -> failwith ("run key without " ^ k)
  in
  if field lines "traces" <> None || get "engine" <> "fast" || get "faults" <> "none" then
    failwith "repro-cold: unexpected run key configuration";
  {
    key;
    kind = get "kind";
    bench = get "bench";
    scale = int_of_string (get "scale");
    funcs_digest = get "funcs";
    recording = get "recording";
    trigger = get "trigger";
    timer_period =
      (match get "timer-period" with "default" -> None | p -> Some (int_of_string p));
    adaptive = field lines "adaptive";
  }

(* The run key stored in an entry file (the verb's own fresh output). *)
let key_of_entry path =
  In_channel.with_open_bin path (fun ic ->
      ignore (really_input_string ic (String.length "ISF-RUNCACHE-ENTRY 1\n"));
      let k, (_ : string), (_ : string) = (Marshal.from_channel ic : string * string * string) in
      k)

let parse_trigger s =
  match String.split_on_char ':' s with
  | [ "counter"; i; j ] -> Core.Sampler.Counter { interval = int_of_string i; jitter = int_of_string j }
  | [ "counter-per-thread"; i ] -> Core.Sampler.Counter_per_thread { interval = int_of_string i }
  | [ "timer-bit" ] -> Core.Sampler.Timer_bit
  | [ "always" ] -> Core.Sampler.Always
  | [ "never" ] -> Core.Sampler.Never
  | _ -> failwith ("unknown trigger " ^ s)

(* Every transformation the table modules apply.  A cell's transform
   is identified by the digest of the code it produced. *)
let candidates =
  let specs =
    [ Core.Spec.call_edge; Core.Spec.field_access; Harness.Common.both_specs; Harness.Table_adaptive.spec ]
  in
  List.concat_map
    (fun v -> List.map v specs)
    [
      Core.Transform.exhaustive; Core.Transform.full_dup; Core.Transform.no_dup;
      Core.Transform.partial_dup; Core.Transform.full_dup_yieldpoint_opt;
    ]
  @ List.map
      (fun (entries, backedges) -> Core.Transform.checks_only ~entries ~backedges)
      [ (false, true); (true, false); (true, true) ]

let match_transforms cells =
  let tbl = Hashtbl.create 512 in
  let pairs = List.sort_uniq compare (List.map (fun c -> (c.bench, c.scale)) cells) in
  List.iter
    (fun (bench, scale) ->
      let b = Replay.prepare bench scale in
      List.iter
        (fun t ->
          let d = Harness.Digest.funcs (List.map (fun f -> (t f).Core.Transform.func) b.Replay.base_funcs) in
          if not (Hashtbl.mem tbl (bench, scale, d)) then Hashtbl.add tbl (bench, scale, d) t)
        candidates)
    pairs;
  fun c ->
    match Hashtbl.find_opt tbl (c.bench, c.scale, c.funcs_digest) with
    | Some t -> t
    | None -> failwith (Printf.sprintf "repro-cold: no known transform produced cell %s" c.key)

module Cached = Harness.Runcache.Make (struct type t = Harness.Measure.metrics end)
module Cached_adaptive = Harness.Runcache.Make (struct type t = Harness.Measure.adaptive_metrics end)
module Stored = Harness.Runcache.Make (struct type t = Harness.Measure.metrics end)
module Stored_adaptive = Harness.Runcache.Make (struct type t = Harness.Measure.adaptive_metrics end)

type filed = Plain of Harness.Measure.metrics | Adapt of Harness.Measure.adaptive_metrics

let with_stdout_to path f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)

(* The verb's own table code, in-process, over the cache the verb just
   filled: every request is answered from the cache, and the cache's
   counters give how many cells were requested against how many were
   distinct. *)
let warm_tables ~dir ~cache =
  Harness.Runcache.set_dir (Some cache);
  Harness.Runcache.reset_memory ();
  let out = Filename.concat dir "warm-stdout.txt" in
  with_stdout_to out (fun () ->
      ignore (Harness.Experiments.run_gated ~jobs:2 ());
      print_newline ();
      ignore (Harness.Experiments.run_one ~jobs:2 ~budget:10.0 Harness.Experiments.Adaptive));
  (Harness.Runcache.stats (), Digest.to_hex (Digest.file out))

let traced ~dir =
  let span_cost = Spans.span_cost () in
  let want = oracle_md5 () in
  let r = once ~dir ~want in
  if not r.ok then failwith "repro-cold: the untraced reproduction failed its oracle";
  let cache = Filename.concat dir "cache" in
  let st, warm_md5 = warm_tables ~dir ~cache in
  let requested = st.mem_hits + st.disk_hits + st.misses in
  let distinct = st.disk_hits + st.misses in
  let problems = ref [] in
  let problem m = problems := m :: !problems in
  if st.misses > 0 then problem "the verb's tables requested cells the verb never filed";
  if warm_md5 <> want then problem "in-process tables printed different output";
  let cells =
    List.map
      (fun f -> cell_of_key (key_of_entry (Filename.concat cache f)))
      (List.filter (fun f -> Filename.check_suffix f ".cell") (Array.to_list (Sys.readdir cache)))
  in
  let t_start = Unix.gettimeofday () in
  let transform_of = match_transforms cells in
  let adaptive_config = Harness.Table_adaptive.config ~budget:10.0 () in
  let filed =
    List.map
      (fun c ->
        let missing () = failwith ("repro-cold: cannot read cell " ^ c.key) in
        Replay.span "harness.cache_read" (fun () ->
            if c.kind = "adaptive" then Adapt (Cached_adaptive.find ~key:c.key missing)
            else Plain (Cached.find ~key:c.key missing)))
      cells
  in
  let replay c =
    let b = Replay.prepare c.bench c.scale in
    let funcs = if c.kind = "baseline" then b.Replay.base_funcs else Replay.transform b (transform_of c) in
    let trigger = parse_trigger (if c.trigger = "none" then "never" else c.trigger) in
    let key =
      Replay.run_key ?adaptive:c.adaptive ~kind:c.kind ~funcs ~recording:c.recording
        ~trigger:c.trigger ~timer_period:c.timer_period b
    in
    let kind =
      match c.kind with
      | "baseline" -> Replay.Baseline
      | "adaptive" ->
          if c.adaptive <> Some (Adaptive.Controller.config_digest adaptive_config) then
            failwith "repro-cold: unknown adaptive controller configuration";
          Replay.Adaptive (trigger, adaptive_config)
      | _ -> Replay.Instrumented ((if c.recording = "legacy" then `Legacy else `Slots), trigger)
    in
    (key, Replay.execute ?timer_period:c.timer_period b funcs kind)
  in
  let replayed, t0, t1 = Replay.par "harness.cell" replay cells in
  List.iter2
    (fun c ((key, (o : Replay.outcome)), f) ->
      let m = match f with Plain m -> m | Adapt a -> a.Harness.Measure.am in
      if key <> c.key then problem ("replay filed a cell under another key than " ^ c.key)
      else if
        m.Harness.Measure.cycles <> o.res.Vm.Interp.cycles
        || m.instructions <> o.res.Vm.Interp.instructions
        || m.output <> o.res.Vm.Interp.output
      then problem ("replay measured different numbers for " ^ c.key))
    cells (List.combine replayed filed);
  Harness.Runcache.set_dir (Some (Proc.fresh_dir (Filename.concat dir "replay-cache")));
  List.iter2
    (fun c f ->
      Replay.span "harness.cache_store" (fun () ->
          match f with
          | Plain m -> ignore (Stored.find ~key:c.key (fun () -> m))
          | Adapt a -> ignore (Stored_adaptive.find ~key:c.key (fun () -> a))))
    cells filed;
  let t_end = Unix.gettimeofday () in
  List.iter (fun m -> prerr_endline ("repro-cold fidelity: " ^ m)) !problems;
  let busy =
    List.fold_left
      (fun s spans ->
        List.fold_left
          (fun s (sp : Spans.span) ->
            if sp.name = "harness.cell" then s +. (sp.stop -. sp.start) else s)
          s spans)
      0.0 (Spans.buffers ())
  in
  {
    Proc.metrics =
      Replay.ledger
        ~extra:
          [
            ("harness.dedup_ratio", float_of_int requested /. float_of_int (max 1 distinct), "ratio");
            ( "harness.cache_hit_ratio",
              float_of_int (requested - distinct) /. float_of_int (max 1 requested),
              "ratio" );
            ("harness.pool_busy_share", busy /. (2.0 *. (t1 -. t0)), "ratio");
            ( "bench.trace_overhead_share",
              Spans.overhead_share ~span_cost ~wall:(t_end -. t_start) (Spans.buffers ()),
              "ratio" );
            ("bench.unattributed_s", Spans.unattributed ~t0 ~t1 (Spans.buffers ()), "s");
            ("peak_rss_mb", r.info.Proc.peak_mb, "MB");
          ];
    attempted = List.length cells;
    failed = List.length !problems;
  }
