(* serve-cold: `isf serve --socket -j 2 --journal F` with an empty run
   cache, driven by a closed loop of 2 callers.  Each caller submits
   one job through Serve.Server.client_run (its own connection, profiles
   on) and waits for its RESULT and PROFILE before taking the next. *)

open Pbcore

(* The timed phase is cut into rounds of one job per stratum (90 jobs,
   4-7 s on a 2-vCPU VM), run until the next would end after --seconds.
   The metrics are per round, so a run takes about --seconds on any
   host and still compares with a run that fitted more rounds.  At
   least 2 rounds, so that the p90 has 18 samples beyond it. *)
let min_rounds = 2

type served = {
  results : (int * string) list;
  sheds : int;
  profiles : (int * string) list;
}

type round = { first : int; wall : float; cpu : float }

type timed = {
  jobs : Serve.Job.t array;
  oracle : (string, Oracle.expected) Hashtbl.t;
  latency : float array;  (** seconds; infinity when the call failed *)
  served : (served, string) result array;
  rounds : round array;
  peak_mb : float;
  setup_times : float list;
  stats : (string * float) list;  (** the daemon's STATS reply *)
  journal_bytes : int;
}

let oracle_file = "perfbench/oracle/serve-cold.md5"

type started = {
  s_jobs : Serve.Job.t array;
  s_oracle : (string, Oracle.expected) Hashtbl.t;
  daemon : Proc.daemon;
  journal : string;
}

(* Set-up: generate the jobs, read their oracles, start the daemon and
   wait until it answers.  One set-up takes ~15 ms, so only the median
   of many is steady: 5 before the timed phase (the last daemon is
   kept) and 5 after each round, those in a directory of their own. *)
let setup ~dir ~seed ?(sub = "serve") () =
  let s_jobs = Array.of_list (Gen.serve_jobs ~seed ~rounds:(Gen.max_rounds ())) in
  let s_oracle = Oracle.load oracle_file in
  let sdir = Proc.fresh_dir (Filename.concat dir sub) in
  let journal = Filename.concat sdir "journal" in
  { s_jobs; s_oracle; daemon = Proc.start_daemon ~dir:sdir ~journal; journal }

let undo s = Proc.stop_daemon s.daemon

let setups_each = 5

let call socket c job =
  match
    Serve.Server.client_run ~profiles:true ~socket
      [ (Printf.sprintf "caller-%d" c, job) ]
  with
  | results, sheds, profiles -> Ok { results; sheds; profiles }
  | exception e -> Error (Printexc.to_string e)

(* The timed phase, on a started daemon: the rounds one after the
   other, each ended by both callers before the next starts; [between]
   runs after each round, outside its timing. *)
let measure ~seconds ~between s =
  let d = s.daemon in
  let n = Array.length s.s_jobs in
  let per = List.length (Gen.strata ()) in
  let latency = Array.make n infinity in
  let served = Array.make n (Error "never served") in
  let round k =
    let first = k * per in
    let next = Atomic.make first in
    let caller c () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < first + per then begin
          let t0 = Unix.gettimeofday () in
          let r = call d.Proc.socket c s.s_jobs.(i) in
          if Result.is_ok r then latency.(i) <- Unix.gettimeofday () -. t0;
          served.(i) <- r;
          loop ()
        end
      in
      loop ()
    in
    let cpu0 = Proc.cpu_of d.Proc.pid in
    let t0 = Unix.gettimeofday () in
    List.iter Domain.join (List.init 2 (fun c -> Domain.spawn (caller c)));
    let wall = Unix.gettimeofday () -. t0 in
    let r = { first; wall; cpu = Proc.cpu_of d.Proc.pid -. cpu0 } in
    between ();
    r
  in
  let t0 = Unix.gettimeofday () in
  let rec go k longest acc =
    let elapsed = Unix.gettimeofday () -. t0 in
    if (k + 1) * per <= n && (k < min_rounds || elapsed +. longest <= seconds) then
      let r = round k in
      go (k + 1) (Float.max longest r.wall) (r :: acc)
    else Array.of_list (List.rev acc)
  in
  let rounds = go 0 0.0 [] in
  let used = Array.length rounds * per in
  let stats = Proc.stats d in
  {
    jobs = Array.sub s.s_jobs 0 used;
    oracle = s.s_oracle;
    latency = Array.sub latency 0 used;
    served = Array.sub served 0 used;
    rounds;
    peak_mb = Proc.hwm_mb d.Proc.pid;
    setup_times = [];
    stats;
    journal_bytes = (Unix.stat s.journal).Unix.st_size;
  }

let timed ~dir ~seed ~seconds =
  let setup = setup ~dir ~seed in
  let before, daemon = Proc.setups setups_each ~undo (setup ?sub:None) in
  let later = ref [] in
  let between () =
    later := Proc.setup_times setups_each ~undo (setup ~sub:"serve-spare") @ !later
  in
  let t = Fun.protect ~finally:(fun () -> undo daemon) (fun () -> measure ~seconds ~between daemon) in
  { t with setup_times = before @ !later }

(* Check every served job against its recorded Ref-engine oracle. *)
let verify t =
  Array.mapi
    (fun i r ->
      match (r, Hashtbl.find_opt t.oracle (Serve.Job.digest t.jobs.(i))) with
      | _, None -> Error ("no recorded oracle for " ^ Serve.Job.render t.jobs.(i))
      | Error m, _ -> Error m
      | Ok { results = [ (id, line) ]; profiles = [ (pid, payload) ]; _ }, Some e
        when id = pid ->
          Oracle.check ~id t.jobs.(i) e ~line ~payload:(Some payload)
      | Ok _, _ -> Error "expected exactly one RESULT and one PROFILE")
    t.served

let failures verdicts =
  Array.fold_left (fun k v -> if Result.is_ok v then k else k + 1) 0 verdicts

let metrics t verdicts =
  let n = Array.length t.jobs in
  let failed = failures verdicts in
  Array.iteri
    (fun i v ->
      match v with
      | Ok () -> ()
      | Error m -> Printf.eprintf "serve-cold job %d: %s\n%!" i m)
    verdicts;
  let ms = List.map (fun s -> 1000.0 *. s) (Array.to_list t.latency) in
  let p90 =
    match Stats.percentile ~p:90.0 ms with
    | Some v -> v
    | None -> failwith "serve-cold: too few jobs for a p90"
  in
  let sum f = Array.fold_left (fun a r -> a +. f r) 0.0 t.rounds in
  let k = float_of_int (Array.length t.rounds) in
  Printf.eprintf "serve-cold: round walls %s s; %d latency samples\n%!"
    (String.concat " " (Array.to_list (Array.map (fun r -> Printf.sprintf "%.3f" r.wall) t.rounds)))
    n;
  {
    Proc.metrics =
      [
        ("wall_s", sum (fun r -> r.wall) /. k, "s");
        ("cpu_s", sum (fun r -> r.cpu) /. k, "s");
        ("ops_per_s", float_of_int (n - failed) /. sum (fun r -> r.wall), "1/s");
        ("p50_ms", Stats.median ms, "ms");
        ("p90_ms", p90, "ms");
        ("ok_share", float_of_int (n - failed) /. float_of_int n, "ratio");
        ("setup_s", Stats.median t.setup_times, "s");
      ];
    attempted = n;
    failed;
  }

let run ~dir ~seed ~seconds =
  let t = timed ~dir ~seed ~seconds in
  metrics t (verify t)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* The daemon's STATS counters reported as per-layer metrics (its queue
   depth is left out: after the timed phase it always reads 0). *)
let stats_keys =
  [
    "accepted"; "completed"; "shed"; "submit_batches"; "submit_batch_max";
    "result_batches"; "result_batch_max"; "cache_mem_hits"; "cache_misses";
  ]

let stats_metrics stats =
  List.map
    (fun k ->
      match List.assoc_opt k stats with
      | Some v -> ("serve.stats." ^ k, v, "count")
      | None -> failwith ("STATS reply without " ^ k))
    stats_keys

let cache_hit_ratio stats =
  let g k = Option.value ~default:0.0 (List.assoc_opt k stats) in
  let hits = g "cache_mem_hits" +. g "cache_disk_hits" in
  let all = hits +. g "cache_misses" in
  if all > 0.0 then hits /. all else 0.0

(* The journal records the daemon appends for one completed job, in
   its order, appended to a journal of the replay's own. *)
let journal_replay path records =
  let j, _ = Serve.Journal.open_ ~meta:"perfbench replay" path in
  List.iter
    (fun (id, client, job, result, payload) ->
      Replay.span "serve.journal_append" (fun () ->
          Serve.Journal.append j
            (Serve.Journal.Submitted { id; client; line = Serve.Job.render job });
          Serve.Journal.append j (Serve.Journal.Profile { id; payload });
          Serve.Journal.append j (Serve.Journal.Completed { id; result })))
    records;
  Serve.Journal.close j

let traced ~dir ~seed ~seconds =
  let span_cost = Spans.span_cost () in
  let t = timed ~dir ~seed ~seconds in
  let verdicts = verify t in
  let n = Array.length t.jobs in
  let problems = ref (failures verdicts) in
  let timed_job j =
    let s0 = Unix.gettimeofday () in
    let r = Replay.run_job j in
    (r, Unix.gettimeofday () -. s0)
  in
  let replayed, t0, t1 = Replay.par "serve.job" timed_job (Array.to_list t.jobs) in
  let replayed = Array.of_list replayed in
  let records = ref [] in
  Array.iteri
    (fun i r ->
      let (_, _, s, payload), _ = replayed.(i) in
      match r with
      | Ok { results = [ (id, line) ]; profiles = [ (_, served) ]; _ } ->
          let mine = Serve.Job.result_line ~id t.jobs.(i) (Serve.Job.Done s) in
          if mine <> line || payload <> served then begin
            prerr_endline ("serve-cold fidelity: replay differs on " ^ line);
            incr problems
          end;
          records := (id, Printf.sprintf "caller-%d" (i mod 2), t.jobs.(i), line, payload) :: !records
      | _ -> ())
    t.served;
  let m0 = Unix.gettimeofday () in
  journal_replay (Filename.concat dir "replay-journal") (List.rev !records);
  (* the fleet merge of these jobs' payloads, checked against a
     sequential fold over the payloads the daemon served *)
  let merged, parse_mb_per_s =
    Replay.merge (Array.to_list (Array.map (fun ((_, _, _, p), _) -> p) replayed))
  in
  let m1 = Unix.gettimeofday () in
  let fold =
    Profiles.Merge.render
      (Profiles.Merge.merge_list
         (List.concat_map
            (function
              | Ok { profiles; _ } -> List.map (fun (_, p) -> Profiles.Merge.parse p) profiles
              | Error _ -> [])
            (Array.to_list t.served)))
  in
  if merged <> fold then begin
    prerr_endline "serve-cold fidelity: merge tree differs from the sequential fold";
    incr problems
  end;
  let sheds =
    Array.fold_left (fun k r -> match r with Ok s -> k + s.sheds | Error _ -> k) 0 t.served
  in
  let durs = Array.map snd replayed in
  let waits =
    List.init n (fun i -> 1000.0 *. (t.latency.(i) -. durs.(i)))
  in
  let payload_bytes =
    Array.fold_left (fun k ((_, _, _, p), _) -> k + String.length p) 0 replayed
  in
  let fn = float_of_int n in
  {
    Proc.metrics =
      Replay.ledger
        ~extra:
          ([
             ("serve.submissions_per_job", (fn +. float_of_int sheds) /. fn, "ratio");
             ("serve.journal_bytes_per_job", float_of_int t.journal_bytes /. fn, "B");
             ("serve.wait_ms_p50", Stats.median waits, "ms");
             ("profiles.payload_bytes_per_job", float_of_int payload_bytes /. fn, "B");
             ("profiles.parse_mb_per_s", parse_mb_per_s, "MB/s");
             ("peak_rss_mb", t.peak_mb, "MB");
             ("harness.cache_hit_ratio", cache_hit_ratio t.stats, "ratio");
             ( "harness.pool_busy_share",
               Array.fold_left ( +. ) 0.0 durs /. (2.0 *. (t1 -. t0)),
               "ratio" );
             ( "bench.trace_overhead_share",
               Spans.overhead_share ~span_cost ~wall:(t1 -. t0 +. m1 -. m0)
                 (Spans.buffers ()),
               "ratio" );
             ( "bench.unattributed_s",
               Spans.unattributed ~t0 ~t1 (Spans.buffers ())
               +. Spans.unattributed ~t0:m0 ~t1:m1 (Spans.buffers ()),
               "s" );
           ]
          @ stats_metrics t.stats);
    attempted = n;
    failed = !problems;
  }
