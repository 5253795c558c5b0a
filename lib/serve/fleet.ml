(* Fleet driver: generate, submit and account for large batches of
   mixed-scale jobs — the "millions of users" simulation.  Job
   generation is deterministic from a seed, so the same fleet can be
   emitted to a job file, run sequentially as the byte-identity
   reference, run concurrently through the daemon, killed mid-flight
   and resumed — and every path must produce the same sorted result
   lines. *)

type fleet_stats = {
  jobs : int;
  ok : int;
  failed : int;
  quarantined : int;
  daemon : Daemon.stats;
  wall_seconds : float;
  jobs_per_sec : float;
  p50_ms : float;
  p99_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Deterministic generation                                            *)
(* ------------------------------------------------------------------ *)

(* Small benchmarks at small scales: a fleet simulates many cheap
   client requests, not few expensive table cells. *)
let fleet_benches = [ "compress"; "jess"; "db"; "javac"; "mtrt"; "jack" ]
let fleet_scales = [ 1; 2; 3 ]
let fleet_variants = [ "full-dup"; "no-dup"; "partial-dup"; "yp-opt" ]

let fleet_specs =
  [
    [ "call-edge" ];
    [ "field-access" ];
    [ "call-edge"; "field-access" ];
    [ "edge" ];
    [ "path" ];
    [ "receiver"; "cct" ];
  ]

let fleet_triggers =
  [
    Job.Counter { interval = 100; jitter = 0 };
    Job.Counter { interval = 1000; jitter = 0 };
    Job.Counter { interval = 10; jitter = 0 };
    Job.Always;
    Job.Never;
  ]

let nth_mod l i = List.nth l (i mod List.length l)

(* Multiplicative-congruential mixing keeps neighboring indices from
   walking the option lists in lockstep, while staying reproducible
   across OCaml versions (no Random.State dependency). *)
let mix seed i k =
  let h = (seed * 1_000_003) + (i * 8_191) + (k * 131) in
  let h = h lxor (h lsr 13) in
  let h = h * 97_001 in
  abs (h lxor (h lsr 7))

let job ~seed ~engine ~recording i =
  {
    Job.bench = nth_mod fleet_benches (mix seed i 1);
    scale = Some (nth_mod fleet_scales (mix seed i 2));
    variant = nth_mod fleet_variants (mix seed i 3);
    specs = nth_mod fleet_specs (mix seed i 4);
    trigger = nth_mod fleet_triggers (mix seed i 5);
    engine;
    recording;
    poison = false;
  }

let poison_job i =
  {
    Job.bench = "compress";
    scale = Some 1;
    variant = "full-dup";
    specs = [ "call-edge" ];
    trigger = Job.Counter { interval = 100 + i; jitter = 0 };
    engine = `Fast;
    recording = `Slots;
    poison = true;
  }

let jobs ?(engine = `Fast) ?(recording = `Slots) ?(poison = 0) ~seed ~n () =
  let normal = List.init n (fun i -> job ~seed ~engine ~recording i) in
  if poison <= 0 then normal
  else begin
    (* poison jobs are spread through the fleet, distinct by trigger so
       each digests differently and exercises its own quarantine entry *)
    let step = max 1 (n / (poison + 1)) in
    let rec weave i taken rest =
      match rest with
      | [] -> List.init (poison - taken) (fun k -> poison_job (taken + k))
      | x :: tl ->
          if taken < poison && i > 0 && i mod step = 0 then
            poison_job taken :: x :: weave (i + 1) (taken + 1) tl
          else x :: weave (i + 1) taken tl
    in
    weave 0 0 normal
  end

let client_of ~clients i = Printf.sprintf "client-%d" (i mod max 1 clients)

(* ------------------------------------------------------------------ *)
(* Job files                                                           *)
(* ------------------------------------------------------------------ *)

(* One submission per line: "<client> <canonical job line>".  The line
   number (1-based) is the job id everywhere — daemon, journal,
   results — which is what makes kill/restart/resume line up. *)
let write_job_file path entries =
  let oc = open_out path in
  List.iter
    (fun (client, j) ->
      if String.contains client ' ' then
        invalid_arg "Fleet.write_job_file: client names cannot contain spaces";
      Printf.fprintf oc "%s %s\n" client (Job.render j))
    entries;
  close_out oc

let read_job_file path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if not (String.equal line "") then
         match String.index_opt line ' ' with
         | None -> failwith (Printf.sprintf "bad job-file line %S" line)
         | Some i ->
             let client = String.sub line 0 i in
             let rest =
               String.sub line (i + 1) (String.length line - i - 1)
             in
             entries := (client, Job.parse rest) :: !entries
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

let write_results path results =
  let oc = open_out path in
  List.iter (fun (_, line) -> output_string oc (line ^ "\n")) results;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Running a fleet                                                     *)
(* ------------------------------------------------------------------ *)

let percentile p sorted =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) i))

let count_status results =
  List.fold_left
    (fun (ok, failed, quarantined) (_, line) ->
      match String.split_on_char ' ' line with
      | _ :: _ :: "OK" :: _ -> (ok + 1, failed, quarantined)
      | _ :: _ :: "ERR" :: _ -> (ok, failed + 1, quarantined)
      | _ :: _ :: "QUARANTINED" :: _ -> (ok, failed, quarantined + 1)
      | _ -> (ok, failed, quarantined))
    (0, 0, 0) results

(* Submit [entries] (client, job) with pinned ids 1..n, closed loop:
   only the calling thread submits, keeping at most [config.capacity] of
   its own jobs outstanding, and a worker's completion only counts the
   job off and wakes it.  Ids the journal already completed or requeued
   are skipped.  Latency runs from a job's submission to its result, so
   the percentiles measure service latency (queue wait + execution),
   not the age of a backlog. *)
let run_daemon ?(config = Daemon.default) ?journal ?(meta = "") entries =
  let n = List.length entries in
  let submit_times = Array.make (n + 1) 0.0 in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let latencies = ref [] in
  let outstanding = ref 0 in (* our submissions without a result yet *)
  let on_result id _client _job _line _payload =
    Mutex.protect mu (fun () ->
        (* jobs requeued by journal recovery inside Daemon.start were
           not submitted here and carry no latency sample *)
        if id <= n && submit_times.(id) > 0.0 then begin
          let dt = Unix.gettimeofday () -. submit_times.(id) in
          latencies := dt :: !latencies;
          decr outstanding
        end;
        Condition.broadcast cond)
  in
  let t0 = Unix.gettimeofday () in
  let d = Daemon.start ~config ?journal ~meta ~on_result () in
  (* a failed journal append completes its job all the same, so the
     broadcast above wakes this wait for it too *)
  let await ok =
    Mutex.protect mu (fun () ->
        while not (ok () || Daemon.failure d <> None) do
          Condition.wait cond mu
        done)
  in
  let window = max 1 config.Daemon.capacity in
  List.iteri
    (fun i (client, j) ->
      let id = i + 1 in
      if not (Daemon.is_known d ~id) then begin
        await (fun () -> !outstanding < window);
        if Daemon.failure d = None then begin
          Mutex.protect mu (fun () ->
              incr outstanding;
              submit_times.(id) <- Unix.gettimeofday ());
          Daemon.submit_pinned d ~id ~client j
        end
      end)
    entries;
  await (fun () -> !outstanding = 0);
  (* the jobs recovery requeued *)
  Daemon.drain d;
  (match Daemon.failure d with
  | Some m ->
      Daemon.stop ~drain:false d;
      failwith m
  | None -> ());
  let wall = Unix.gettimeofday () -. t0 in
  let results = Daemon.results d in
  let profiles = Daemon.profiles d in
  let dstats = Daemon.stats d in
  Daemon.stop d;
  let ok, failed, quarantined = count_status results in
  let lat =
    let l = Array.of_list (List.map (fun s -> s *. 1000.0) !latencies) in
    Array.sort compare l;
    l
  in
  ( {
      jobs = n;
      ok;
      failed;
      quarantined;
      daemon = dstats;
      wall_seconds = wall;
      jobs_per_sec = (if wall > 0.0 then float_of_int n /. wall else 0.0);
      p50_ms = percentile 50.0 lat;
      p99_ms = percentile 99.0 lat;
    },
    results,
    profiles )

(* The byte-identity reference: one worker, in submission order. *)
let run_sequential ?(config = Daemon.default) entries =
  let config = { config with workers = 1; capacity = 1 } in
  let _, results, profiles = run_daemon ~config entries in
  (results, profiles)

(* ------------------------------------------------------------------ *)
(* Cross-shard merge                                                   *)
(* ------------------------------------------------------------------ *)

(* Merge a fleet's per-job profile payloads into one aggregate, cached
   under the sorted multiset of payload digests (Harness.Aggregate).
   An OK result whose payload is missing — a journal written before
   Profile records existed, or a socket run without PROFILES on — is
   recomputed through Job.execute_full: the run cache makes that a
   lookup and determinism makes the payload identical, so the merge is
   lossless either way. *)
let merge_profiles ?config ?jobs ~entries ~results profiles =
  let arr = Array.of_list entries in
  let tbl = Hashtbl.create (max 16 (List.length profiles)) in
  List.iter (fun (id, p) -> Hashtbl.replace tbl id p) profiles;
  let payloads =
    List.filter_map
      (fun (id, line) ->
        match String.split_on_char ' ' line with
        | _ :: _ :: "OK" :: _ -> (
            match Hashtbl.find_opt tbl id with
            | Some p -> Some p
            | None when id >= 1 && id <= Array.length arr ->
                let _, j = arr.(id - 1) in
                Some (Profiles.Merge.render (snd (Job.execute_full ?config j)))
            | None -> None)
        | _ -> None)
      results
  in
  let digests = List.map Harness.Digest.hex payloads in
  Harness.Aggregate.merge_cached ?jobs ~digests (fun () ->
      List.map Profiles.Merge.parse payloads)

(* Every failure a fleet reports must carry a known classification —
   the "no unclassified crashes" acceptance gate.  Bug-classified
   failures never surface as ERR: the quarantine absorbs them. *)
let unclassified results =
  let known = [ "fault"; "fuel"; "timeout"; "transient" ] in
  List.filter
    (fun (_, line) ->
      match String.split_on_char ' ' line with
      | _ :: _ :: "OK" :: _ | _ :: _ :: "QUARANTINED" :: _ -> false
      | _ :: _ :: "ERR" :: cls :: _ -> not (List.mem cls known)
      | _ -> true)
    results
