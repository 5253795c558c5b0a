(* Serve mode ([lib/serve]): canonical job lines, bounded fair
   admission, poison-job quarantine, journaled crash recovery, and the
   engine invariant that a fleet's sorted result lines are
   byte-identical however the jobs were scheduled, retried or resumed.

   Everything here runs in-process: crashes are simulated by
   constructing the journal a dead daemon would have left behind (the
   process-level SIGKILL path is scripts/serve_smoke.sh). *)

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

module Job = Serve.Job
module Fairq = Serve.Fairq
module Journal = Serve.Journal
module Daemon = Serve.Daemon
module Fleet = Serve.Fleet
module Server = Serve.Server

let tmp_path name =
  let path = Filename.temp_file ("isf_serve_" ^ name) ".tmp" in
  Sys.remove path;
  path

(* Job execution shares the global memo tier with every other test;
   reset around each daemon run so byte-identity is honest (each run
   recomputes) and other suites see an unpolluted cache. *)
let with_fresh_cache f =
  Harness.Runcache.reset_memory ();
  Fun.protect ~finally:Harness.Runcache.reset_memory f

(* ---- canonical job lines ---- *)

let test_job_roundtrip () =
  let jobs = Fleet.jobs ~poison:2 ~seed:9 ~n:20 () in
  check_int "generator wove the poison in" 22 (List.length jobs);
  List.iter
    (fun j ->
      let line = Job.render j in
      check_bool "parse inverts render" true (Job.parse line = j);
      check_str "render is canonical" line (Job.render (Job.parse line));
      check_str "digest keys on the rendering" (Job.digest j)
        (Harness.Digest.hex line);
      let status = Job.Quarantined { message = "m" } in
      check_str "renumber rewrites only the id field"
        (Job.result_line ~id:7 j status)
        (Job.renumber ~id:7 (Job.result_line ~id:123456 j status)))
    jobs;
  (* digests separate every distinct job *)
  let digests = List.map Job.digest jobs in
  check_int "distinct jobs digest distinctly"
    (List.length (List.sort_uniq compare (List.map Job.render jobs)))
    (List.length (List.sort_uniq compare digests))

let test_job_parse_is_loud () =
  let bad line =
    check_bool (Printf.sprintf "%S is refused" line) true
      (try
         ignore (Job.parse line);
         false
       with Failure m -> String.length m > 0)
  in
  bad "";
  bad "bench=jess";
  bad "not a job line at all";
  bad
    "bench=jess scale=1 variant=bogus specs=call-edge trigger=never \
     engine=fast recording=slots poison=no";
  bad
    "bench=jess scale=1 variant=full-dup specs=bogus trigger=never \
     engine=fast recording=slots poison=no";
  bad
    "bench=jess scale=1 variant=full-dup specs=call-edge trigger=bogus \
     engine=fast recording=slots poison=no";
  bad
    "bench=jess scale=x variant=full-dup specs=call-edge trigger=never \
     engine=fast recording=slots poison=no";
  (* an unknown benchmark parses: it fails at execution, classified
     "bug" — a poison job, which is what the quarantine is for *)
  let j =
    Job.parse
      "bench=no-such-bench scale=1 variant=full-dup specs=call-edge \
       trigger=never engine=fast recording=slots poison=no"
  in
  check_str "unknown bench parses" "no-such-bench" j.Job.bench;
  check_str "and fails bug-classified" "bug"
    (try
       ignore (Job.execute j);
       "no failure"
     with e -> Harness.Robust.classify e)

(* ---- fair queue ---- *)

let test_fairq_round_robin () =
  let q = Fairq.create ~capacity:64 () in
  (* a flooding client ahead of two modest ones *)
  for i = 1 to 10 do
    match Fairq.submit q ~client:"flood" (Printf.sprintf "f%d" i) with
    | `Accepted -> ()
    | _ -> Alcotest.fail "submit under capacity"
  done;
  List.iter
    (fun x -> ignore (Fairq.submit q ~client:"a" x))
    [ "a1"; "a2" ];
  List.iter (fun x -> ignore (Fairq.submit q ~client:"b" x)) [ "b1" ];
  check_int "three clients queued" 3 (Fairq.clients q);
  let order = ref [] in
  let rec drain () =
    match Fairq.pop q with
    | Some x ->
        order := x :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  (* rotation is first-seen order (flood, a, b), resuming one past the
     client served last: every client is served once per round until it
     empties, so the flood cannot starve a or b *)
  check
    Alcotest.(list string)
    "round-robin interleaving"
    [
      "f1"; "a1"; "b1"; "f2"; "a2"; "f3"; "f4"; "f5"; "f6"; "f7"; "f8";
      "f9"; "f10";
    ]
    (List.rev !order);
  (* emptied clients are retired — a daemon outliving thousands of
     one-shot connections must not keep a queue per past client *)
  check_int "emptied clients retired from the rotation" 0 (Fairq.clients q)

let test_fairq_sheds_at_capacity () =
  let q = Fairq.create ~capacity:3 () in
  let accepted = ref 0 and shed = ref 0 in
  for i = 1 to 10 do
    match Fairq.submit q ~client:(Printf.sprintf "c%d" (i mod 4)) i with
    | `Accepted -> incr accepted
    | `Shed -> incr shed
    | `Closed -> Alcotest.fail "not closed"
  done;
  check_int "bounded: exactly capacity admitted" 3 !accepted;
  check_int "the rest shed explicitly" 7 !shed;
  check_int "shed counter agrees" 7 (Fairq.shed_count q);
  check_int "occupancy never exceeds capacity" 3 (Fairq.length q);
  (* a pop frees a slot: admission resumes instead of queueing unboundedly *)
  ignore (Fairq.pop q);
  check_bool "slot freed readmits" true
    (Fairq.submit q ~client:"late" 99 = `Accepted)

let test_fairq_close_now_drops () =
  let q = Fairq.create ~capacity:16 () in
  List.iter (fun x -> ignore (Fairq.submit q ~client:"c" x)) [ 1; 2; 3 ];
  let dropped = Fairq.close_now q in
  check_int "backlog returned to the caller" 3 (List.length dropped);
  check_bool "queue is closed" true (Fairq.pop_wait q = None);
  check_bool "no further admissions" true
    (Fairq.submit q ~client:"c" 4 = `Closed)

(* ---- worker service ---- *)

let test_service_distribution () =
  (* two tasks that each wait for the other force one task onto each
     worker domain; Pool.Service.stats must see the distribution *)
  let active = Atomic.make 0 in
  let pending = Atomic.make 2 in
  let next () =
    if Atomic.fetch_and_add pending (-1) > 0 then
      Some
        (fun () ->
          Atomic.incr active;
          let deadline = Unix.gettimeofday () +. 5.0 in
          while Atomic.get active < 2 && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done;
          if Atomic.get active < 2 then
            Alcotest.fail "tasks never ran concurrently")
    else None
  in
  let s = Harness.Pool.Service.start ~workers:2 ~next in
  Harness.Pool.Service.join s;
  check
    Alcotest.(array int)
    "one barrier task per worker" [| 1; 1 |]
    (Harness.Pool.Service.stats s);
  check_int "nothing escaped the wrapper" 0 (Harness.Pool.Service.uncaught s)

let test_service_survives_raising_tasks () =
  let pending = Atomic.make 6 in
  let next () =
    let k = Atomic.fetch_and_add pending (-1) in
    if k > 0 then Some (fun () -> if k mod 2 = 0 then failwith "boom")
    else None
  in
  let s = Harness.Pool.Service.start ~workers:2 ~next in
  Harness.Pool.Service.join s;
  check_int "every task ran despite the failures" 6
    (Array.fold_left ( + ) 0 (Harness.Pool.Service.stats s));
  check_int "failures were counted, not fatal" 3
    (Harness.Pool.Service.uncaught s)

(* ---- daemon: identity, shedding, quarantine ---- *)

let small_fleet () =
  let jobs = Fleet.jobs ~poison:1 ~seed:4 ~n:6 () in
  List.mapi (fun i j -> (Fleet.client_of ~clients:3 i, j)) jobs

(* Every (workers, capacity) only changes timing: capacity 2 under 2
   workers keeps the closed loop's window below the fleet size. *)
let test_concurrent_equals_sequential () =
  let entries = small_fleet () in
  let reference, ref_profiles =
    with_fresh_cache (fun () -> Fleet.run_sequential entries)
  in
  List.iter
    (fun (workers, capacity) ->
      let what = Printf.sprintf "workers %d, capacity %d" workers capacity in
      let stats, concurrent, conc_profiles =
        with_fresh_cache (fun () ->
            Fleet.run_daemon
              ~config:{ Daemon.default with workers; capacity }
              entries)
      in
      check_int (what ^ ": every job answered") (List.length entries)
        (List.length concurrent);
      check_bool (what ^ ": concurrent == sequential, byte for byte") true
        (reference = concurrent);
      check_bool (what ^ ": profile payloads identical across scheduling")
        true
        (ref_profiles = conc_profiles);
      check_int (what ^ ": the poison job ended quarantined") 1
        stats.Fleet.quarantined;
      check_int (what ^ ": no exception escaped a worker") 0
        stats.Fleet.daemon.Daemon.uncaught;
      check_int (what ^ ": pinned submission never sheds") 0
        stats.Fleet.daemon.Daemon.shed;
      check
        Alcotest.(list (pair int string))
        (what ^ ": no unclassified failures") []
        (Fleet.unclassified concurrent))
    [ (3, 4); (2, 2) ]

let test_merge_profiles_lossless () =
  let entries = small_fleet () in
  let results, profiles =
    with_fresh_cache (fun () -> Fleet.run_sequential entries)
  in
  with_fresh_cache (fun () ->
      let m1 = Fleet.merge_profiles ~jobs:1 ~entries ~results profiles in
      Harness.Runcache.reset_memory ();
      (* no payloads at all (a pre-profile journal replay would look like
         this): every OK job is recomputed through the run cache and the
         merge must still be byte-identical *)
      let m2 = Fleet.merge_profiles ~jobs:2 ~entries ~results [] in
      check_str "payload-less merge is byte-identical (lossless fallback)"
        (Profiles.Merge.render m1)
        (Profiles.Merge.render m2))

let test_daemon_sheds_when_saturated () =
  (* one worker wedged on a slow job + capacity 1: the second submit
     queues, the rest must shed — explicitly, not queue unboundedly *)
  let d =
    Daemon.start
      ~config:{ Daemon.default with workers = 1; capacity = 1 }
      ()
  in
  let job = List.nth (Fleet.jobs ~seed:2 ~n:1 ()) 0 in
  let accepted = ref 0 and shed = ref 0 in
  for _ = 1 to 12 do
    match Daemon.submit d ~client:"burst" job with
    | `Accepted _ -> incr accepted
    | `Shed -> incr shed
    | `Closed -> Alcotest.fail "daemon not closed"
  done;
  check_bool "admission is bounded" true (!accepted <= 3);
  check_bool "overflow shed explicitly" true (!shed >= 9);
  check_int "every submit was answered" 12 (!accepted + !shed);
  Daemon.drain d;
  let st = Daemon.stats d in
  Daemon.stop d;
  check_int "every accepted job completed" !accepted st.Daemon.completed;
  check_int "sheds counted" !shed st.Daemon.shed

let test_quarantine_after_n_failures () =
  let q = Serve.Quarantine.create ~threshold:3 () in
  check_bool "first failure retries" true
    (Serve.Quarantine.record_failure q ~digest:"d" ~report:"r" = `Retry 1);
  check_bool "second failure retries" true
    (Serve.Quarantine.record_failure q ~digest:"d" ~report:"r" = `Retry 2);
  check_bool "third failure quarantines" true
    (Serve.Quarantine.record_failure q ~digest:"d" ~report:"r" = `Quarantined);
  check_bool "quarantined digest is findable" true
    (Serve.Quarantine.find q ~digest:"d" = Some "r");
  check_bool "other digests unaffected" true
    (Serve.Quarantine.find q ~digest:"e" = None)

let test_poison_job_quarantined_not_retried_forever () =
  with_fresh_cache (fun () ->
      let poison =
        {
          Job.bench = "compress";
          scale = Some 1;
          variant = "full-dup";
          specs = [ "call-edge" ];
          trigger = Job.Never;
          engine = `Fast;
          recording = `Slots;
          poison = true;
        }
      in
      let d =
        Daemon.start ~config:{ Daemon.default with workers = 1 } ()
      in
      (match Daemon.submit d ~client:"t" poison with
      | `Accepted _ -> ()
      | _ -> Alcotest.fail "accepted");
      Daemon.drain d;
      let first =
        match Daemon.results d with
        | [ (_, line) ] -> line
        | _ -> Alcotest.fail "one result"
      in
      (* result line: "<id> <digest> QUARANTINED <report>" *)
      (match String.split_on_char ' ' first with
      | _ :: _ :: status :: _ ->
          check_str "poison job ends quarantined" "QUARANTINED" status
      | _ -> Alcotest.fail "malformed result line");
      (* resubmitting the same digest never runs it again: the answer is
         the quarantine report, immediately *)
      (match Daemon.submit d ~client:"t" poison with
      | `Accepted _ -> ()
      | _ -> Alcotest.fail "accepted");
      Daemon.drain d;
      let st = Daemon.stats d in
      Daemon.stop d;
      check_int "both submissions answered" 2 st.Daemon.completed;
      check_int "one quarantine entry, not two" 1 st.Daemon.quarantined)

(* ---- journal: crash simulation, torn tail, meta refusal ---- *)

let test_restart_resumes_byte_identical () =
  let entries = small_fleet () in
  let reference, _ = with_fresh_cache (fun () -> Fleet.run_sequential entries) in
  (* forge the journal a daemon killed mid-fleet would leave: every job
     submitted, the first three completed, the rest in flight *)
  let jpath = tmp_path "resume" in
  let j, _ = Journal.open_ ~meta:"sim" jpath in
  List.iteri
    (fun i (client, job) ->
      Journal.append j
        (Journal.Submitted { id = i + 1; client; line = Job.render job }))
    entries;
  List.iteri
    (fun i (_, result) ->
      if i < 3 then Journal.append j (Journal.Completed { id = i + 1; result }))
    reference;
  Journal.close j;
  let stats, resumed, _ =
    with_fresh_cache (fun () ->
        Fleet.run_daemon
          ~config:{ Daemon.default with workers = 2 }
          ~journal:jpath ~meta:"sim" entries)
  in
  check_int "completed jobs replayed, not re-run" 3
    stats.Fleet.daemon.Daemon.replayed;
  check_bool "resumed run == uninterrupted run, byte for byte" true
    (reference = resumed);
  (* second restart on the now-complete journal: everything replays *)
  let stats2, again, _ =
    with_fresh_cache (fun () ->
        Fleet.run_daemon ~journal:jpath ~meta:"sim" entries)
  in
  check_int "fully-complete journal replays everything"
    (List.length entries) stats2.Fleet.daemon.Daemon.replayed;
  check_bool "and is still byte-identical" true (reference = again);
  Sys.remove jpath

(* [f ()] on its own domain, failing the test if it has not returned
   within [seconds]: a wedged daemon fails here instead of hanging the
   suite (the wedged domain is left behind, blocked) *)
let within ~seconds f =
  let result = Atomic.make None in
  let dom =
    Domain.spawn (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  match Atomic.get result with
  | None -> Alcotest.failf "still running after %.0f s: wedged" seconds
  | Some r -> (
      Domain.join dom;
      match r with Ok v -> v | Error e -> raise e)

(* The resume a crashed wide run may take on one worker: more jobs
   pending in the journal than the capacity, and ids the dead daemon
   never submitted.  Recovery fills the queue before the drain submits
   anything; a completion that submitted the next job from the worker
   domain would block that worker on the full queue, with no other
   worker left to empty it. *)
let test_narrow_resume_finishes () =
  let entries = small_fleet () in
  let reference, ref_profiles =
    with_fresh_cache (fun () -> Fleet.run_sequential entries)
  in
  let submitted = List.length entries - 2 in
  let jpath = tmp_path "narrow" in
  let j, _ = Journal.open_ ~meta:"narrow" jpath in
  List.iteri
    (fun i (client, job) ->
      if i < submitted then
        Journal.append j
          (Journal.Submitted { id = i + 1; client; line = Job.render job }))
    entries;
  Journal.append j
    (Journal.Completed { id = 1; result = snd (List.hd reference) });
  Journal.close j;
  let stats, resumed, profiles =
    within ~seconds:120.0 (fun () ->
        with_fresh_cache (fun () ->
            Fleet.run_daemon
              ~config:{ Daemon.default with workers = 1; capacity = 2 }
              ~journal:jpath ~meta:"narrow" entries))
  in
  Sys.remove jpath;
  check_int "the completed job replayed" 1 stats.Fleet.daemon.Daemon.replayed;
  check_bool "pending jobs outnumbered the capacity" true (submitted - 1 > 2);
  check_bool "narrow resume == sequential, byte for byte" true
    (reference = resumed);
  (* the replayed job has no payload: its Profile record was not forged *)
  let fresh = List.filter (fun (id, _) -> id <> 1) in
  check_bool "fresh payloads identical" true
    (fresh ref_profiles = fresh profiles)

let test_journal_torn_tail_tolerated () =
  let jpath = tmp_path "torn" in
  let j, _ = Journal.open_ ~meta:"m" jpath in
  Journal.append j (Journal.Submitted { id = 1; client = "c"; line = "l1" });
  Journal.append j (Journal.Completed { id = 1; result = "r1" });
  Journal.append j (Journal.Submitted { id = 2; client = "c"; line = "l2" });
  Journal.close j;
  (* a SIGKILL mid-append can at worst truncate the final record *)
  let bytes = In_channel.with_open_bin jpath In_channel.input_all in
  Out_channel.with_open_bin jpath (fun oc ->
      Out_channel.output_string oc
        (String.sub bytes 0 (String.length bytes - 7)));
  let j2, r = Journal.open_ ~meta:"m" jpath in
  Journal.close j2;
  check
    Alcotest.(list (pair int string))
    "fully-written records survive the torn tail"
    [ (1, "r1") ]
    r.Journal.completed;
  check_bool "the torn record is gone, not half-read" true
    (match r.Journal.pending with
    | [] -> true
    | [ (2, "c", "l2") ] -> true (* the tear landed after record 3 *)
    | _ -> false);
  Sys.remove jpath

let test_journal_profile_records_recovered () =
  let jpath = tmp_path "profrec" in
  let j, _ = Journal.open_ ~meta:"m" jpath in
  Journal.append j (Journal.Submitted { id = 1; client = "c"; line = "l1" });
  Journal.append j (Journal.Profile { id = 1; payload = "p1" });
  Journal.append j (Journal.Completed { id = 1; result = "r1" });
  Journal.append j (Journal.Submitted { id = 2; client = "c"; line = "l2" });
  (* a kill between the Profile append and its Completed append: the
     orphan payload must NOT be recovered — the job re-runs and writes a
     fresh deterministic pair *)
  Journal.append j (Journal.Profile { id = 2; payload = "p2" });
  Journal.close j;
  let j2, r = Journal.open_ ~meta:"m" jpath in
  Journal.close j2;
  check
    Alcotest.(list (pair int string))
    "payloads of completed jobs recovered"
    [ (1, "p1") ]
    r.Journal.profiles;
  check_bool "the half-written job is pending again" true
    (List.exists (fun (id, _, _) -> id = 2) r.Journal.pending);
  Sys.remove jpath

let test_journal_meta_mismatch_refused () =
  let jpath = tmp_path "meta" in
  let j, _ = Journal.open_ ~meta:"config-a" jpath in
  Journal.append j (Journal.Submitted { id = 1; client = "c"; line = "l" });
  Journal.close j;
  check_bool "a different configuration is refused, loudly" true
    (try
       ignore (Journal.open_ ~meta:"config-b" jpath);
       false
     with Failure m ->
       check_bool "the refusal names the journal" true
         (String.length m > 0);
       true);
  (* the matching meta still opens *)
  let j2, r = Journal.open_ ~meta:"config-a" jpath in
  Journal.close j2;
  check_int "journal intact after the refusal" 1
    (List.length r.Journal.pending);
  Sys.remove jpath

let test_journal_garbage_file_refused () =
  (* pointing --journal at a file that is not a journal at all must
     refuse loudly, not silently truncate it to an empty journal *)
  let jpath = tmp_path "garbage" in
  let content = "#!/bin/sh\necho this is certainly not a job journal\n" in
  Out_channel.with_open_bin jpath (fun oc ->
      Out_channel.output_string oc content);
  check_bool "a non-journal file is refused" true
    (try
       ignore (Journal.open_ ~meta:"m" jpath);
       false
     with Failure m -> String.length m > 0);
  check_str "and left byte-for-byte intact" content
    (In_channel.with_open_bin jpath In_channel.input_all);
  Sys.remove jpath

let test_quarantine_survives_restart () =
  with_fresh_cache (fun () ->
      let poison =
        {
          Job.bench = "compress";
          scale = Some 1;
          variant = "full-dup";
          specs = [ "call-edge" ];
          trigger = Job.Always;
          engine = `Fast;
          recording = `Slots;
          poison = true;
        }
      in
      let jpath = tmp_path "qrestart" in
      (* first life: the poison job gets quarantined and journaled *)
      let d1 = Daemon.start ~journal:jpath ~meta:"q" () in
      (match Daemon.submit d1 ~client:"t" poison with
      | `Accepted _ -> ()
      | _ -> Alcotest.fail "accepted");
      Daemon.drain d1;
      let st1 = Daemon.stats d1 in
      Daemon.stop d1;
      check_int "first life quarantined the job" 1 st1.Daemon.quarantined;
      (* second life: the quarantine list is restored from the journal,
         so resubmitting answers immediately without running the job *)
      let d2 = Daemon.start ~journal:jpath ~meta:"q" () in
      (match Daemon.submit d2 ~client:"t" poison with
      | `Accepted _ -> ()
      | _ -> Alcotest.fail "accepted");
      Daemon.drain d2;
      let answers = Daemon.results d2 in
      let st2 = Daemon.stats d2 in
      Daemon.stop d2;
      check_bool "restarted daemon answers from the quarantine list" true
        (List.exists
           (fun (_, line) ->
             match String.split_on_char ' ' line with
             | _ :: _ :: "QUARANTINED" :: _ -> true
             | _ -> false)
           answers);
      check_int "nothing newly quarantined on the second life" 0
        st2.Daemon.quarantined;
      Sys.remove jpath)

(* ---- socket front-end ---- *)

(* run [f] against a live socket server on a fresh daemon *)
let with_socket_server ?config f =
  with_fresh_cache (fun () ->
      let sock = tmp_path "sock" in
      let srv = Server.create ~socket:sock in
      let d = Daemon.start ?config ~on_result:(Server.on_result srv) () in
      let stop = Atomic.make false in
      let loop =
        Domain.spawn (fun () ->
            Server.run srv d ~stop:(fun () -> Atomic.get stop))
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Domain.join loop;
          Daemon.stop d)
        (fun () -> f sock))

(* The submission trio per job makes two of every three completions a
   warm-cache (or quarantine-list) answer that can finish inside
   [Daemon.submit], before the server registers the id -> conn route:
   the regression pinned here is that such a RESULT was dropped and
   the client hung forever. *)
let test_socket_instant_results_not_dropped () =
  with_socket_server (fun sock ->
      let entries =
        Fleet.jobs ~seed:3 ~n:6 ()
        |> List.concat_map (fun j -> [ ("x", j); ("y", j); ("z", j) ])
      in
      let results, _shed, _profiles =
        Server.client_run ~timeout:60.0 ~socket:sock entries
      in
      check
        Alcotest.(list int)
        "one RESULT line per entry, keyed by its position"
        (List.init (List.length entries) succ)
        (List.map fst results);
      (* the three submissions of each job agree past the id column *)
      let strip line =
        match String.index_opt line ' ' with
        | Some i -> String.sub line (i + 1) (String.length line - i - 1)
        | None -> line
      in
      let rec trios = function
        | (_, a) :: (_, b) :: (_, c) :: rest ->
            check_str "duplicate submissions answer identically"
              (strip a) (strip b);
            check_str "cached answer matches the computed one" (strip a)
              (strip c);
            trios rest
        | _ -> ()
      in
      trios results)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The batched data plane end to end: SUBMIT* frames of 4, PROFILE
   payload frames, and byte-identity of the pipelined client against
   the in-process sequential reference. *)
let test_socket_pipelined_batches_and_profiles () =
  with_socket_server (fun sock ->
      let entries =
        Fleet.jobs ~seed:5 ~n:6 ()
        |> List.mapi (fun i j -> (Fleet.client_of ~clients:2 i, j))
      in
      let reference, ref_profiles = Fleet.run_sequential entries in
      Harness.Runcache.reset_memory ();
      let results, shed, profs =
        Server.client_run ~timeout:60.0 ~batch:4 ~profiles:true ~socket:sock
          entries
      in
      check_int "nothing shed under capacity" 0 shed;
      check_bool "pipelined batches == sequential, byte for byte" true
        (reference = results);
      let ok_ids =
        List.filter_map
          (fun (id, line) ->
            match String.split_on_char ' ' line with
            | _ :: _ :: "OK" :: _ -> Some id
            | _ -> None)
          results
      in
      check
        Alcotest.(list int)
        "one PROFILE frame per OK result" ok_ids (List.map fst profs);
      List.iter (fun (_, p) -> ignore (Profiles.Merge.parse p)) profs;
      (* the streamed payloads merge to the same aggregate as the
         sequential fleet's in-process payloads *)
      let m_sock = Fleet.merge_profiles ~jobs:1 ~entries ~results profs in
      Harness.Runcache.reset_memory ();
      let m_seq =
        Fleet.merge_profiles ~jobs:2 ~entries ~results:reference ref_profiles
      in
      check_str "merged aggregate identical over the wire"
        (Profiles.Merge.render m_seq)
        (Profiles.Merge.render m_sock))

(* A lone socket fleet past the daemon's capacity, twice on one
   daemon: each run equals the sequential fleet byte for byte (the
   results are numbered by entry, not by the daemon's ids, which a
   shed or an earlier run would shift) and is shed at most one window's
   worth. *)
let test_socket_fleet_beyond_capacity () =
  let entries =
    Fleet.jobs ~seed:7 ~n:30 ()
    |> List.mapi (fun i j -> (Fleet.client_of ~clients:2 i, j))
  in
  let reference, ref_profiles =
    with_fresh_cache (fun () -> Fleet.run_sequential entries)
  in
  let config = { Daemon.default with workers = 1; capacity = 2 } in
  with_socket_server ~config (fun sock ->
      List.iter
        (fun run ->
          let results, shed, profs =
            Server.client_run ~timeout:60.0 ~batch:8 ~profiles:true
              ~socket:sock entries
          in
          check_bool (run ^ ": results == sequential, byte for byte") true
            (reference = results);
          check_bool (run ^ ": profiles == sequential, byte for byte") true
            (ref_profiles = profs);
          check_bool
            (Printf.sprintf "%s: %d shed, at most the window of 8" run shed)
            true (shed <= 8))
        [ "first run"; "second run" ])

(* Control-plane corners: PING, PROFILES ack, SUBMIT* bounds, the
   retired singleton framings, a lone result as RESULT* 1, and the
   extended STATS counters. *)
let test_socket_protocol_basics () =
  with_socket_server (fun sock ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      let ic = Unix.in_channel_of_descr fd in
      let send s =
        ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s))
      in
      send "PING\n";
      check_str "pong" "OK pong" (input_line ic);
      send "PROFILES on\n";
      check_str "profiles ack" "OK profiles on" (input_line ic);
      send "PROFILES off\n";
      check_str "profiles off ack" "OK profiles off" (input_line ic);
      send "SUBMIT* 0\n";
      (match String.split_on_char ' ' (input_line ic) with
      | "ERR" :: _ -> ()
      | l -> Alcotest.failf "batch size 0 accepted: %s" (String.concat " " l));
      send (Printf.sprintf "SUBMIT* %d\n" (Server.max_batch + 1));
      (match String.split_on_char ' ' (input_line ic) with
      | "ERR" :: _ -> ()
      | l -> Alcotest.failf "oversized batch accepted: %s" (String.concat " " l));
      let job = Job.render (List.hd (Fleet.jobs ~seed:2 ~n:1 ())) in
      List.iter
        (fun req ->
          send (req ^ "\n");
          check_bool
            (List.hd (String.split_on_char ' ' req) ^ " is an unknown request")
            true
            (String.starts_with ~prefix:"ERR unknown request" (input_line ic)))
        [ "HELLO c"; "SUBMIT " ^ job ];
      send ("SUBMIT* 1\nc " ^ job ^ "\n");
      (* the ack and the lone result may arrive in either order *)
      let rec await ack result =
        if ack && result then ()
        else
          match String.split_on_char ' ' (input_line ic) with
          | [ "OK"; "batch"; "1"; _ ] -> await true result
          | [ "RESULT*"; "1" ] ->
              ignore (input_line ic);
              await ack true
          | l -> Alcotest.failf "unexpected reply: %s" (String.concat " " l)
      in
      await false false;
      send "STATS\n";
      let stats = input_line ic in
      List.iter
        (fun key ->
          check_bool (key ^ " reported") true (contains stats (key ^ "=")))
        [
          "queue"; "submit_batches"; "submit_batch_max"; "result_batches";
          "result_batch_max"; "merges"; "merge_inputs"; "cache_mem_hits";
          "cache_misses";
        ];
      send "QUIT\n";
      try Unix.close fd with Unix.Unix_error _ -> ())

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "job lines: render/parse/digest" `Quick
          test_job_roundtrip;
        Alcotest.test_case "job parse errors are loud" `Quick
          test_job_parse_is_loud;
        Alcotest.test_case "fair queue: flooding client cannot starve"
          `Quick test_fairq_round_robin;
        Alcotest.test_case "fair queue: bounded, sheds explicitly" `Quick
          test_fairq_sheds_at_capacity;
        Alcotest.test_case "fair queue: close_now returns the backlog"
          `Quick test_fairq_close_now_drops;
        Alcotest.test_case "service: work distributes across workers"
          `Quick test_service_distribution;
        Alcotest.test_case "service: raising tasks never kill a worker"
          `Quick test_service_survives_raising_tasks;
        Alcotest.test_case "concurrent == sequential, byte for byte" `Quick
          test_concurrent_equals_sequential;
        Alcotest.test_case "merge_profiles is lossless without payloads"
          `Quick test_merge_profiles_lossless;
        Alcotest.test_case "saturation sheds instead of queueing" `Quick
          test_daemon_sheds_when_saturated;
        Alcotest.test_case "quarantine trips after N failures" `Quick
          test_quarantine_after_n_failures;
        Alcotest.test_case "poison job quarantined, never re-run" `Quick
          test_poison_job_quarantined_not_retried_forever;
        Alcotest.test_case "kill + restart resumes byte-identical" `Quick
          test_restart_resumes_byte_identical;
        Alcotest.test_case "resume on one worker below the backlog finishes"
          `Quick test_narrow_resume_finishes;
        Alcotest.test_case "journal tolerates a torn tail" `Quick
          test_journal_torn_tail_tolerated;
        Alcotest.test_case "journal recovers completed profile payloads"
          `Quick test_journal_profile_records_recovered;
        Alcotest.test_case "journal refuses a foreign configuration" `Quick
          test_journal_meta_mismatch_refused;
        Alcotest.test_case "journal refuses a garbage file" `Quick
          test_journal_garbage_file_refused;
        Alcotest.test_case "quarantine survives a restart" `Quick
          test_quarantine_survives_restart;
        Alcotest.test_case "socket: instant completions are not dropped"
          `Quick test_socket_instant_results_not_dropped;
        Alcotest.test_case "socket: pipelined batches + PROFILE frames"
          `Quick test_socket_pipelined_batches_and_profiles;
        Alcotest.test_case "socket: a fleet beyond capacity == sequential"
          `Quick test_socket_fleet_beyond_capacity;
        Alcotest.test_case "socket: protocol corners and STATS counters"
          `Quick test_socket_protocol_basics;
      ] );
  ]
