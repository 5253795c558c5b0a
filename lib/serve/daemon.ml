(* The serve-mode engine: a persistent pool of worker domains
   (Pool.Service) draining a bounded fair queue (Fairq) of jobs (Job),
   journaling every state transition (Journal) so a SIGKILL at any
   point loses nothing, quarantining poison jobs (Quarantine), and
   circuit-breaking a corrupting disk cache tier down to the memory
   tier.  Front-ends (the Unix-socket server, the job-file drain that
   both `isf serve --job-file` and `isf fleet` run, and the tests) all
   run on this module; none of the robustness lives in the front-ends. *)

module Robust = Harness.Robust
module Runcache = Harness.Runcache
module Pool = Harness.Pool

type config = {
  workers : int;
  capacity : int;
  retries : int;
  quarantine_after : int;
  breaker_after : int;
  measure : Harness.Measure.config;
}

let default =
  {
    workers = Pool.default_jobs ();
    capacity = 64;
    retries = 2;
    quarantine_after = 3;
    breaker_after = 3;
    measure = Harness.Measure.default;
  }

type stats = {
  accepted : int;
  completed : int;
  shed : int;
  quarantined : int;
  replayed : int;
  breaker_tripped : bool;
  per_worker : int array;
  uncaught : int;
  queue_depth : int;
}

type t = {
  config : config;
  q : (int * string * Job.t) Fairq.t;
  journal : Journal.t option;
  quarantine : Quarantine.t;
  on_result : (int -> string -> Job.t -> string -> string option -> unit) option;
  mutable service : Pool.Service.t option;
  (* id assignment + journal-submit ordering *)
  idm : Mutex.t;
  mutable next_id : int;
  (* results + completion tracking (accepted/completed share resm so
     [drain]'s wait condition is consistent) *)
  resm : Mutex.t;
  rescond : Condition.t;
  results : (int, string) Hashtbl.t;
  profiles : (int, string) Hashtbl.t; (* id -> Profiles.Merge.render *)
  accepted_ids : (int, unit) Hashtbl.t;
  mutable accepted : int;
  mutable completed : int;
  mutable failure : string option; (* the first failed journal append *)
  mutable quarantined_jobs : int;
  mutable replayed : int;
  (* cache circuit breaker *)
  mutable breaker_tripped : bool;
  mutable loud_cache_failures : int;
}

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

(* Corruption events come in two flavors: silent (Runcache counted a
   torn/foreign entry and recomputed — the job still succeeded) and
   loud (a collision or version Failure escaped into the job runner).
   Either kind accumulating past the threshold means the disk tier is
   doing more harm than good: drop to the memory tier and keep
   serving.  One-way: a tripped breaker stays tripped for the daemon's
   lifetime — the operator fixes the directory and restarts. *)
let check_breaker t =
  if (not t.breaker_tripped) && Runcache.dir () <> None then begin
    let events = Runcache.corruptions () + t.loud_cache_failures in
    if events >= t.config.breaker_after then begin
      Mutex.lock t.resm;
      let trip = not t.breaker_tripped in
      if trip then t.breaker_tripped <- true;
      Mutex.unlock t.resm;
      if trip then begin
        Runcache.set_dir None;
        Printf.eprintf
          "[serve] cache circuit breaker tripped after %d corruption \
           event(s): disk tier disabled, serving from memory\n\
           %!"
          events
      end
    end
  end

let note_loud_cache_failure t =
  Mutex.lock t.resm;
  t.loud_cache_failures <- t.loud_cache_failures + 1;
  Mutex.unlock t.resm;
  check_breaker t

(* ------------------------------------------------------------------ *)
(* Journal appends                                                     *)
(* ------------------------------------------------------------------ *)

(* A failed append (a full disk, a file-size limit) must not kill the
   worker that made it and leave its job without a result: the first
   failure is kept and broadcast, so [drain] returns and the front-end
   stops with an error.  The file keeps a verified prefix, which a
   restart resumes from. *)
let append t r =
  match t.journal with
  | None -> ()
  | Some j -> (
      try Journal.append j r
      with Sys_error m ->
        Mutex.lock t.resm;
        if t.failure = None then
          t.failure <-
            Some
              (Printf.sprintf "cannot append to job journal %s: %s"
                 (Journal.path j) m);
        Condition.broadcast t.rescond;
        Mutex.unlock t.resm)

let failure t =
  Mutex.lock t.resm;
  let f = t.failure in
  Mutex.unlock t.resm;
  f

(* ------------------------------------------------------------------ *)
(* The job runner                                                      *)
(* ------------------------------------------------------------------ *)

(* Returns the job's status plus, for a completed job, the canonical
   rendering of its profile — journaled and kept for the fleet merge. *)
let run_job t job =
  let dg = Job.digest job in
  match Quarantine.find t.quarantine ~digest:dg with
  | Some report -> (Job.Quarantined { message = report }, None)
  | None ->
      (* transient retries are bounded by config.retries; cache-tier
         failures get at most breaker_after extra attempts (by then the
         breaker has tripped and the memory tier serves); bug failures
         are bounded by the quarantine threshold *)
      let rec attempt ~transient_left ~cache_left =
        match Job.execute_full ~config:t.config.measure job with
        | s, merge -> (Job.Done s, Some (Profiles.Merge.render merge))
        | exception e ->
            let msg = Robust.message_of e in
            if String.starts_with ~prefix:"run cache" msg && cache_left > 0
            then begin
              note_loud_cache_failure t;
              attempt ~transient_left ~cache_left:(cache_left - 1)
            end
            else begin
              match Robust.classify e with
              | "transient" when transient_left > 0 ->
                  Unix.sleepf
                    (0.05
                    *. float_of_int
                         (1 lsl (t.config.retries - transient_left)));
                  attempt ~transient_left:(transient_left - 1) ~cache_left
              | "bug" -> (
                  let report =
                    Printf.sprintf
                      "quarantined after %d bug-classified failure(s): %s"
                      (Quarantine.threshold t.quarantine)
                      msg
                  in
                  match
                    Quarantine.record_failure t.quarantine ~digest:dg ~report
                  with
                  | `Retry _ -> attempt ~transient_left ~cache_left
                  | `Quarantined ->
                      append t (Journal.Quarantined { digest = dg; report });
                      Mutex.lock t.resm;
                      t.quarantined_jobs <- t.quarantined_jobs + 1;
                      Mutex.unlock t.resm;
                      (Job.Quarantined { message = report }, None))
              | classification ->
                  (Job.Failed { classification; message = msg }, None)
            end
      in
      attempt ~transient_left:t.config.retries
        ~cache_left:t.config.breaker_after

let record_result t id client job line payload =
  (* profile before completion: a kill between the two appends leaves
     the job incomplete, so the restart re-runs it and writes a fresh
     pair — a Completed record therefore always has its payload *)
  (match payload with
  | Some p -> append t (Journal.Profile { id; payload = p })
  | None -> ());
  append t (Journal.Completed { id; result = line });
  Mutex.lock t.resm;
  Hashtbl.replace t.results id line;
  (match payload with
  | Some p -> Hashtbl.replace t.profiles id p
  | None -> ());
  t.completed <- t.completed + 1;
  Condition.broadcast t.rescond;
  Mutex.unlock t.resm;
  (match t.on_result with Some f -> f id client job line payload | None -> ())

let process t (id, client, job) =
  let status, payload = run_job t job in
  check_breaker t;
  record_result t id client job (Job.result_line ~id job status) payload

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = default) ?journal:journal_path ?(meta = "") ?on_result ()
    =
  let journal, recovered =
    match journal_path with
    | None -> (None, None)
    | Some p ->
        let j, r =
          try Journal.open_ ~meta p
          with Sys_error m ->
            failwith (Printf.sprintf "cannot write job journal %s: %s" p m)
        in
        (Some j, Some r)
  in
  let t =
    {
      config;
      q = Fairq.create ~capacity:config.capacity ();
      journal;
      quarantine = Quarantine.create ~threshold:config.quarantine_after ();
      on_result;
      service = None;
      idm = Mutex.create ();
      next_id = 1;
      resm = Mutex.create ();
      rescond = Condition.create ();
      results = Hashtbl.create 256;
      profiles = Hashtbl.create 256;
      accepted_ids = Hashtbl.create 256;
      accepted = 0;
      completed = 0;
      failure = None;
      quarantined_jobs = 0;
      replayed = 0;
      breaker_tripped = false;
      loud_cache_failures = 0;
    }
  in
  (* recovery before the workers start: completed results replay
     verbatim, the quarantine list is restored, and every in-flight job
     of the previous life is queued again *)
  let pending =
    match recovered with
    | None -> []
    | Some r ->
        Quarantine.restore t.quarantine r.Journal.quarantined;
        List.iter
          (fun (id, line) ->
            Hashtbl.replace t.results id line;
            t.replayed <- t.replayed + 1)
          r.Journal.completed;
        List.iter
          (fun (id, p) -> Hashtbl.replace t.profiles id p)
          r.Journal.profiles;
        t.next_id <- r.Journal.next_id;
        r.Journal.pending
  in
  t.service <-
    Some
      (Pool.Service.start ~workers:config.workers ~next:(fun () ->
           match Fairq.pop_wait t.q with
           | None -> None
           | Some item -> Some (fun () -> process t item)));
  List.iter
    (fun (id, client, line) ->
      let job = Job.parse line in
      Mutex.lock t.resm;
      t.accepted <- t.accepted + 1;
      Hashtbl.replace t.accepted_ids id ();
      Mutex.unlock t.resm;
      match Fairq.submit_wait t.q ~client (id, client, job) with
      | `Accepted -> ()
      | `Closed -> assert false)
    pending;
  t

(* Non-blocking admission (the socket path): shed when full. *)
let submit t ~client job =
  Mutex.lock t.idm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.idm)
    (fun () ->
      let id = t.next_id in
      match Fairq.submit t.q ~client (id, client, job) with
      | `Accepted ->
          t.next_id <- id + 1;
          Mutex.lock t.resm;
          t.accepted <- t.accepted + 1;
          Hashtbl.replace t.accepted_ids id ();
          Mutex.unlock t.resm;
          append t (Journal.Submitted { id; client; line = Job.render job });
          `Accepted id
      | `Shed -> `Shed
      | `Closed -> `Closed)

(* Blocking admission with a caller-pinned id (the job-file path, where
   id = line number): waits for queue space instead of shedding, so a
   drain loses nothing.  The caller skips ids [is_known] reports, whose
   Submitted record journal recovery already holds. *)
let submit_pinned t ~id ~client job =
  Mutex.lock t.idm;
  if id >= t.next_id then t.next_id <- id + 1;
  Mutex.lock t.resm;
  t.accepted <- t.accepted + 1;
  Hashtbl.replace t.accepted_ids id ();
  Mutex.unlock t.resm;
  append t (Journal.Submitted { id; client; line = Job.render job });
  Mutex.unlock t.idm;
  match Fairq.submit_wait t.q ~client (id, client, job) with
  | `Accepted -> ()
  | `Closed -> failwith "Daemon.submit_pinned: daemon is stopping"

(* An id is known if it already has a result (journal replay) or was
   accepted this life (journal-pending resubmission in [start]) — the
   job-file drain skips known ids so recovery never double-runs. *)
let is_known t ~id =
  Mutex.lock t.resm;
  let r = Hashtbl.mem t.results id || Hashtbl.mem t.accepted_ids id in
  Mutex.unlock t.resm;
  r

(* Wait until every accepted job has a result, or a journal append
   failed. *)
let drain t =
  Mutex.lock t.resm;
  while t.completed < t.accepted && t.failure = None do
    Condition.wait t.rescond t.resm
  done;
  Mutex.unlock t.resm

let results t =
  Mutex.lock t.resm;
  let l = Hashtbl.fold (fun id line acc -> (id, line) :: acc) t.results [] in
  Mutex.unlock t.resm;
  List.sort compare l

let profiles t =
  Mutex.lock t.resm;
  let l = Hashtbl.fold (fun id p acc -> (id, p) :: acc) t.profiles [] in
  Mutex.unlock t.resm;
  List.sort compare l

let stats t =
  Mutex.lock t.resm;
  let accepted = t.accepted
  and completed = t.completed
  and quarantined = t.quarantined_jobs
  and replayed = t.replayed
  and breaker_tripped = t.breaker_tripped in
  Mutex.unlock t.resm;
  let per_worker, uncaught =
    match t.service with
    | Some s -> (Pool.Service.stats s, Pool.Service.uncaught s)
    | None -> ([||], 0)
  in
  {
    accepted;
    completed;
    shed = Fairq.shed_count t.q;
    quarantined;
    replayed;
    breaker_tripped;
    per_worker;
    uncaught;
    queue_depth = Fairq.length t.q;
  }

(* Graceful stop.  [drain = true] (the default) lets queued jobs run
   to completion; [drain = false] (signal shutdown) drops the backlog —
   workers finish only their current job, and the dropped jobs stay
   incomplete in the journal, so a restart resumes exactly them —
   unless an append failed, after which their Submitted records may
   never have reached the file. *)
let stop ?(drain = true) t =
  if drain then Fairq.close t.q
  else begin
    let dropped = List.length (Fairq.close_now t.q) in
    if dropped > 0 then
      Printf.eprintf "[serve] shutdown: %d queued job(s) %s\n%!" dropped
        (if failure t = None then "left journaled for resume"
         else "dropped; the journal may not hold them")
  end;
  (match t.service with
  | Some s ->
      Pool.Service.join s;
      t.service <- None
  | None -> ());
  match t.journal with Some j -> Journal.close j | None -> ()
