(* Unix-domain socket front-end for the daemon.

   Line control plane (newline-terminated, text) plus length-prefixed
   payload frames for profile data:
     client -> server
       SUBMIT* <k>           the next k lines are each
                             "<client> <canonical job line>" — many
                             submissions per syscall, one reply line
       PROFILES on|off       opt into PROFILE payload frames
       STATS                 one-line daemon stats
       PING
       QUIT
     server -> client
       OK pong | OK stats <k=v ...>
       OK batch <k> <tok ...> one token per batch line, in order:
                             the accepted id, "shed", "closed" or "err"
       OK profiles on|off
       ERR <message>         malformed request
       RESULT* <k>           pushed asynchronously on job completion:
                             the next k lines are result lines —
                             completions queued together leave in one
                             write
       PROFILE <id> <len>    followed by exactly len payload bytes and
                             a newline: the completed job's canonical
                             profile rendering (only when PROFILES on)

   A single select loop owns every fd (listen socket, connections, and
   a self-pipe the worker domains poke after queueing a result), so
   reads and accepts never block the daemon and a flooding connection
   cannot wedge the loop.  Replies to a connection's requests are
   written in request order; results interleave as jobs finish. *)

(* what sits in a connection's outbox: control replies, result lines
   (corked into RESULT* runs at flush time), and profile payloads *)
type entry = Ctl of string | Res of string | Prof of int * string

let max_batch = 1024

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outbox : entry Queue.t; (* guarded by the server mutex *)
  mutable outtail : string; (* written only by the select-loop thread *)
  mutable want_profiles : bool;
  (* SUBMIT* parsing state: lines of the current batch still expected,
     and the reply tokens accumulated so far (reversed) *)
  mutable batch_left : int;
  mutable batch_toks : string list;
  mutable alive : bool;
}

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  mu : Mutex.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  routes : (int, conn) Hashtbl.t; (* job id -> submitting connection *)
  unrouted : (int, string * string option) Hashtbl.t;
      (* completions racing registration: result line + profile payload *)
  (* batch observability for STATS *)
  mutable submit_batches : int;
  mutable submit_batch_max : int;
  mutable result_batches : int;
  mutable result_batch_max : int;
}

let create ~socket:socket_path =
  (* a client vanishing mid-write must surface as EPIPE on that one
     connection (closed below), not SIGPIPE-kill the whole daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let pipe_r, pipe_w = Unix.pipe () in
  {
    socket_path;
    listen_fd;
    pipe_r;
    pipe_w;
    mu = Mutex.create ();
    conns = Hashtbl.create 16;
    routes = Hashtbl.create 64;
    unrouted = Hashtbl.create 16;
    submit_batches = 0;
    submit_batch_max = 0;
    result_batches = 0;
    result_batch_max = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let poke t = ignore (try Unix.write t.pipe_w (Bytes.of_string "x") 0 1 with Unix.Unix_error _ -> 0)

let push t conn line =
  locked t (fun () -> if conn.alive then Queue.push (Ctl line) conn.outbox)

(* deliver one completion into a connection's outbox (mutex held) *)
let push_result conn id line payload =
  if conn.alive then begin
    Queue.push (Res line) conn.outbox;
    match payload with
    | Some p when conn.want_profiles -> Queue.push (Prof (id, p)) conn.outbox
    | _ -> ()
  end

(* Called from worker domains on every completion: route the result
   line to whichever connection submitted the job, then wake select.
   A job can finish before the submitting thread has registered the
   id -> conn route (quarantine answer, warm run cache, poison job
   failing instantly): such completions are buffered in [unrouted] and
   flushed by the SUBMIT* handler when it registers the route, so the
   result line is delivered, never dropped. *)
let on_result t id _client _job line payload =
  let routed =
    locked t (fun () ->
        match Hashtbl.find_opt t.routes id with
        | Some c ->
            Hashtbl.remove t.routes id;
            push_result c id line payload;
            true
        | None ->
            Hashtbl.replace t.unrouted id (line, payload);
            false)
  in
  if routed then poke t

let stats_line t d =
  let s = Daemon.stats d in
  let c = Harness.Runcache.stats () in
  let sb, sbm, rb, rbm =
    locked t (fun () ->
        (t.submit_batches, t.submit_batch_max, t.result_batches,
         t.result_batch_max))
  in
  Printf.sprintf
    "OK stats accepted=%d completed=%d shed=%d quarantined=%d replayed=%d \
     breaker=%s uncaught=%d queue=%d submit_batches=%d submit_batch_max=%d \
     result_batches=%d result_batch_max=%d merges=%d merge_inputs=%d \
     cache_mem_hits=%d cache_disk_hits=%d cache_misses=%d cache_stores=%d \
     cache_corrupt=%d"
    s.Daemon.accepted s.Daemon.completed s.Daemon.shed s.Daemon.quarantined
    s.Daemon.replayed
    (if s.Daemon.breaker_tripped then "tripped" else "closed")
    s.Daemon.uncaught s.Daemon.queue_depth sb sbm rb rbm
    (Harness.Aggregate.merge_count ())
    (Harness.Aggregate.input_count ())
    c.Harness.Runcache.mem_hits c.Harness.Runcache.disk_hits
    c.Harness.Runcache.misses c.Harness.Runcache.stores
    c.Harness.Runcache.corrupt

(* Submit one job on behalf of [conn], registering the id -> conn route
   and taking any completion that beat the registration in one critical
   section: the result either lands in [unrouted] before this block
   (flushed here) or finds the route after it — no window drops it. *)
let submit_routed t d conn ~client job =
  match Daemon.submit d ~client job with
  | `Accepted id ->
      locked t (fun () ->
          match Hashtbl.find_opt t.unrouted id with
          | Some (line, payload) ->
              Hashtbl.remove t.unrouted id;
              push_result conn id line payload
          | None -> Hashtbl.replace t.routes id conn);
      `Accepted id
  | (`Shed | `Closed) as r -> r

(* One line of a SUBMIT* batch: "<client> <canonical job line>".  The
   reply is a single token accumulated into the batch ack — the
   accepted id, or "shed"/"closed"/"err". *)
let handle_batch_item t d conn raw =
  let token =
    let line = String.trim raw in
    match String.index_opt line ' ' with
    | None -> "err"
    | Some i -> (
        let client = String.sub line 0 i in
        let body = String.sub line (i + 1) (String.length line - i - 1) in
        match Job.parse body with
        | exception Failure _ -> "err"
        | job -> (
            match submit_routed t d conn ~client job with
            | `Accepted id -> string_of_int id
            | `Shed -> "shed"
            | `Closed -> "closed"))
  in
  conn.batch_toks <- token :: conn.batch_toks;
  conn.batch_left <- conn.batch_left - 1;
  if conn.batch_left = 0 then begin
    let toks = List.rev conn.batch_toks in
    conn.batch_toks <- [];
    let k = List.length toks in
    locked t (fun () ->
        t.submit_batches <- t.submit_batches + 1;
        if k > t.submit_batch_max then t.submit_batch_max <- k);
    push t conn
      (Printf.sprintf "OK batch %d %s" k (String.concat " " toks))
  end

let handle_line t d conn line =
  if conn.batch_left > 0 then handle_batch_item t d conn line
  else
    let line = String.trim line in
    let reply = push t conn in
    if String.equal line "" then ()
    else if String.equal line "PING" then reply "OK pong"
    else if String.equal line "QUIT" then conn.alive <- false
    else if String.equal line "STATS" then reply (stats_line t d)
    else
      match String.index_opt line ' ' with
      | Some i when String.equal (String.sub line 0 i) "PROFILES" -> (
          match
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          with
          | "on" ->
              conn.want_profiles <- true;
              reply "OK profiles on"
          | "off" ->
              conn.want_profiles <- false;
              reply "OK profiles off"
          | s -> reply ("ERR bad profiles mode " ^ String.escaped s))
      | Some i when String.equal (String.sub line 0 i) "SUBMIT*" -> (
          let arg =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          match int_of_string_opt arg with
          | Some k when k >= 1 && k <= max_batch ->
              conn.batch_left <- k;
              conn.batch_toks <- []
          | _ ->
              reply
                (Printf.sprintf "ERR bad batch size %s (1..%d)"
                   (String.escaped arg) max_batch))
      | _ -> reply ("ERR unknown request " ^ String.escaped line)

let close_conn t conn =
  locked t (fun () ->
      conn.alive <- false;
      Hashtbl.remove t.conns conn.fd);
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* Render a drained outbox to wire bytes, corking each run of
   consecutive result lines into one "RESULT* <k>" header plus the bare
   lines.  Returns the rendering plus the RESULT* runs emitted (for
   STATS). *)
let render_entries entries =
  let buf = Buffer.create 256 in
  let batches = ref 0 and batch_max = ref 0 in
  let flush_run run =
    match List.rev run with
    | [] -> ()
    | lines ->
        let k = List.length lines in
        incr batches;
        if k > !batch_max then batch_max := k;
        Buffer.add_string buf (Printf.sprintf "RESULT* %d\n" k);
        List.iter
          (fun l ->
            Buffer.add_string buf l;
            Buffer.add_char buf '\n')
          lines
  in
  let run =
    List.fold_left
      (fun run e ->
        match e with
        | Res line -> line :: run
        | Ctl line ->
            flush_run run;
            Buffer.add_string buf line;
            Buffer.add_char buf '\n';
            []
        | Prof (id, payload) ->
            flush_run run;
            Buffer.add_string buf
              (Printf.sprintf "PROFILE %d %d\n" id (String.length payload));
            Buffer.add_string buf payload;
            Buffer.add_char buf '\n';
            [])
      [] entries
  in
  flush_run run;
  (Buffer.contents buf, !batches, !batch_max)

(* Write as much of each connection's queued output as its socket
   accepts right now.  Connection fds are non-blocking: a partial
   write or EAGAIN (slow reader, full send buffer) leaves the
   remaining bytes in [outtail] — retried when select reports the fd
   writable — instead of dropping them mid-line or wedging the loop.
   Only the select-loop thread touches [outtail]. *)
let flush_outboxes t =
  let pending =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ c acc ->
            if Queue.is_empty c.outbox && String.equal c.outtail "" then acc
            else begin
              let entries = List.of_seq (Queue.to_seq c.outbox) in
              Queue.clear c.outbox;
              (c, entries) :: acc
            end)
          t.conns [])
  in
  List.iter
    (fun (c, entries) ->
      let body, batches, batch_max = render_entries entries in
      if batches > 0 then
        locked t (fun () ->
            t.result_batches <- t.result_batches + batches;
            if batch_max > t.result_batch_max then
              t.result_batch_max <- batch_max);
      let s = c.outtail ^ body in
      let b = Bytes.of_string s in
      let len = Bytes.length b in
      (* single_write, not write: Unix.write retries internally and can
         raise EAGAIN after writing part of the buffer, which would
         make the retry resend bytes the client already received *)
      let rec write_from off =
        if off >= len then c.outtail <- ""
        else
          match Unix.single_write c.fd b off (len - off) with
          | n -> write_from (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_from off
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              c.outtail <- Bytes.sub_string b off (len - off)
          | exception Unix.Unix_error _ -> close_conn t c
      in
      write_from 0)
    pending

let read_conn t d conn =
  let buf = Bytes.create 4096 in
  match Unix.read conn.fd buf 0 4096 with
  | 0 -> close_conn t conn
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> close_conn t conn
  | n ->
      Buffer.add_subbytes conn.inbuf buf 0 n;
      let data = Buffer.contents conn.inbuf in
      let rec consume start =
        match String.index_from_opt data start '\n' with
        | None ->
            Buffer.clear conn.inbuf;
            Buffer.add_string conn.inbuf
              (String.sub data start (String.length data - start))
        | Some nl ->
            handle_line t d conn (String.sub data start (nl - start));
            consume (nl + 1)
      in
      consume 0;
      if not conn.alive then close_conn t conn

let accept_conn t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Unix.set_nonblock fd;
      let conn =
        {
          fd;
          inbuf = Buffer.create 256;
          outbox = Queue.create ();
          outtail = "";
          want_profiles = false;
          batch_left = 0;
          batch_toks = [];
          alive = true;
        }
      in
      locked t (fun () -> Hashtbl.replace t.conns fd conn)

(* The main loop: select over listen + conns + self-pipe, poll [stop]
   between iterations (signal handlers set the flag; EINTR from the
   signal just restarts the select). *)
let run t d ~stop =
  let drain_pipe () =
    let buf = Bytes.create 64 in
    ignore (try Unix.read t.pipe_r buf 0 64 with Unix.Unix_error _ -> 0)
  in
  while not (stop ()) do
    flush_outboxes t;
    let fds, wfds =
      locked t (fun () ->
          ( t.listen_fd :: t.pipe_r
            :: Hashtbl.fold (fun fd _ acc -> fd :: acc) t.conns [],
            (* unflushed tails wait for writability, not the timeout *)
            Hashtbl.fold
              (fun fd c acc ->
                if String.equal c.outtail "" then acc else fd :: acc)
              t.conns [] ))
    in
    match Unix.select fds wfds [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = t.listen_fd then accept_conn t
            else if fd = t.pipe_r then drain_pipe ()
            else
              match locked t (fun () -> Hashtbl.find_opt t.conns fd) with
              | Some conn -> read_conn t d conn
              | None -> ())
          readable
  done;
  flush_outboxes t;
  locked t (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
  |> List.iter (fun c -> close_conn t c);
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

(* Fleet client: pipeline every entry over one connection as SUBMIT*
   frames of [batch] lines — all batches go out before any ack is
   awaited, so submission costs one write per batch instead of one
   round-trip per job.  Each batch line carries its own client name, so
   fairness attribution needs no per-connection state.  Shed tokens are
   collected and resubmitted in fresh batches after a short backoff —
   client-side backpressure.  With [profiles], the daemon streams each
   completed job's canonical profile rendering as a PROFILE frame.

   A result can arrive before its batch ack (a warm-cache job finishes
   while the daemon is still parsing the rest of the batch), so
   completion is tracked with expected/received counters, not a
   per-submission wait.  Batch acks do arrive in submission order —
   one select loop serves requests serially — hence the ack FIFO.

   Returns (results sorted by id, sheds observed, profiles sorted by
   id).  Failure is loud, never a hang: an ERR reply, a rejected batch
   line and a receive timeout (a result lost to a daemon kill) all
   raise instead of waiting forever. *)
let client_run ?(timeout = 120.0) ?(batch = 32) ?(profiles = false)
    ~socket:path entries =
  (* a daemon dying mid-fleet must fail this call loudly (EPIPE below),
     not SIGPIPE-kill the client process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let batch = max 1 (min max_batch batch) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  let ic = Unix.in_channel_of_descr fd in
  let results = ref [] in
  let profs = ref [] in
  let sheds = ref 0 in
  let expected = ref 0 in (* submissions accepted so far *)
  let received = ref 0 in (* result lines received so far *)
  let ok_count = ref 0 in (* received results with OK status *)
  let prof_count = ref 0 in
  let retries = ref [] in (* shed entries awaiting resubmission *)
  let pending_acks = Queue.create () in (* batches awaiting OK batch *)
  let send s =
    let b = Bytes.of_string s in
    let len = Bytes.length b in
    let rec go off =
      if off < len then
        match Unix.write fd b off (len - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error _ ->
            failwith "fleet client: connection lost while submitting"
    in
    go 0
  in
  let rec chunks = function
    | [] -> []
    | l ->
        let rec take n acc = function
          | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
          | rest -> (List.rev acc, rest)
        in
        let c, rest = take batch [] l in
        c :: chunks rest
  in
  let submit_chunk chunk =
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "SUBMIT* %d\n" (List.length chunk));
    List.iter
      (fun (client, job) ->
        Buffer.add_string buf client;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Job.render job);
        Buffer.add_char buf '\n')
      chunk;
    Queue.push chunk pending_acks;
    send (Buffer.contents buf)
  in
  let read_line_exn ~while_ () =
    match input_line ic with
    | line -> line
    | exception (End_of_file | Sys_error _) ->
        failwith
          (Printf.sprintf
             "fleet client: connection lost or no reply within %.0fs while \
              %s (%d of %d result(s) received)"
             timeout while_ !received !expected)
  in
  let note_result r =
    (match String.split_on_char ' ' r with
    | id :: _digest :: status :: _ ->
        results := (int_of_string id, r) :: !results;
        if String.equal status "OK" then incr ok_count
    | id :: _ -> results := (int_of_string id, r) :: !results
    | [] -> ());
    incr received
  in
  let handle line =
    match String.split_on_char ' ' line with
    | [ "RESULT*"; k ] ->
        let k = int_of_string k in
        for _ = 1 to k do
          note_result (read_line_exn ~while_:"reading a result batch" ())
        done
    | [ "PROFILE"; id; len ] ->
        let id = int_of_string id and len = int_of_string len in
        let b = Bytes.create len in
        (try
           really_input ic b 0 len;
           match input_char ic with
           | '\n' -> ()
           | _ -> raise Exit
         with End_of_file | Exit | Sys_error _ ->
           failwith "fleet client: malformed or truncated PROFILE frame");
        profs := (id, Bytes.to_string b) :: !profs;
        incr prof_count
    | "OK" :: "batch" :: _k :: toks ->
        let chunk =
          match Queue.take_opt pending_acks with
          | Some c -> c
          | None -> failwith "fleet client: unexpected batch ack"
        in
        if List.length chunk <> List.length toks then
          failwith "fleet client: batch ack token count mismatch";
        List.iter2
          (fun entry tok ->
            match tok with
            | "shed" ->
                incr sheds;
                retries := entry :: !retries
            | "closed" -> failwith "fleet client: daemon is stopping"
            | "err" ->
                failwith
                  ("fleet client: job rejected: "
                  ^ Job.render (snd entry))
            | _ -> (
                match int_of_string_opt tok with
                | Some _ -> incr expected
                | None ->
                    failwith ("fleet client: bad batch ack token " ^ tok)))
          chunk toks
    | "OK" :: "profiles" :: _ -> ()
    | "ERR" :: rest ->
        failwith ("fleet client: daemon error: " ^ String.concat " " rest)
    | _ -> ()
  in
  if profiles then send "PROFILES on\n";
  List.iter submit_chunk (chunks entries);
  (* Done when every batch is acked, nothing awaits resubmission, every
     accepted job has a result, and (with profiles on) every OK result's
     PROFILE frame has arrived — the frame follows its result in-stream,
     so the count converges. *)
  let finished () =
    Queue.is_empty pending_acks
    && !retries = []
    && !received >= !expected
    && ((not profiles) || !prof_count >= !ok_count)
  in
  while not (finished ()) do
    if Queue.is_empty pending_acks && !retries <> [] then begin
      Unix.sleepf 0.02;
      let rs = List.rev !retries in
      retries := [];
      List.iter submit_chunk (chunks rs)
    end
    else handle (read_line_exn ~while_:"awaiting replies" ())
  done;
  send "QUIT\n";
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (List.sort compare !results, !sheds, List.sort compare !profs)
