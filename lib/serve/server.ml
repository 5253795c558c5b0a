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
   written in request order; results interleave as jobs finish.

   The fleet client at the end of this file speaks the protocol as a
   closed loop, the one Fleet.run_daemon runs in-process: a bounded
   window of lines in flight, and results numbered by entry. *)

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
   signal just restarts the select).  A failed journal append stops it
   too: the daemon can no longer promise a restart its jobs, so it
   must not keep accepting them.  A worker whose append failed still
   delivers its result, which wakes the select. *)
let run t d ~stop =
  let drain_pipe () =
    let buf = Bytes.create 64 in
    ignore (try Unix.read t.pipe_r buf 0 64 with Unix.Unix_error _ -> 0)
  in
  while not (stop () || Daemon.failure d <> None) do
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

(* Fleet client: the closed loop of Fleet.run_daemon, over a socket
   (server.mli states the window and shed rules).  Each batch line
   carries its own client name, so fairness attribution needs no
   per-connection state.  A result can arrive before its batch ack (a
   warm-cache job finishes while the daemon is still parsing the rest
   of the batch): it frees its credit on arrival, and results and
   profiles wait under the daemon's id until the acks have mapped every
   id to its entry's position.  Acks arrive in submission order — one
   select loop serves requests serially — hence the ack FIFO.  Failure
   is loud, never a hang: an ERR reply, a rejected batch line and a
   receive timeout (a result lost to a daemon kill) all raise instead
   of waiting forever. *)
let client_run ?(timeout = 120.0) ?(batch = 32) ?(profiles = false)
    ~socket:path entries =
  (* a daemon dying mid-fleet must fail this call loudly (EPIPE below),
     not SIGPIPE-kill the client process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  let ic = Unix.in_channel_of_descr fd in
  let n = List.length entries in
  let window = ref (max 1 (min max_batch batch)) in
  let pending = ref (List.mapi (fun i e -> (i + 1, e)) entries) in
  let in_flight = ref 0 in (* sent, with no result or shed token back *)
  let unresolved = ref 0 in (* accepted ids without a result yet *)
  let sheds = ref 0 in
  let position = Hashtbl.create 64 in (* daemon id -> entry position *)
  let results = Hashtbl.create 64 in (* daemon id -> result line *)
  let profs = Hashtbl.create 64 in (* daemon id -> profile payload *)
  let ok_count = ref 0 in (* received results with OK status *)
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
  let submit_next () =
    let rec take k acc = function
      | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
      | rest -> (List.rev acc, rest)
    in
    let chunk, rest = take (!window - !in_flight) [] !pending in
    pending := rest;
    in_flight := !in_flight + List.length chunk;
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "SUBMIT* %d\n" (List.length chunk));
    List.iter
      (fun (_, (client, job)) ->
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
             timeout while_ (Hashtbl.length results) n)
  in
  let note_result line =
    match String.split_on_char ' ' line with
    | id :: _digest :: status :: _ ->
        let id = int_of_string id in
        Hashtbl.replace results id line;
        decr in_flight;
        if Hashtbl.mem position id then decr unresolved;
        if String.equal status "OK" then incr ok_count
    | _ -> failwith ("fleet client: bad result line " ^ String.escaped line)
  in
  let note_ack toks =
    let chunk =
      match Queue.take_opt pending_acks with
      | Some c -> c
      | None -> failwith "fleet client: unexpected batch ack"
    in
    if List.length chunk <> List.length toks then
      failwith "fleet client: batch ack token count mismatch";
    let shed =
      List.concat
        (List.map2
           (fun ((pos, (_, job)) as entry) tok ->
             match tok with
             | "shed" -> [ entry ]
             | "closed" -> failwith "fleet client: daemon is stopping"
             | "err" -> failwith ("fleet client: job rejected: " ^ Job.render job)
             | _ -> (
                 match int_of_string_opt tok with
                 | Some id ->
                     Hashtbl.replace position id pos;
                     if not (Hashtbl.mem results id) then incr unresolved;
                     []
                 | None -> failwith ("fleet client: bad batch ack token " ^ tok)))
           chunk toks)
    in
    if shed <> [] then begin
      let k = List.length shed in
      sheds := !sheds + k;
      in_flight := !in_flight - k;
      pending := List.merge (fun (a, _) (b, _) -> compare a b) shed !pending;
      window := min !window (max 1 !unresolved);
      if !in_flight = 0 then Unix.sleepf 0.02
    end
  in
  let handle line =
    match String.split_on_char ' ' line with
    | [ "RESULT*"; k ] ->
        for _ = 1 to int_of_string k do
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
        Hashtbl.replace profs id (Bytes.to_string b)
    | "OK" :: "batch" :: _k :: toks -> note_ack toks
    | "OK" :: "profiles" :: _ -> ()
    | "ERR" :: rest ->
        failwith ("fleet client: daemon error: " ^ String.concat " " rest)
    | _ -> ()
  in
  if profiles then send "PROFILES on\n";
  (* Done when every entry is resolved and every batch acked (so every
     id has its position), and with profiles on every OK result's
     PROFILE frame has arrived — the frame follows its result
     in-stream, so the count converges. *)
  let finished () =
    !pending = [] && !in_flight = 0 && Queue.is_empty pending_acks
    && ((not profiles) || Hashtbl.length profs >= !ok_count)
  in
  while not (finished ()) do
    if !pending <> [] && !in_flight < !window then submit_next ()
    else handle (read_line_exn ~while_:"awaiting replies" ())
  done;
  send "QUIT\n";
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let by_entry tbl =
    Hashtbl.fold
      (fun id v acc ->
        match Hashtbl.find_opt position id with
        | Some pos -> (pos, v) :: acc
        | None -> failwith (Printf.sprintf "fleet client: no entry for id %d" id))
      tbl []
    |> List.sort compare
  in
  ( List.map
      (fun (pos, line) -> (pos, Job.renumber ~id:pos line))
      (by_entry results),
    !sheds,
    by_entry profs )
