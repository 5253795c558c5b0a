(** Unix-domain socket front-end for {!Daemon}, plus the fleet client.

    Line control plane (newline-terminated) with length-prefixed payload
    frames for profile data:
    {v
    client -> server                    server -> client
      SUBMIT* <k>                        OK batch <k> <tok ...>
        (then k lines, each                (one token per line, in order:
         "<client> <job line>")             accepted id, shed, closed, err)
      PROFILES on|off                    OK profiles on|off
      STATS                              OK stats accepted=... shed=...
      PING                               OK pong
      QUIT
                                         RESULT* <k>            (async push,
                                           then k result lines: completions
                                           queued together leave in one
                                           write)
                                         PROFILE <id> <len>     (then len
                                           payload bytes + newline: the
                                           job's canonical profile
                                           rendering, when PROFILES on)
    v}

    One select loop owns every fd — the listen socket, the
    connections, and a self-pipe the worker domains poke after queueing
    a result — so a flooding or half-dead connection can never wedge
    the daemon.  A [shed] token is the admission-control rejection:
    explicit backpressure the client retries on, never an unbounded
    queue.

    [SUBMIT*] is the only submission framing: many submissions per
    syscall and one ack line per batch instead of one round-trip per
    job.  Each batch line names its own client, so round-robin fairness
    needs no per-connection state.  On the way back, every run of
    consecutive completions — a lone one included — leaves as one
    [RESULT*] frame. *)

type t

val max_batch : int
(** Upper bound on [SUBMIT*] batch size (larger requests get [ERR]). *)

val create : socket:string -> t
(** Bind and listen on the Unix-domain socket path (an existing stale
    socket file is replaced). *)

val on_result : t -> int -> string -> Job.t -> string -> string option -> unit
(** Pass to {!Daemon.start} as its [on_result]: routes each completion
    (result line plus optional profile payload) to the connection that
    submitted the job.  A completion that beats the route registration
    (instant quarantine answer, warm run cache) is buffered and
    delivered when the submit handler registers the route; only a
    completion whose connection is gone is dropped — the journal still
    has it. *)

val run : t -> Daemon.t -> stop:(unit -> bool) -> unit
(** The select loop; returns once [stop ()] is true (polled between
    iterations, so a signal handler setting a flag ends the loop within
    a quarter second), closing every connection and unlinking the
    socket.  The caller then stops the daemon gracefully. *)

val client_run :
  ?timeout:float ->
  ?batch:int ->
  ?profiles:bool ->
  socket:string ->
  (string * Job.t) list ->
  (int * string) list * int * (int * string) list
(** Fleet client: pipeline every [(client, job)] over one connection as
    [SUBMIT*] frames of [batch] lines (default 32, clamped to
    [1..max_batch]) — all batches are written before any ack is
    awaited, so submission costs one write per batch rather than one
    round-trip per job.  Shed lines are resubmitted in fresh batches
    after a short backoff.  With [profiles] (default false), the daemon
    streams each completed job's canonical {!Profiles.Merge} rendering
    as a PROFILE frame.  Returns
    [(results sorted by id, shed responses observed,
      profiles sorted by id)].
    Raises [Failure] instead of hanging when the daemon answers ERR, a
    batch line is rejected, the connection drops, or nothing arrives
    within [timeout] seconds (default 120). *)
