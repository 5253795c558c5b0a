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
    explicit backpressure, never an unbounded queue; {!client_run}
    resends a shed line when its window has room, after shrinking the
    window to what the daemon holds of it.

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
    a quarter second) or a journal append has failed
    ({!Daemon.failure}), closing every connection and unlinking the
    socket.  The caller then stops the daemon ([~drain:false]) and
    reports the failure, if any. *)

val client_run :
  ?timeout:float ->
  ?batch:int ->
  ?profiles:bool ->
  socket:string ->
  (string * Job.t) list ->
  (int * string) list * int * (int * string) list
(** Fleet client: run every [(client, job)] over one connection as a
    closed loop.  At most [batch] lines (default 32, clamped to
    [1..max_batch]) are in flight — sent, with neither a result nor a
    [shed] token back — and whenever there is credit the next pending
    entries go out in entry order as one [SUBMIT*] frame.  A shed entry
    goes back to the head of the pending entries, and the window
    shrinks to this connection's accepted jobs still without a result
    (at least 1) and never grows back, so a lone client is shed at most
    one window's worth; the client pauses (20 ms) only when a shed
    leaves nothing in flight.  With [profiles] (default false), the
    daemon streams each completed job's canonical {!Profiles.Merge}
    rendering as a PROFILE frame.  Returns
    [(results, shed responses observed, profiles)], results and
    profiles keyed by the entry's 1-based position and sorted, each
    result line renumbered to it ({!Job.renumber}) — the numbering of
    {!Fleet.run_daemon} and {!Fleet.run_sequential}, so the results
    equal theirs byte for byte on any daemon.
    Raises [Failure] instead of hanging when the daemon answers ERR, a
    batch line is rejected, the connection drops, or nothing arrives
    within [timeout] seconds (default 120). *)
