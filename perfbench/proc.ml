(* Child processes of the benchmark: the isf verbs and the daemon.
   CPU time and peak RSS are read from /proc (Linux). *)

let isf = ref "_build/default/bin/isf.exe"

(* The children must not pick up a cache directory or worker count
   from the caller's environment: the workloads set both explicitly. *)
let env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"ISF_" kv))
       (Array.to_list (Unix.environment ())))

(* Children still running; stopped and reaped at exit whatever path
   the benchmark leaves by. *)
let live : int list ref = ref []

let reaped pid = live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* stdout to [out], stderr to [out].err *)
let spawn ~out args =
  let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err = Unix.openfile (out ^ ".err") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Unix.close err)
      (fun () ->
        Unix.create_process_env !isf
          (Array.of_list (!isf :: args))
          (env ()) Unix.stdin fd err)
  in
  live := pid :: !live;
  pid

let read_file path = In_channel.with_open_bin path In_channel.input_all

let clk_tck = 100.0

(** utime + stime of a live process, in seconds. *)
let cpu_of pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

(** Peak resident set (VmHWM) of a live process, in MB; 0 once it is gone. *)
let hwm_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.0
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              let v = String.trim v in
              float_of_string (String.sub v 0 (String.index v ' ')) /. 1024.0
          | _ -> acc)
        0.0 (String.split_on_char '\n' s)

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

type exit_info = { code : int; wall : float; cpu : float; peak_mb : float }

(* The pause between two polls of a child started at [t0]: 2% of its
   age, between 0.05 ms and 10 ms, so polling adds at most ~2% to a
   short command's measured time and stays cheap on a long one. *)
let poll_pause t0 =
  Float.min 0.01 (Float.max 0.00005 (0.02 *. (Unix.gettimeofday () -. t0)))

(** Run [isf args] to completion, stdout to [out], sampling its peak
    RSS while it runs; CPU is exact (the reaped child's rusage). *)
let run ~out args =
  let c0 = children_cpu () in
  let t0 = Unix.gettimeofday () in
  let pid = spawn ~out args in
  let rec wait peak =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        let peak = Float.max peak (hwm_mb pid) in
        Unix.sleepf (poll_pause t0);
        wait peak
    | _, st ->
        reaped pid;
        (st, peak)
  in
  let st, peak = wait 0.0 in
  let wall = Unix.gettimeofday () -. t0 in
  let code =
    match st with Unix.WEXITED c -> c | WSIGNALED s | WSTOPPED s -> 128 + abs s
  in
  { code; wall; cpu = children_cpu () -. c0; peak_mb = peak }

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

(* One line-protocol exchange on a fresh connection; None if the
   daemon is not answering yet. *)
let ask socket line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | exception Unix.Unix_error _ -> None
      | () ->
          let oc = Unix.out_channel_of_descr fd in
          let ic = Unix.in_channel_of_descr fd in
          output_string oc (line ^ "\n");
          flush oc;
          let reply = In_channel.input_line ic in
          (* QUIT only after the reply: the server drops a connection's
             unsent replies when it reads QUIT *)
          (try
             output_string oc "QUIT\n";
             flush oc
           with Sys_error _ -> ());
          reply)

(** Start [isf serve --socket] with 2 workers and a journal, and wait
    until it answers PING. *)
let start_daemon ~dir ~journal =
  let socket = Filename.concat dir "d.sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let pid =
    spawn ~out:(Filename.concat dir "daemon.log")
      [ "serve"; "--socket"; socket; "-j"; "2"; "--journal"; journal ]
  in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. 60.0 in
  let rec ready () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p <> 0 ->
        reaped pid;
        failwith "isf serve exited during start-up"
    | _ -> (
        match ask socket "PING" with
        | Some "OK pong" -> ()
        | _ when Unix.gettimeofday () > deadline ->
            failwith "isf serve did not answer PING within 60 s"
        | _ ->
            Unix.sleepf (poll_pause t0);
            ready ())
  in
  ready ();
  { pid; socket }

(** The daemon's STATS reply as (key, value) pairs. *)
let stats d =
  match ask d.socket "STATS" with
  | Some line when String.starts_with ~prefix:"OK stats " line ->
      List.filter_map
        (fun kv ->
          match String.split_on_char '=' kv with
          | [ k; v ] -> Option.map (fun v -> (k, v)) (float_of_string_opt v)
          | _ -> None)
        (String.split_on_char ' ' line)
  | _ -> failwith "isf serve: bad STATS reply"

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  reaped d.pid

(* ------------------------------------------------------------------ *)
(* What a workload reports                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  attempted : int;
  failed : int;
}

let fresh_dir path =
  let rec rm p =
    match Unix.lstat p with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = S_DIR; _ } ->
        Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Sys.remove p
  in
  rm path;
  Unix.mkdir path 0o755;
  path

(* A set-up takes milliseconds, while the host's speed drifts over
   seconds.  So a workload times its set-up at several points of the
   run (before the timed phase and after later stages) and reports the
   median of all, so that set-up time sees the same host as the timed
   phase does. *)

(** Time [n] set-ups, undoing all but the last with [undo]; returns the
    times and the last set-up's result. *)
let setups n ~undo attempt =
  let rec go k times =
    let t0 = Unix.gettimeofday () in
    let x = attempt () in
    let times = (Unix.gettimeofday () -. t0) :: times in
    if k = 1 then (times, x)
    else begin
      undo x;
      go (k - 1) times
    end
  in
  go n []

(** Time [n] set-ups, undoing every one. *)
let setup_times n ~undo attempt =
  let times, x = setups n ~undo attempt in
  undo x;
  times
