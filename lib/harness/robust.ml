(* Crash tolerance for experiment cells.

   Every (benchmark, configuration) measurement runs inside [cell],
   which turns exceptions into structured [failure] values instead of
   tearing down the whole table, retries transient classes with bounded
   backoff, and — when a checkpoint file is armed — persists each
   completed cell so a killed run resumes where it stopped.

   The checkpoint is a {!Log} of marshaled [(key, payload)] records, so
   a kill or a corrupt byte costs at most the cells from the first bad
   record on, and every cell before it survives.  Only [Ok] payloads
   are persisted — a failed cell is re-attempted on resume, which is
   what you want after fixing whatever killed it. *)

type failure = {
  key : string;
  classification : string;
  attempts : int;
  message : string;
  backtrace : string;
}

type 'a outcome = ('a, failure) result

exception Transient of string

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

(* The key of the cell currently executing on this domain, so layers
   below (Measure.execute's VM label, error messages) can say which
   benchmark/config a failure belongs to without threading it through
   every call. *)
let ctx_key : string Domain.DLS.key = Domain.DLS.new_key (fun () -> "")
let context () = Domain.DLS.get ctx_key

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let classify = function
  | Vm.Interp.Runtime_error m ->
      let has prefix = String.starts_with ~prefix m in
      if has "injected fault" then "fault"
      else if has "out of fuel" then "fuel"
      else if has "wall-clock watchdog" then "timeout"
      else "bug"
  | Transient _ | Sys_error _ | Out_of_memory -> "transient"
  | _ -> "bug"

let message_of = function
  | Vm.Interp.Runtime_error m -> m
  | Transient m -> "transient: " ^ m
  | Failure m -> m
  | e -> Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Checkpoint store                                                    *)
(* ------------------------------------------------------------------ *)

let lock = Mutex.create ()

(* Completed cells by (scope, cell key): a cell key names a benchmark
   and a measurement, the scope the run configuration it was measured
   under, so one process can run the same table under two
   configurations.  The checkpoint file keeps the cell key alone; its
   meta pins the configuration, and [set_checkpoint]'s [scope] says
   which one that is. *)
let store : (string * string, string) Hashtbl.t = Hashtbl.create 64
let log : Log.t option ref = ref None

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Cells resumed from an armed checkpoint file, as opposed to persisted
   by this process: lets the scheduler skip its prewarm on a resume,
   where re-measuring the already-finished cells would defeat it. *)
let resumed = ref 0
let checkpointed_cells () = locked (fun () -> !resumed)

let set_checkpoint ?(meta = "") ?(scope = "") path_opt =
  locked (fun () ->
      Option.iter Log.close !log;
      log := None;
      Hashtbl.reset store;
      resumed := 0;
      Option.iter
        (fun path ->
          let l, records = Log.open_ ~what:"checkpoint" ~meta path in
          List.iter
            (fun r ->
              let k, payload = (Marshal.from_string r 0 : string * string) in
              Hashtbl.replace store (scope, k) payload)
            records;
          resumed := Hashtbl.length store;
          log := Some l)
        path_opt)

let lookup scope key = locked (fun () -> Hashtbl.find_opt store (scope, key))

let persist scope key payload =
  locked (fun () ->
      Hashtbl.replace store (scope, key) payload;
      Option.iter
        (fun l -> Log.append l (Marshal.to_string (key, payload) []))
        !log)

(* ------------------------------------------------------------------ *)
(* The cell runner                                                     *)
(* ------------------------------------------------------------------ *)

let () = Printexc.record_backtrace true

let cell ?(retries = 2) ?(scope = "") ~key f =
  match lookup scope key with
  | Some payload -> Ok (Marshal.from_string payload 0)
  | None ->
      let rec attempt n =
        let saved = Domain.DLS.get ctx_key in
        Domain.DLS.set ctx_key key;
        let r =
          match f () with
          | v -> Ok v
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              Error (e, Printexc.raw_backtrace_to_string bt)
        in
        Domain.DLS.set ctx_key saved;
        match r with
        | Ok v ->
            (* payload must not contain closures: checkpointed cells carry
               reduced values (floats, keyed lists), never raw metrics *)
            persist scope key (Marshal.to_string v []);
            Ok v
        | Error (e, bt) ->
            let cls = classify e in
            if String.equal cls "transient" && n <= retries then begin
              Unix.sleepf (0.05 *. float_of_int (1 lsl (n - 1)));
              attempt (n + 1)
            end
            else
              Error
                {
                  key;
                  classification = cls;
                  attempts = n;
                  message = message_of e;
                  backtrace = bt;
                }
      in
      attempt 1

(* ------------------------------------------------------------------ *)
(* Outcome helpers                                                     *)
(* ------------------------------------------------------------------ *)

let oks l = List.filter_map (function Ok v -> Some v | Error _ -> None) l

let errors l =
  List.filter_map (function Ok _ -> None | Error f -> Some f) l

let get_or ~default = function Ok v -> v | Error _ -> default
let cell_str f = function Ok v -> f v | Error _ -> "ERR"

let report failures =
  let fs = List.sort (fun a b -> compare a.key b.key) failures in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "Error report: %d cell(s) failed\n" (List.length fs));
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "  ERR %s [%s after %d attempt%s]: %s\n" f.key
           f.classification f.attempts
           (if f.attempts = 1 then "" else "s")
           f.message);
      (* backtraces only for unexpected failures: an expected,
         classified failure (fault/fuel/timeout/dependency) already
         carries its full deterministic context in the message, while
         its backtrace depends on which awaiter of a memoized cell
         re-raised first — printing it would make the report
         byte-nondeterministic under -j and across configurations *)
      if f.backtrace <> "" && String.equal f.classification "bug" then
        List.iter
          (fun line ->
            if not (String.equal line "") then
              Buffer.add_string b ("      " ^ line ^ "\n"))
          (String.split_on_char '\n' f.backtrace))
    fs;
  Buffer.contents b
