(* Crash tolerance for experiment cells.

   Every (benchmark, configuration) measurement runs inside [cell],
   which turns exceptions into structured [failure] values instead of
   tearing down the whole table, retries transient classes with bounded
   backoff, and — when a checkpoint file is armed — persists each
   completed cell so a killed run resumes where it stopped.

   The checkpoint is an append-only sequence of marshaled
   [(key, payload)] records.  Append-only is what makes it crash-safe: a
   kill can at worst truncate the final record, and the loader stops at
   the first undecodable tail instead of failing, so every fully written
   cell survives.  Only [Ok] payloads are persisted — a failed cell is
   re-attempted on resume, which is what you want after fixing whatever
   killed it. *)

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

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let classify = function
  | Vm.Interp.Runtime_error m ->
      if has_prefix "injected fault" m then "fault"
      else if has_prefix "out of fuel" m then "fuel"
      else if has_prefix "wall-clock watchdog" m then "timeout"
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

(* "\000" cannot start a cell key (keys are human-readable table/bench
   paths), so this name can never collide. *)
let meta_key = "\000meta"

let lock = Mutex.create ()
let store : (string, string) Hashtbl.t = Hashtbl.create 64
let chan : out_channel option ref = ref None

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Read every complete record; a truncated or corrupt tail (the record
   being written when the process died) ends the load silently. *)
let load path =
  let tbl = Hashtbl.create 64 in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    (try
       while true do
         let k, payload = (Marshal.from_channel ic : string * string) in
         Hashtbl.replace tbl k payload
       done
     with End_of_file | Failure _ -> ());
    close_in ic
  end;
  tbl

(* Cells resumed from an armed checkpoint file, as opposed to persisted
   by this process: lets the scheduler skip its prewarm on a resume,
   where re-measuring the already-finished cells would defeat it. *)
let resumed = ref 0
let checkpointed_cells () = locked (fun () -> !resumed)

(* an unusable checkpoint path as a [Failure] naming it once ([Sys_error]
   messages sometimes start with the path, sometimes not) *)
let refuse verb path m =
  let prefix = path ^ ": " in
  let m =
    if String.starts_with ~prefix m then
      String.sub m (String.length prefix) (String.length m - String.length prefix)
    else m
  in
  failwith (Printf.sprintf "cannot %s checkpoint %s: %s" verb path m)

let set_checkpoint ?(meta = "") path_opt =
  locked (fun () ->
      (match !chan with Some oc -> close_out oc | None -> ());
      chan := None;
      Hashtbl.reset store;
      resumed := 0;
      match path_opt with
      | None -> ()
      | Some path ->
          let tbl =
            try load path with Sys_error m -> refuse "read" path m
          in
          (match Hashtbl.find_opt tbl meta_key with
          | Some payload ->
              let prev = (Marshal.from_string payload 0 : string) in
              if prev <> meta then
                failwith
                  (Printf.sprintf
                     "checkpoint %s was written by a different run \
                      configuration (%S, this run is %S); delete it or point \
                      --checkpoint elsewhere"
                     path prev meta)
          | None -> ());
          Hashtbl.iter
            (fun k v ->
              if k <> meta_key then begin
                Hashtbl.replace store k v;
                incr resumed
              end)
            tbl;
          let oc =
            try open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
            with Sys_error m -> refuse "open" path m
          in
          chan := Some oc;
          if not (Hashtbl.mem tbl meta_key) then begin
            Marshal.to_channel oc (meta_key, Marshal.to_string meta []) [];
            flush oc
          end)

let lookup key = locked (fun () -> Hashtbl.find_opt store key)

let persist key payload =
  locked (fun () ->
      Hashtbl.replace store key payload;
      match !chan with
      | None -> ()
      | Some oc ->
          Marshal.to_channel oc (key, payload) [];
          flush oc)

(* ------------------------------------------------------------------ *)
(* The cell runner                                                     *)
(* ------------------------------------------------------------------ *)

let () = Printexc.record_backtrace true

let cell ?(retries = 2) ~key f =
  match lookup key with
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
            persist key (Marshal.to_string v []);
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
