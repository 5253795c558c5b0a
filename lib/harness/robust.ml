(* Crash tolerance for experiment cells.

   Every (benchmark, configuration) measurement runs inside [cell],
   which turns exceptions into structured [failure] values instead of
   tearing down the whole table and retries transient classes with
   bounded backoff.  Nothing here remembers a finished cell: a killed
   run resumes through the run cache ({!Runcache}), which serves the
   cell bodies' measurements from disk. *)

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
(* The cell runner                                                     *)
(* ------------------------------------------------------------------ *)

let () = Printexc.record_backtrace true

let cell ?(retries = 2) ~key f =
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
    | Ok v -> Ok v
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
