(* Oracles for serve results.  The expected values come from running
   each job in-process through {!Serve.Job.execute_full} on the Ref
   engine — the repository's independent interpreter — so neither the
   daemon, its wire, journal and run cache, nor the Fast engine the
   daemon runs on is compared against itself.  Doing that for every job
   of a run would take longer than the run, so it is done once for
   every job the generator can draw ({!Gen.universe}) and recorded in
   oracle/serve-cold.md5, one line per job:
     <job digest> <md5 of its result line> <md5 of its PROFILE payload>
   (`pb.exe --write-oracle` rewrites the file). *)

type expected = {
  line : string;  (** md5 of the result line, its id field set to 0 *)
  payload : string;  (** md5 of the PROFILE payload *)
}

let md5 s = Digest.to_hex (Digest.string s)

(** The oracle for [job], computed on the Ref engine.  The summary and
    profile are engine-invariant; the job keeps its own engine field,
    so its digest is unchanged. *)
let expected (job : Serve.Job.t) =
  let summary, merged = Serve.Job.execute_full { job with engine = `Ref } in
  {
    line = md5 (Serve.Job.result_line ~id:0 job (Serve.Job.Done summary));
    payload = md5 (Profiles.Merge.render merged);
  }

let to_line job e = Printf.sprintf "%s %s %s" (Serve.Job.digest job) e.line e.payload

(** The recorded oracles, by job digest. *)
let load path =
  let t = Hashtbl.create 4096 in
  In_channel.with_open_bin path (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.iter (fun l ->
             match String.split_on_char ' ' l with
             | [ job; line; payload ] -> Hashtbl.replace t job { line; payload }
             | [ "" ] -> ()
             | _ -> failwith ("bad oracle line: " ^ l)));
  t

(* The first field of a result line is the job id. *)
let split_id line =
  match String.index_opt line ' ' with
  | Some i -> (String.sub line 0 i, String.sub line i (String.length line - i))
  | None -> (line, "")

(** Compare one served result line (and, when given, its PROFILE
    payload) with the oracle for the job that produced it. *)
let check ~id job e ~line ~payload =
  let got_id, rest = split_id line in
  if int_of_string_opt got_id <> Some id then
    Error (Printf.sprintf "result line for job %d carries id %s" id got_id)
  else if not (String.equal (md5 (Printf.sprintf "%06d" 0 ^ rest)) e.line) then
    Error (Printf.sprintf "result line mismatch for %s: %s" (Serve.Job.render job) line)
  else
    match payload with
    | None -> Ok ()
    | Some p ->
        if String.equal (md5 p) e.payload then Ok ()
        else Error (Printf.sprintf "profile payload mismatch for job %d" id)
