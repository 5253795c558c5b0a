(* Append-only job journal: the daemon's crash-recovery log, one
   marshaled record per {!Harness.Log} record.  The log hands back only
   records whose MD5 verified, so a kill or a corrupt byte costs at most
   the records from the first bad one on; a journal written under a
   different meta fingerprint (job file, chaos, watchdog, retry and
   quarantine budgets) is refused rather than resumed into inconsistent
   results. *)

type record =
  | Submitted of { id : int; client : string; line : string }
  | Completed of { id : int; result : string }
  | Quarantined of { digest : string; report : string }
  | Profile of { id : int; payload : string }

type recovered = {
  pending : (int * string * string) list; (* id, client, canonical job line *)
  completed : (int * string) list; (* id, canonical result line *)
  quarantined : (string * string) list; (* job digest, report *)
  profiles : (int * string) list; (* id, canonical profile rendering *)
  next_id : int;
}

type t = Harness.Log.t

let recover records =
  let submitted = Hashtbl.create 64 in
  let completed = Hashtbl.create 64 in
  let profiles = Hashtbl.create 64 in
  let quarantined = ref [] in
  let next_id = ref 1 in
  List.iter
    (fun r ->
      match r with
      | Submitted { id; client; line } ->
          Hashtbl.replace submitted id (client, line);
          if id >= !next_id then next_id := id + 1
      | Completed { id; result } ->
          Hashtbl.replace completed id result;
          if id >= !next_id then next_id := id + 1
      | Profile { id; payload } -> Hashtbl.replace profiles id payload
      | Quarantined { digest; report } ->
          if not (List.mem_assoc digest !quarantined) then
            quarantined := (digest, report) :: !quarantined)
    records;
  let pending =
    Hashtbl.fold
      (fun id (client, line) acc ->
        if Hashtbl.mem completed id then acc else (id, client, line) :: acc)
      submitted []
    |> List.sort compare
  in
  let completed =
    Hashtbl.fold (fun id result acc -> (id, result) :: acc) completed []
    |> List.sort compare
  in
  (* only payloads whose Completed record made it to disk: a Profile
     followed by a torn Completed means the job re-runs and appends a
     fresh pair (execution is deterministic, so the bytes agree) *)
  let profiles =
    List.filter_map
      (fun (id, _) ->
        match Hashtbl.find_opt profiles id with
        | Some p -> Some (id, p)
        | None -> None)
      completed
  in
  {
    pending;
    completed;
    quarantined = List.rev !quarantined;
    profiles;
    next_id = !next_id;
  }

let open_ ?(meta = "") path =
  let log, bodies = Harness.Log.open_ ~what:"job journal" ~meta path in
  (log, recover (List.map (fun b -> (Marshal.from_string b 0 : record)) bodies))

let append t r = Harness.Log.append t (Marshal.to_string r [])
let close = Harness.Log.close
let path = Harness.Log.path
