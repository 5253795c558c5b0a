(* The one on-disk record log behind the job journal and the cell
   checkpoint; log.mli has the frame and the contract. *)

type t = { mu : Mutex.t; oc : out_channel; path : string }

let header = 24

let frame body =
  let h = Bytes.create header in
  Bytes.set_int64_le h 0 (Int64.of_int (String.length body));
  Bytes.blit_string (Stdlib.Digest.string body) 0 h 8 16;
  Bytes.unsafe_to_string h ^ body

(* the verified records of [s] and the offset where they end *)
let scan s =
  let rec go pos acc =
    let room = String.length s - pos - header in
    let len = if room < 0 then -1L else String.get_int64_le s pos in
    if len < 0L || len > Int64.of_int room then (List.rev acc, pos)
    else
      let body = String.sub s (pos + header) (Int64.to_int len) in
      if String.equal (Stdlib.Digest.string body) (String.sub s (pos + 8) 16)
      then go (pos + header + String.length body) (body :: acc)
      else (List.rev acc, pos)
  in
  go 0 []

let read_all fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 65536 with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
  in
  go ()

let append t body =
  Mutex.protect t.mu (fun () ->
      output_string t.oc (frame body);
      flush t.oc)

let open_ ~what ~meta path =
  let name = what ^ " " ^ path in
  let fd =
    try Unix.openfile path Unix.[ O_RDWR; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644
    with Unix.Unix_error (e, _, _) ->
      failwith
        (Printf.sprintf "cannot open %s: %s" name (Unix.error_message e))
  in
  let give_up m =
    Unix.close fd;
    failwith m
  in
  let s =
    try read_all fd
    with Unix.Unix_error (e, _, _) ->
      give_up
        (Printf.sprintf "cannot read %s: %s" name (Unix.error_message e))
  in
  let records, clean = scan s in
  (match records with
  | prev :: _ when not (String.equal prev meta) ->
      give_up
        (Printf.sprintf
           "%s was written by a different configuration (%S, this run is \
            %S); delete it or use another file"
           name prev meta)
  (* a file cut inside its first record is still fresh when its bytes
     are a prefix of what this meta writes; anything else is not ours *)
  | [] when not (String.starts_with ~prefix:s (frame meta)) ->
      give_up
        (Printf.sprintf
           "%s is non-empty but holds no %s records; refusing to overwrite it"
           name what)
  | _ -> ());
  (* appends must continue the verified records, not follow the tail *)
  if String.length s > clean then Unix.ftruncate fd clean;
  let t = { mu = Mutex.create (); oc = Unix.out_channel_of_descr fd; path } in
  match records with
  | [] ->
      append t meta;
      (t, [])
  | _ :: rest -> (t, rest)

let close t =
  Mutex.protect t.mu (fun () -> try close_out t.oc with Sys_error _ -> ())

let path t = t.path
