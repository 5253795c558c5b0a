(* Two-tier content-addressed run cache.  See runcache.mli for the
   contract: each entry file holds a magic line, the full run key and
   the MD5 of its Marshal payload; a torn or foreign entry is
   recomputed, a store written by a different version refused loudly. *)

type stats = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  corrupt : int;
}

let version = Printf.sprintf "isf-runcache 1 ocaml-%s" Sys.ocaml_version
let magic = "ISF-RUNCACHE-ENTRY 1\n"
let version_file = "CACHE_VERSION"

(* configuration + stats, shared across domains *)
let lock = Mutex.create ()
let dir_ref = ref None
let zero = { mem_hits = 0; disk_hits = 0; misses = 0; stores = 0; corrupt = 0 }
let stats_ref = ref zero
let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
let dir () = locked (fun () -> !dir_ref)
let stats () = locked (fun () -> !stats_ref)

let bump which =
  locked (fun () ->
      let s = !stats_ref in
      stats_ref :=
        (match which with
        | `Mem -> { s with mem_hits = s.mem_hits + 1 }
        | `Disk -> { s with disk_hits = s.disk_hits + 1 }
        | `Miss -> { s with misses = s.misses + 1 }
        | `Store -> { s with stores = s.stores + 1 }
        | `Corrupt -> { s with corrupt = s.corrupt + 1 }))

let corruptions () = (stats ()).corrupt

(* registered in-memory caches, cleared together by [reset_memory] *)
let resets : (unit -> unit) list ref = ref []
let on_reset f = locked (fun () -> resets := f :: !resets)

let reset_memory () =
  let fs = locked (fun () -> !resets) in
  List.iter (fun f -> f ()) fs;
  locked (fun () -> stats_ref := zero)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in_noerr ic;
  s

(* All disk writes go through temp-file + atomic rename so a reader (or
   a concurrent writer racing on the same key) never observes a partial
   file — last rename wins, and both writers wrote equivalent bytes. *)
let write_atomic ~dir path s =
  match Filename.temp_file ~temp_dir:dir "isf-" ".tmp" with
  | exception Sys_error _ -> false
  | tmp -> (
      try
        let oc = open_out_bin tmp in
        output_string oc s;
        close_out oc;
        Sys.rename tmp path;
        true
      with Sys_error _ ->
        (try Sys.remove tmp with Sys_error _ -> ());
        false)

let trace_stats_registered = ref false

(* A writer that dies between [Filename.temp_file] and [Sys.rename]
   leaves an orphan isf-*.tmp behind forever.  Sweep them on open, but
   only once they are old enough that no live process can still be
   mid-write — another daemon sharing the directory may have created a
   tmp file moments ago and is about to rename it. *)
let stale_tmp_age = 900.0 (* seconds *)

let has_suffix suf s =
  String.length s >= String.length suf
  && String.sub s (String.length s - String.length suf) (String.length suf)
     = suf

let has_prefix pre s =
  String.length s >= String.length pre
  && String.equal (String.sub s 0 (String.length pre)) pre

let sweep_stale_tmps d =
  match Sys.readdir d with
  | exception Sys_error _ -> 0
  | names ->
      let now = Unix.gettimeofday () in
      Array.fold_left
        (fun n name ->
          if has_prefix "isf-" name && has_suffix ".tmp" name then begin
            let path = Filename.concat d name in
            match Unix.stat path with
            | exception Unix.Unix_error _ -> n
            | st ->
                if now -. st.Unix.st_mtime > stale_tmp_age then (
                  try
                    Sys.remove path;
                    n + 1
                  with Sys_error _ -> n)
                else n
          end
          else n)
        0 names

let set_dir d =
  (match d with
  | None -> ()
  | Some d ->
      (try mkdir_p d
       with Unix.Unix_error (e, _, _) ->
         failwith
           (Printf.sprintf "cannot create run cache directory %s: %s" d
              (Unix.error_message e)));
      let swept = sweep_stale_tmps d in
      if swept > 0 && !Pool.trace then
        Printf.eprintf "[runcache] swept %d stale tmp file(s) in %s\n%!" swept d;
      let vpath = Filename.concat d version_file in
      if Sys.file_exists vpath then begin
        let found = String.trim (read_file vpath) in
        if not (String.equal found version) then
          failwith
            (Printf.sprintf
               "run cache %s was written by an incompatible version (%S, this \
                build is %S); delete it or point --cache elsewhere"
               d found version)
      end
      else if not (write_atomic ~dir:d vpath (version ^ "\n")) then
        failwith (Printf.sprintf "run cache %s is not writable" d));
  locked (fun () ->
      dir_ref := d;
      if d <> None && not !trace_stats_registered then begin
        trace_stats_registered := true;
        at_exit (fun () ->
            if !Pool.trace then
              let s = stats () in
              Printf.eprintf
                "[runcache] mem-hits=%d disk-hits=%d misses=%d stores=%d \
                 corrupt=%d\n\
                 %!"
                s.mem_hits s.disk_hits s.misses s.stores s.corrupt)
      end)

let entry_path ~dir ~key = Filename.concat dir (Digest.hex key ^ ".cell")

(* Read one entry file.  Anything short of a fully verified entry —
   absent, foreign magic, torn Marshal, payload/digest mismatch — is a
   miss and will be recomputed and overwritten; everything but plain
   absence additionally counts as a corruption event, which long-running
   services ({!Serve.Daemon}) watch to circuit-break a rotting disk
   tier.  The single loud case: a verified entry embedding a different
   key than the one that hashed to this filename is an MD5 collision,
   which must never be served. *)
let read_raw ~key path =
  match open_in_bin path with
  | exception Sys_error _ -> `Miss
  | ic ->
      let r =
        try
          let m = really_input_string ic (String.length magic) in
          if not (String.equal m magic) then `Corrupt
          else
            let k, dg, payload =
              (Marshal.from_channel ic : string * string * string)
            in
            if not (String.equal (Stdlib.Digest.string payload) dg) then
              `Corrupt
            else if String.equal k key then `Hit payload
            else `Collision k
        with End_of_file | Failure _ -> `Corrupt
      in
      close_in_noerr ic;
      (match r with
      | `Collision k ->
          bump `Corrupt;
          failwith
            (Printf.sprintf
               "run cache entry %s: digest collision (entry holds a different \
                run key %s)"
               path
               (String.escaped (String.sub k 0 (min 80 (String.length k)))))
      | `Corrupt ->
          bump `Corrupt;
          `Miss
      | (`Miss | `Hit _) as r -> r)

let write_raw ~dir ~key payload =
  let b = Buffer.create (String.length payload + 256) in
  Buffer.add_string b magic;
  Buffer.add_string b
    (Marshal.to_string (key, Stdlib.Digest.string payload, payload) []);
  write_atomic ~dir (entry_path ~dir ~key) (Buffer.contents b)

module Make (V : sig
  type t
end) =
struct
  let memo : (string, V.t) Sync.Memo.t = Sync.Memo.create ~size:64 ()
  let () = on_reset (fun () -> Sync.Memo.clear memo)

  let disk_load ~key =
    match dir () with
    | None -> None
    | Some d -> (
        match read_raw ~key (entry_path ~dir:d ~key) with
        | `Miss -> None
        | `Hit payload -> (
            try Some (Marshal.from_string payload 0 : V.t)
            with Failure _ -> None))

  let disk_save ~key v =
    match dir () with
    | None -> false
    | Some d -> write_raw ~dir:d ~key (Marshal.to_string v [])

  let find ~key f =
    match Sync.Memo.find_opt memo key with
    | Some v ->
        bump `Mem;
        v
    | None ->
        Sync.Memo.get memo key (fun () ->
            match disk_load ~key with
            | Some v ->
                bump `Disk;
                v
            | None ->
                let v = f () in
                bump `Miss;
                if disk_save ~key v then bump `Store;
                v)

  let cached ~key =
    match Sync.Memo.find_opt memo key with
    | Some _ -> true
    | None -> disk_load ~key <> None
end
