(* The checksummed record log behind the job journal: a log cut at
   every offset reopens to a prefix of its records and takes the rest
   by append, and a byte flipped or a file cut at any offset of a
   journal or a plain record log yields a prefix of the written records
   or a Failure. *)

module Log = Harness.Log

let check_bool = Alcotest.(check bool)
let tmp name = Filename.temp_file ("isf_log_" ^ name) ".log"
let read path = In_channel.with_open_bin path In_channel.input_all

let write path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let records = [ "t/a 1.5"; "t/b -2.0"; ""; "t/d\n0.25"; String.make 300 'x' ]

(* open [path], append every record it does not hold yet, close *)
let complete path =
  let log, got = Log.open_ ~what:"record log" ~meta:"cells" path in
  List.iteri (fun i r -> if i >= List.length got then Log.append log r) records;
  Log.close log;
  got

let test_torn_log_every_offset () =
  let path = tmp "torn" in
  Sys.remove path;
  ignore (complete path);
  let full = read path in
  for cut = 0 to String.length full do
    write path (String.sub full 0 cut);
    (* reopen: a prefix survives, the rest is appended after it *)
    let got = complete path in
    check_bool
      (Printf.sprintf "cut at %d: a prefix survives" cut)
      true
      (List.filteri (fun i _ -> i < List.length got) records = got);
    (* reopen again: every record comes back *)
    let log, again = Log.open_ ~what:"record log" ~meta:"cells" path in
    Log.close log;
    check_bool
      (Printf.sprintf "cut at %d: every record back" cut)
      true (again = records)
  done;
  Sys.remove path

let rec is_prefix p l =
  match (p, l) with
  | [], _ -> true
  | x :: p, y :: l -> String.equal x y && is_prefix p l
  | _ :: _, [] -> false

(* Open [bytes] as a log: a prefix of [written] or a [Failure], and the
   log a prefix was read from takes an append right after that prefix. *)
let probe ~what ~meta ~written ~label path bytes =
  write path bytes;
  match Log.open_ ~what ~meta path with
  | exception Failure _ -> `Refused
  | exception e ->
      Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
  | log, got ->
      check_bool (label ^ ": a prefix of the written records") true
        (is_prefix got written);
      Log.append log "appended";
      Log.close log;
      let log, again = Log.open_ ~what ~meta path in
      Log.close log;
      check_bool (label ^ ": the append follows the prefix") true
        (again = got @ [ "appended" ]);
      `Prefix

let campaign ~what ~meta path =
  let full = read path in
  let log, written = Log.open_ ~what ~meta path in
  Log.close log;
  check_bool (what ^ ": records written") true (List.length written >= 4);
  let st = Random.State.make [| 19 |] in
  for off = 0 to String.length full - 1 do
    let b = Bytes.of_string full in
    let mask = 1 + Random.State.int st 255 in
    Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor mask);
    ignore
      (probe ~what ~meta ~written
         ~label:(Printf.sprintf "%s: byte %d xor %d" what off mask)
         path (Bytes.to_string b))
  done;
  for cut = 0 to String.length full do
    match
      probe ~what ~meta ~written
        ~label:(Printf.sprintf "%s: cut at %d" what cut)
        path (String.sub full 0 cut)
    with
    | `Prefix -> ()
    | `Refused -> Alcotest.failf "%s: a cut at %d was refused" what cut
  done;
  Sys.remove path

let test_journal_campaign () =
  let path = tmp "journal" in
  Sys.remove path;
  let j, _ = Serve.Journal.open_ ~meta:"jobs" path in
  List.iter (Serve.Journal.append j)
    Serve.Journal.
      [
        Submitted { id = 1; client = "c"; line = "compress 1" };
        Submitted { id = 2; client = "d"; line = "db 1" };
        Profile { id = 1; payload = "p\n1" };
        Completed { id = 1; result = "1 ab OK 12" };
        Quarantined { digest = "ff"; report = "quarantined" };
      ];
  Serve.Journal.close j;
  campaign ~what:"job journal" ~meta:"jobs" path

let test_record_log_campaign () =
  let path = tmp "cells" in
  Sys.remove path;
  ignore (complete path);
  campaign ~what:"record log" ~meta:"cells" path

let suite =
  [
    ( "log",
      [
        Alcotest.test_case "torn log resumes every record" `Quick
          test_torn_log_every_offset;
        Alcotest.test_case "journal: flip or cut at every offset" `Quick
          test_journal_campaign;
        Alcotest.test_case "record log: flip or cut at every offset" `Quick
          test_record_log_campaign;
      ] );
  ]
