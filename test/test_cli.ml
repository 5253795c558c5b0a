(* CLI input errors: the built `isf` must turn bad user input into a
   clean, classified exit — a usage error naming the valid choices, or
   an `isf: FILE:LINE:COL: msg` line — never an uncaught exception
   (cmdliner's exit 125 with "internal error" on stderr).  The binary is
   a dependency of the test stanza, found next to this executable's
   directory the way test_runcache.ml finds cache_proc.exe. *)

let check_bool = Alcotest.(check bool)

let isf () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "isf.exe")

(* run [exe args]; the exit code, stdout's and stderr's text *)
let run_out exe args =
  let out = Filename.temp_file "isf_cli" ".out" in
  let err = Filename.temp_file "isf_cli" ".err" in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd_out
      fd_err
  in
  Unix.close fd_err;
  Unix.close fd_out;
  let _, status = Unix.waitpid [] pid in
  let read path =
    let text = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    text
  in
  let out_text = read out in
  ((match status with Unix.WEXITED c -> c | _ -> -1), out_text, read err)

let run_isf_out args = run_out (isf ()) args

(* run [isf args], stdout discarded; the exit code and stderr's text *)
let run_isf args =
  let code, _, err = run_isf_out args in
  (code, err)

(* a fresh path, no file there *)
let temp what =
  let path = Filename.temp_file "isf_cli" what in
  Sys.remove path;
  path

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_input_errors () =
  check_bool "isf executable present (dune build @all)" true
    (Sys.file_exists (isf ()));
  let bad_jasm = Filename.temp_file "isf_cli" ".jasm" in
  Out_channel.with_open_text bad_jasm (fun oc ->
      output_string oc "class Main {\n  static fun main(");
  (* well-formed, but divides by zero when run *)
  let faulting_jasm = Filename.temp_file "isf_cli" ".jasm" in
  Out_channel.with_open_text faulting_jasm (fun oc ->
      output_string oc
        "class Main {\n\
        \  static fun main(n: int): int {\n\
        \    var z: int = 0;\n\
        \    return 1 / z;\n\
        \  }\n\
         }\n");
  (* a regular file where a cache or journal directory should be *)
  let not_dir = Filename.temp_file "isf_cli" ".file" in
  let job_file = Filename.temp_file "isf_cli" ".jobs" in
  Out_channel.with_open_text job_file (fun oc ->
      Printf.fprintf oc "c %s\n"
        (Serve.Job.render (List.hd (Serve.Fleet.jobs ~seed:1 ~n:1 ()))));
  (* a non-empty file that is not a journal *)
  let text = Filename.temp_file "isf_cli" ".txt" in
  let text_body = "these are notes, not a journal\n" in
  Out_channel.with_open_text text (fun oc -> output_string oc text_body);
  (* [usage]: rejected while parsing the command line (cmdliner's 124),
     before any cell runs *)
  List.iter
    (fun (args, usage) ->
      let code, err = run_isf args in
      let what = String.concat " " args in
      check_bool (what ^ ": non-zero exit") true (code <> 0);
      check_bool (what ^ ": not an uncaught exception (125)") true (code <> 125);
      if usage then check_bool (what ^ ": usage error (124)") true (code = 124);
      check_bool
        (what ^ ": no internal error on stderr")
        false
        (contains err "internal error"))
    [
      ([ "run"; "nosuch" ], true);
      ([ "profile"; "nosuch" ], true);
      ([ "dump"; "nosuch" ], true);
      ([ "run"; "compress"; "--scale=-3" ], true);
      ([ "run"; "compress"; "--scale"; "0" ], true);
      ([ "table"; "1"; "--scale=-2" ], true);
      ([ "exec"; bad_jasm ], false);
      ([ "exec"; faulting_jasm ], false);
      ([ "table"; "1"; "--cache"; Filename.concat not_dir "sub" ], false);
    ];
  let _, err = run_isf [ "exec"; bad_jasm ] in
  check_bool "jasm error names the file" true
    (contains err ("isf: " ^ bad_jasm ^ ":"));
  let code, err = run_isf [ "exec"; faulting_jasm ] in
  Alcotest.(check int) "runtime error exits 2" 2 code;
  check_bool "runtime error names the file and the fault" true
    (contains err ("isf: " ^ faulting_jasm ^ ": runtime error: division by zero"));
  (* an unusable or foreign journal is one isf: line and exit 2, and
     the foreign file is left as it was *)
  List.iter
    (fun (args, path) ->
      let what = String.concat " " args in
      let code, err = run_isf args in
      Alcotest.(check int) (what ^ ": exit 2") 2 code;
      check_bool (what ^ ": one isf: line naming the file") true
        (String.starts_with ~prefix:"isf: " err
        && String.index_opt err '\n' = Some (String.length err - 1)
        && contains err path))
    [
      ( [ "serve"; "--job-file"; job_file; "--journal";
          Filename.concat not_dir "sub" ],
        Filename.concat not_dir "sub" );
      ([ "serve"; "--job-file"; job_file; "--journal"; text ], text);
    ];
  Alcotest.(check string)
    "a refused journal is left byte-for-byte" text_body
    (In_channel.with_open_bin text In_channel.input_all);
  List.iter Sys.remove
    [ bad_jasm; faulting_jasm; not_dir; job_file; text ]

(* A killed run resumes through --cache alone: the retired --checkpoint
   flag is a usage error that creates no file, and no help text names
   it. *)
let test_checkpoint_retired () =
  let path = temp ".ckpt" in
  let code, _ = run_isf [ "table"; "1"; "--checkpoint"; path ] in
  Alcotest.(check int) "--checkpoint: usage error (124)" 124 code;
  check_bool "no checkpoint file created" false (Sys.file_exists path);
  List.iter
    (fun cmd ->
      let code, help, _ = run_isf_out [ cmd; "--help=plain" ] in
      Alcotest.(check int) (cmd ^ " --help exits 0") 0 code;
      check_bool (cmd ^ " --help names --cache") true (contains help "--cache");
      check_bool (cmd ^ " --help names no checkpoint") false
        (contains help "checkpoint"))
    [ "table"; "all" ]

(* A journal that cannot grow (a file-size limit, which makes writes
   past it fail with EFBIG) ends a job-file drain with one isf: line and
   exit 2, not a hang; a rerun without the limit resumes it
   byte-identically.  `timeout -s KILL` bounds the limited run, so a
   wedged drain fails here instead of hanging the suite. *)
let test_journal_write_failure () =
  let jobs = temp ".jobs" and journal = temp ".journal" in
  let expected = temp ".expected" and results = temp ".results" in
  Serve.Fleet.write_job_file jobs
    (List.mapi
       (fun i j -> (Serve.Fleet.client_of ~clients:2 i, j))
       (Serve.Fleet.jobs ~seed:11 ~n:12 ()));
  let code, _ =
    run_isf [ "fleet"; "--file"; jobs; "--sequential"; "--out"; expected ]
  in
  Alcotest.(check int) "sequential reference exits 0" 0 code;
  let code, _, err =
    run_out "/bin/sh"
      [
        "-c";
        Printf.sprintf
          "trap '' XFSZ; ulimit -f 4; exec timeout -s KILL 60 %s serve \
           --job-file %s --journal %s -j 2 --results /dev/null"
          (Filename.quote (isf ())) (Filename.quote jobs)
          (Filename.quote journal);
      ]
  in
  Alcotest.(check int) "a failed journal append exits 2" 2 code;
  let isf_lines =
    List.filter
      (fun l -> String.starts_with ~prefix:"isf: " l)
      (String.split_on_char '\n' err)
  in
  Alcotest.(check int) "one isf: line" 1 (List.length isf_lines);
  check_bool "it names the journal" true (contains err journal);
  check_bool "no worker died of it" false (contains err "uncaught");
  let code, _ =
    run_isf
      [ "serve"; "--job-file"; jobs; "--journal"; journal; "-j"; "2";
        "--results"; results ]
  in
  Alcotest.(check int) "the rerun exits 0" 0 code;
  let read path = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string)
    "the rerun resumes byte-identically" (read expected) (read results);
  List.iter Sys.remove [ jobs; journal; expected; results ]

(* The socket daemon stops on a failed journal append too: one isf:
   line naming the journal and exit 2, and the fleet talking to it
   fails with its "connection lost" error instead of hanging.  Both
   processes run under `timeout -s KILL`, so a daemon that keeps
   serving fails here (exit 137) instead of hanging the suite. *)
let test_socket_journal_write_failure () =
  let sock = temp ".sock" and journal = temp ".journal" in
  let serve_err = temp ".err" in
  let isf = Filename.quote (isf ()) in
  let code, out, _ =
    run_out "/bin/sh"
      [
        "-c";
        Printf.sprintf
          "trap '' XFSZ\n\
           (ulimit -f 4; exec timeout -s KILL 60 %s serve --socket %s -j 2 \
           --journal %s) > /dev/null 2> %s &\n\
           i=0; while [ ! -S %s ] && [ $i -lt 100 ]; do sleep 0.1; \
           i=$((i+1)); done\n\
           timeout -s KILL 60 %s fleet -n 12 --seed 11 --socket %s \
           --out /dev/null > /dev/null 2>&1; fleet=$?\n\
           wait $!; echo \"$fleet $?\""
          isf (Filename.quote sock) (Filename.quote journal)
          (Filename.quote serve_err) (Filename.quote sock) isf
          (Filename.quote sock);
      ]
  in
  Alcotest.(check int) "the script exits 0" 0 code;
  Alcotest.(check string) "the fleet exits 2, the daemon exits 2" "2 2\n" out;
  let err = In_channel.with_open_bin serve_err In_channel.input_all in
  let isf_lines =
    List.filter
      (fun l -> String.starts_with ~prefix:"isf: " l)
      (String.split_on_char '\n' err)
  in
  Alcotest.(check int) "one isf: line" 1 (List.length isf_lines);
  check_bool "it names the journal" true (contains err journal);
  check_bool "dropped jobs are not claimed journaled" false
    (contains err "left journaled");
  check_bool "the socket is unlinked" false (Sys.file_exists sock);
  List.iter Sys.remove [ journal; serve_err ]

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "bad input is a clean error, not a crash" `Quick
          test_input_errors;
        Alcotest.test_case "--checkpoint is retired" `Quick
          test_checkpoint_retired;
        Alcotest.test_case "a failed journal append exits 2" `Quick
          test_journal_write_failure;
        Alcotest.test_case "a failed journal append stops the socket daemon"
          `Quick test_socket_journal_write_failure;
      ] );
  ]
