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

(* run [isf args], stdout discarded; the exit code and stderr's text *)
let run_isf args =
  let exe = isf () in
  let err = Filename.temp_file "isf_cli" ".err" in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd_out
      fd_err
  in
  Unix.close fd_err;
  Unix.close fd_out;
  let _, status = Unix.waitpid [] pid in
  let text = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  ((match status with Unix.WEXITED c -> c | _ -> -1), text)

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
  (* a regular file where a cache, checkpoint or journal directory
     should be *)
  let not_dir = Filename.temp_file "isf_cli" ".file" in
  let job_file = Filename.temp_file "isf_cli" ".jobs" in
  Out_channel.with_open_text job_file (fun oc ->
      Printf.fprintf oc "c %s\n"
        (Serve.Job.render (List.hd (Serve.Fleet.jobs ~seed:1 ~n:1 ()))));
  (* a non-empty file that is not a checkpoint *)
  let text = Filename.temp_file "isf_cli" ".txt" in
  let text_body = "these are notes, not a checkpoint\n" in
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
      ([ "table"; "1"; "--checkpoint"; Filename.concat not_dir "ck" ], false);
    ];
  let _, err = run_isf [ "exec"; bad_jasm ] in
  check_bool "jasm error names the file" true
    (contains err ("isf: " ^ bad_jasm ^ ":"));
  let code, err = run_isf [ "exec"; faulting_jasm ] in
  Alcotest.(check int) "runtime error exits 2" 2 code;
  check_bool "runtime error names the file and the fault" true
    (contains err ("isf: " ^ faulting_jasm ^ ": runtime error: division by zero"));
  (* an unusable journal or a foreign checkpoint is one isf: line and
     exit 2, and the foreign file is left as it was *)
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
      ([ "table"; "1"; "--checkpoint"; text ], text);
    ];
  Alcotest.(check string)
    "a refused checkpoint is left byte-for-byte" text_body
    (In_channel.with_open_bin text In_channel.input_all);
  List.iter Sys.remove
    [ bad_jasm; faulting_jasm; not_dir; job_file; text ]

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "bad input is a clean error, not a crash" `Quick
          test_input_errors;
      ] );
  ]
