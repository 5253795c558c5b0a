(* Crash tolerance ([Harness.Robust]): exception classification, transient
   retry, cell isolation — one failing cell never takes its siblings
   down — and the absence of any store of finished cells. *)

module Lir = Ir.Lir

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- classification ---- *)

let test_classify () =
  let cls = Harness.Robust.classify in
  check Alcotest.string "injected fault" "fault"
    (cls (Vm.Interp.Runtime_error "injected fault: trap at cycle 9 (plan seed 1)"));
  check Alcotest.string "fuel" "fuel"
    (cls (Vm.Interp.Runtime_error "out of fuel after 100 cycles"));
  check Alcotest.string "watchdog" "timeout"
    (cls (Vm.Interp.Runtime_error "wall-clock watchdog expired after 5 cycles"));
  check Alcotest.string "other VM error" "bug"
    (cls (Vm.Interp.Runtime_error "division by zero"));
  check Alcotest.string "Transient" "transient"
    (cls (Harness.Robust.Transient "flaky"));
  check Alcotest.string "Sys_error" "transient" (cls (Sys_error "EINTR"));
  check Alcotest.string "anything else" "bug" (cls (Failure "boom"))

(* ---- transient retry ---- *)

let test_transient_retries_then_succeeds () =
  let runs = ref 0 in
  let r =
    Harness.Robust.cell ~key:"t/retry-ok" (fun () ->
        incr runs;
        if !runs < 3 then raise (Harness.Robust.Transient "not yet");
        42)
  in
  check_bool "eventually Ok" true (r = Ok 42);
  check_int "two retries consumed" 3 !runs

let test_transient_exhausts () =
  let runs = ref 0 in
  match
    Harness.Robust.cell ~retries:1 ~key:"t/retry-fail" (fun () ->
        incr runs;
        raise (Harness.Robust.Transient "always"))
  with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      check_int "initial attempt + 1 retry" 2 !runs;
      check_int "attempts recorded" 2 f.Harness.Robust.attempts;
      check Alcotest.string "still classified transient" "transient"
        f.Harness.Robust.classification

let test_bug_not_retried () =
  let runs = ref 0 in
  match
    Harness.Robust.cell ~key:"t/bug" (fun () ->
        incr runs;
        failwith "deterministic bug")
  with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      check_int "no retry for a deterministic bug" 1 !runs;
      check Alcotest.string "classified bug" "bug"
        f.Harness.Robust.classification;
      check Alcotest.string "message preserved" "deterministic bug"
        f.Harness.Robust.message

(* ---- cell isolation ---- *)

(* one cell blows the VM watchdog; its siblings complete *)
let test_sibling_cells_survive () =
  let cell_of i =
    Harness.Robust.cell ~key:(Printf.sprintf "t/iso/%d" i) (fun () ->
        if i = 1 then begin
          let classes, funcs = Helpers.build Helpers.loop_src in
          ignore
            (Vm.Interp.run
               ~deadline:(Unix.gettimeofday () -. 1.0)
               ~deadline_poll:1_000
               (Vm.Program.link classes ~funcs)
               ~entry:{ Lir.mclass = "Main"; mname = "main" }
               ~args:[ 1_000_000 ] Vm.Interp.null_hooks)
        end;
        float_of_int i)
  in
  let outcomes = Harness.Pool.map ~jobs:3 cell_of [ 0; 1; 2 ] in
  check
    Alcotest.(list (float 0.0))
    "siblings completed" [ 0.0; 2.0 ]
    (Harness.Robust.oks outcomes);
  match Harness.Robust.errors outcomes with
  | [ f ] ->
      check Alcotest.string "runaway classified timeout" "timeout"
        f.Harness.Robust.classification;
      check Alcotest.string "under its own key" "t/iso/1" f.Harness.Robust.key
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs)

(* ---- no memo ---- *)

(* Robust remembers nothing between calls: finished work is the run
   cache's to remember.  A key run twice runs its body twice, and a key
   that failed is simply run again. *)
let test_cells_not_memoised () =
  let runs = ref 0 in
  let body v () =
    incr runs;
    v
  in
  check_bool "first call" true (Harness.Robust.cell ~key:"t/memo" (body 1) = Ok 1);
  check_bool "second call sees its own body" true
    (Harness.Robust.cell ~key:"t/memo" (body 2) = Ok 2);
  check_int "both bodies ran" 2 !runs;
  (match
     Harness.Robust.cell ~key:"t/memo-fail" (fun () ->
         incr runs;
         failwith "broken")
   with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ());
  check_bool "a failed key is run again" true
    (Harness.Robust.cell ~key:"t/memo-fail" (body 7) = Ok 7);
  check_int "one run per call" 4 !runs

(* ---- rendering ---- *)

let test_report_rendering () =
  let f =
    {
      Harness.Robust.key = "table1/db/call-edge";
      classification = "fault";
      attempts = 1;
      message = "injected fault: trap at cycle 9 (plan seed 1)";
      backtrace = "";
    }
  in
  let r = Harness.Robust.report [ f ] in
  let has sub =
    let n = String.length sub and h = String.length r in
    let rec go i = i + n <= h && (String.sub r i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "header counts failures" true (has "1 cell(s) failed");
  check_bool "names the cell" true (has "ERR table1/db/call-edge");
  check_bool "names the class" true (has "[fault after 1 attempt]");
  check Alcotest.string "ok cells render through" "1.5"
    (Harness.Robust.cell_str (Printf.sprintf "%.1f") (Ok 1.5));
  check Alcotest.string "failed cells render ERR" "ERR"
    (Harness.Robust.cell_str (Printf.sprintf "%.1f") (Error f))

let suite =
  [
    ( "robust",
      [
        Alcotest.test_case "classification" `Quick test_classify;
        Alcotest.test_case "transient retries then succeeds" `Quick
          test_transient_retries_then_succeeds;
        Alcotest.test_case "transient retries exhaust" `Quick
          test_transient_exhausts;
        Alcotest.test_case "bugs are not retried" `Quick test_bug_not_retried;
        Alcotest.test_case "sibling cells survive a runaway" `Quick
          test_sibling_cells_survive;
        Alcotest.test_case "cells are not memoised" `Quick
          test_cells_not_memoised;
        Alcotest.test_case "report rendering" `Quick test_report_rendering;
      ] );
  ]
