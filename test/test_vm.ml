(* VM semantics: arithmetic, heap, runtime traps, threads, timer/yield
   scheduling, cost accounting, i-cache. *)

module Lir = Ir.Lir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let result src args = Option.get (Helpers.exec src args).Vm.Interp.return_value

(* Everything a run shows, on [engine], i-/d-caches on: the return
   value, output, cycles and instructions of a run that ends, or the
   message of the trap that ends it with the cycles and instructions
   spent when it was raised (read from the machine state, which
   [on_init] hands out). *)
let outcome ~engine prog args =
  let st = ref None in
  match
    Vm.Interp.run ~engine ~use_icache:true ~use_dcache:true
      ~on_init:(fun s -> st := Some s)
      prog
      ~entry:{ Lir.mclass = "Main"; mname = "main" }
      ~args Vm.Interp.null_hooks
  with
  | r ->
      Ok
        ( r.Vm.Interp.return_value,
          r.Vm.Interp.output,
          r.Vm.Interp.cycles,
          r.Vm.Interp.instructions )
  | exception Vm.Interp.Runtime_error m ->
      let s = Option.get !st in
      Error (m, s.Vm.Machine.cycles, s.Vm.Machine.instructions)

let pp_outcome = function
  | Ok (v, out, c, i) ->
      Printf.sprintf "returns %s, prints %S, %d cycles, %d instructions"
        (match v with Some v -> string_of_int v | None -> "nothing")
        out c i
  | Error (m, c, i) ->
      Printf.sprintf "traps %S at %d cycles, %d instructions" m c i

(* The reference's outcome, which the Fast engine must equal exactly. *)
let agreed prog args =
  let oracle = outcome ~engine:`Ref prog args in
  let got = outcome ~engine:`Fast prog args in
  if got <> oracle then
    Alcotest.failf "engines diverge: Ref %s, Fast %s" (pp_outcome oracle)
      (pp_outcome got);
  oracle

let expect_trap msg prog args =
  match agreed prog args with
  | Error (m, _, _) -> Alcotest.(check string) "trap message" msg m
  | ok -> Alcotest.failf "expected a trap, but the run %s" (pp_outcome ok)

let expect_value v prog args =
  match agreed prog args with
  | Ok (Some x, _, _, _) -> check_int "return value" v x
  | bad -> Alcotest.failf "expected %d, but the run %s" v (pp_outcome bad)

let traps name msg src args =
  Alcotest.test_case name `Quick (fun () ->
      let classes, funcs = Helpers.build src in
      expect_trap msg (Helpers.link classes funcs) args)

(* Words jasm's typechecker refuses (an array used as an object or a
   receiver, an instance test) built in LIR: [body b l] emits
   [Main.main]'s one block and returns what it returns; [B] (one field
   [v], one method [m]) is linked beside it. *)
let lir_prog body =
  let classes, funcs =
    Helpers.build
      "class B { var v: int; fun m(): int { return 1; } } class Main { \
       static fun main(n: int): int { return n; } }"
  in
  let name = { Lir.mclass = "Main"; mname = "main" } in
  let b = Ir.Build.create ~name ~n_params:1 () in
  let l = Ir.Build.new_block b in
  let ret = body b l in
  Ir.Build.set_term b l (Lir.Return (Some ret));
  let main = Ir.Build.finish b ~entry:l in
  Helpers.link classes
    (main :: List.filter (fun (f : Lir.func) -> f.Lir.fname <> name) funcs)

let new_reg b l i =
  let r = Ir.Build.fresh_reg b in
  Ir.Build.emit b l (i r);
  r

let fld_v = { Lir.fclass = "B"; fname = "v" }

let lir_traps name msg body =
  Alcotest.test_case name `Quick (fun () -> expect_trap msg (lir_prog body) [ 0 ])

let lir_value name v body =
  Alcotest.test_case name `Quick (fun () -> expect_value v (lir_prog body) [ 0 ])

let new_arr b l = new_reg b l (fun r -> Lir.New_array (r, Lir.Imm 3))
let new_b b l = new_reg b l (fun r -> Lir.New_object (r, "B"))

(* instance tests of [o] against [B] and against a class no program has,
   packed as [2 * is_B + is_unknown] *)
let instance_tests o b l =
  let t1 = new_reg b l (fun r -> Lir.Instance_test (r, o, "B")) in
  let t2 = new_reg b l (fun r -> Lir.Instance_test (r, o, "Nope")) in
  let t = new_reg b l (fun r -> Lir.Binop (r, Lir.Mul, Lir.Reg t1, Lir.Imm 2)) in
  Lir.Reg (new_reg b l (fun r -> Lir.Binop (r, Lir.Add, Lir.Reg t, Lir.Reg t2)))

let cell_cases =
  [
    lir_value "instanceof on an object" 2 (fun b l ->
        instance_tests (Lir.Reg (new_b b l)) b l);
    lir_value "instanceof on an array" 0 (fun b l ->
        instance_tests (Lir.Reg (new_arr b l)) b l);
    lir_value "instanceof on null" 0 (fun b l -> instance_tests (Lir.Imm 0) b l);
    lir_traps "array as a receiver" "virtual call on array" (fun b l ->
        let a = new_arr b l in
        Lir.Reg
          (new_reg b l (fun r ->
               Lir.Call
                 {
                   dst = Some r;
                   kind = Lir.Virtual;
                   target = { Lir.mclass = "B"; mname = "m" };
                   args = [ Lir.Reg a ];
                   site = 0;
                 })));
    lir_traps "array as an object (read)" "expected object, found array"
      (fun b l ->
        let a = new_arr b l in
        Lir.Reg (new_reg b l (fun r -> Lir.Get_field (r, Lir.Reg a, fld_v))));
    lir_traps "array as an object (write)" "expected object, found array"
      (fun b l ->
        let a = new_arr b l in
        Ir.Build.emit b l (Lir.Put_field (Lir.Reg a, fld_v, Lir.Imm 1));
        Lir.Imm 0);
    lir_traps "object as an array (read)" "expected array, found object"
      (fun b l ->
        let o = new_b b l in
        Lir.Reg
          (new_reg b l (fun r -> Lir.Array_load (r, Lir.Reg o, Lir.Imm 0))));
    lir_traps "object as an array (length)" "expected array, found object"
      (fun b l ->
        let o = new_b b l in
        Lir.Reg (new_reg b l (fun r -> Lir.Array_length (r, Lir.Reg o))));
    lir_traps "dangling reference" "dangling reference 7" (fun b l ->
        Lir.Reg (new_reg b l (fun r -> Lir.Get_field (r, Lir.Imm 7, fld_v))));
  ]

let arithmetic () =
  let p e = Printf.sprintf "class Main { static fun main(n: int): int { return %s; } }" e in
  check_int "neg div" (-3) (result (p "(0 - 7) / 2") []);
  check_int "neg rem" (-1) (result (p "(0 - 7) % 2") []);
  check_int "shr of negative" (-4) (result (p "(0 - 8) >> 1") []);
  check_int "logical not" 1
    (result
       "class Main { static fun main(n: int): int { var b: bool = !(n > 0); \
        if (b) { return 1; } return 0; } }"
       [ 0 ])

(* each a Fast == Ref case: same message, cycles and instructions *)
let trap_cases =
  let index_src =
    "class Main { static fun main(n: int): int { var a: int[] = new \
     int[3]; return a[n]; } }"
  in
  [
    traps "division by zero" "division by zero"
      "class Main { static fun main(n: int): int { return 10 / n; } }" [ 0 ];
    traps "remainder by zero" "division by zero"
      "class Main { static fun main(n: int): int { return 10 % n; } }" [ 0 ];
    traps "null field read" "null dereference"
      "class B { var v: int; } class Main { static fun main(n: int): int { var b: B = null; return b.v; } }"
      [ 0 ];
    traps "array out of bounds" "array index 5 out of bounds (Main.main)"
      index_src [ 5 ];
    traps "index = length" "array index 3 out of bounds (Main.main)"
      index_src [ 3 ];
    traps "negative index" "array index -1 out of bounds (Main.main)"
      index_src [ -1 ];
    traps "negative array length" "negative array length -2"
      "class Main { static fun main(n: int): int { var a: int[] = new int[n]; return a.length; } }"
      [ -2 ];
    traps "null virtual call" "null receiver for m"
      "class B { fun m(): int { return 1; } } class Main { static fun main(n: int): int { var b: B = null; return b.m(); } }"
      [ 0 ];
    Alcotest.test_case "new int[0] has length 1" `Quick (fun () ->
        (* the slot count is [max n 1], for arrays as for objects *)
        let classes, funcs =
          Helpers.build
            "class Main { static fun main(n: int): int { var a: int[] = \
             new int[n]; a[0] = 7; return (a.length * 10) + a[0]; } }"
        in
        expect_value 17 (Helpers.link classes funcs) [ 0 ]);
  ]
  @ cell_cases

let fuel_exhaustion () =
  let src = "class Main { static fun main(n: int): int { while (true) { n = n + 1; } return n; } }" in
  check_bool "infinite loop hits fuel" true
    (try
       ignore (Helpers.exec ~fuel:100_000 src [ 0 ]);
       false
     with Vm.Interp.Runtime_error _ -> true)

let rand_deterministic () =
  let src =
    "class Main { static fun main(n: int): int { var s: int = 0; var i: int \
     = 0; while (i < 10) { s = s + rand(100); i = i + 1; } return s; } }"
  in
  check_int "same seed same stream" (result src [ 0 ]) (result src [ 0 ]);
  let r1 = Helpers.exec ~seed:1 src [ 0 ] and r2 = Helpers.exec ~seed:2 src [ 0 ] in
  check_bool "different seeds differ" true
    (r1.Vm.Interp.return_value <> r2.Vm.Interp.return_value)

let cycles_monotone_in_work () =
  let r1 = Helpers.exec Helpers.loop_src [ 10 ]
  and r2 = Helpers.exec Helpers.loop_src [ 1000 ] in
  check_bool "more iterations, more cycles" true
    (r2.Vm.Interp.cycles > r1.Vm.Interp.cycles);
  check_bool "cycles >= instructions" true
    (r2.Vm.Interp.cycles >= r2.Vm.Interp.instructions)

let thread_interleaving () =
  let src =
    {|
    class W {
      static var log: int;
      static var finished: int;
      static fun work(id: int) {
        var i: int = 0;
        while (i < 50000) { i = i + 1; }
        // completion order gets encoded in the log
        W.log = (W.log * 10) + id;
        W.finished = W.finished + 1;
      }
    }
    class Main {
      static fun main(n: int): int {
        spawn W.work(1);
        spawn W.work(2);
        spawn W.work(3);
        while (W.finished < 3) { yield(); }
        return W.log;
      }
    }
  |}
  in
  let r1 = result src [ 0 ] and r2 = result src [ 0 ] in
  check_int "deterministic interleaving" r1 r2;
  check_bool "all three finished" true (r1 >= 100)

let preemption_via_timer () =
  (* two compute-bound threads with NO explicit yields must still both
     finish: the timer sets the switch bit, yieldpoints act on it *)
  let src =
    {|
    class W {
      static var finished: int;
      static fun spin(id: int) {
        var i: int = 0;
        while (i < 200000) { i = i + 1; }
        W.finished = W.finished + 1;
      }
    }
    class Main {
      static fun main(n: int): int {
        spawn W.spin(1);
        spawn W.spin(2);
        while (W.finished < 2) { yield(); }
        return W.finished;
      }
    }
  |}
  in
  let res = Helpers.exec src [ 0 ] in
  check_int "both done" 2 (Option.get res.Vm.Interp.return_value);
  check_bool "timer forced switches" true
    (res.Vm.Interp.counters.Vm.Interp.thread_switches > 2)

let icache_model () =
  let ic = Vm.Icache.create ~lines:4 ~line_words:4 () in
  check_bool "first access misses" true (Vm.Icache.access ic 0);
  check_bool "same line hits" false (Vm.Icache.access ic 3);
  check_bool "next line misses" true (Vm.Icache.access ic 4);
  (* address 64 maps to line 16 mod 4 = 0: evicts line 0 *)
  check_bool "conflict evicts" true (Vm.Icache.access ic 64);
  check_bool "original line misses again" true (Vm.Icache.access ic 0);
  check_int "misses" 4 (Vm.Icache.misses ic);
  (* only power-of-two geometries: a line is a shift, a set a mask *)
  List.iter
    (fun (lines, line_words) ->
      match Vm.Icache.create ~lines ~line_words () with
      | _ -> Alcotest.failf "geometry %d x %d accepted" lines line_words
      | exception Invalid_argument _ -> ())
    [ (3, 4); (4, 6); (0, 8) ]

let icache_in_vm () =
  let classes, funcs = Helpers.build Helpers.loop_src in
  let prog = Helpers.link classes funcs in
  let with_ic =
    Vm.Interp.run ~use_icache:true prog
      ~entry:{ Lir.mclass = "Main"; mname = "main" }
      ~args:[ 500 ] Vm.Interp.null_hooks
  in
  let without =
    Vm.Interp.run ~use_icache:false prog
      ~entry:{ Lir.mclass = "Main"; mname = "main" }
      ~args:[ 500 ] Vm.Interp.null_hooks
  in
  check_bool "icache misses counted" true (with_ic.Vm.Interp.icache_misses > 0);
  check_bool "misses cost cycles" true
    (with_ic.Vm.Interp.cycles > without.Vm.Interp.cycles);
  check_int "semantics unchanged"
    (Option.get without.Vm.Interp.return_value)
    (Option.get with_ic.Vm.Interp.return_value)

let linker_errors () =
  let classes = Helpers.compile Helpers.fib_src in
  check_bool "missing body rejected" true
    (try
       ignore (Vm.Program.link classes ~funcs:[]);
       false
     with Vm.Program.Link_error _ -> true)

let code_layout_puts_dup_last () =
  let classes, funcs = Helpers.build Helpers.loop_src in
  let spec = Core.Spec.call_edge in
  let funcs' =
    List.map (fun f -> (Core.Transform.full_dup spec f).Core.Transform.func) funcs
  in
  let prog = Vm.Program.link classes ~funcs:funcs' in
  Array.iter
    (fun (m : Vm.Program.meth) ->
      let f = m.Vm.Program.func in
      (* every dup block must be laid out after every orig/check block *)
      let max_hot = ref (-1) and min_dup = ref max_int in
      for l = 0 to Lir.num_blocks f - 1 do
        let b = Lir.block f l in
        let addr = m.Vm.Program.code_addr.(l) in
        match b.Lir.role with
        | Lir.Orig | Lir.Check_block -> if addr > !max_hot then max_hot := addr
        | Lir.Dup -> if addr < !min_dup then min_dup := addr
        | Lir.Dead -> ()
      done;
      if !min_dup < max_int then
        check_bool "dup after hot code" true (!min_dup > !max_hot))
    prog.Vm.Program.methods


let dcache_counts () =
  let src =
    {|
    class R { var a: int; var b: int; }
    class Main {
      static fun main(n: int): int {
        var rs: R[] = new R[64];
        var i: int = 0;
        while (i < 64) { rs[i] = new R; i = i + 1; }
        var acc: int = 0;
        var k: int = 0;
        while (k < n) {
          rs[k % 64].a = k;
          acc = acc + rs[k % 64].b;
          k = k + 1;
        }
        return acc;
      }
    }
  |}
  in
  let classes, funcs = Helpers.build src in
  let prog = Helpers.link classes funcs in
  let run use_dcache =
    Vm.Interp.run ~use_dcache prog
      ~entry:{ Lir.mclass = "Main"; mname = "main" }
      ~args:[ 500 ] Vm.Interp.null_hooks
  in
  let with_dc = run true and without = run false in
  check_bool "dcache misses counted" true (with_dc.Vm.Interp.dcache_misses > 0);
  check_int "no dcache, no misses" 0 without.Vm.Interp.dcache_misses;
  check_bool "misses cost cycles" true
    (with_dc.Vm.Interp.cycles > without.Vm.Interp.cycles);
  check_int "semantics unchanged"
    (Option.get without.Vm.Interp.return_value)
    (Option.get with_dc.Vm.Interp.return_value)

let layout_override_semantics () =
  (* any permutation of a class's own fields must preserve behaviour *)
  let classes, funcs = Helpers.build Helpers.loop_src in
  let run layout_override =
    Helpers.run_main (Vm.Program.link ~layout_override classes ~funcs) [ 200 ]
  in
  let a = run [] and b = run [ ("Counter", [ "total" ]) ] in
  Alcotest.(check string) "same output" a.Vm.Interp.output b.Vm.Interp.output

let layout_override_inheritance () =
  (* reordering a base class's fields must not break subclass access *)
  let src =
    {|
    class Base { var x: int; var y: int; var z: int; }
    class Derived extends Base { var w: int; }
    class Main {
      static fun main(n: int): int {
        var d: Derived = new Derived;
        d.x = 1; d.y = 2; d.z = 3; d.w = 4;
        var b: Base = d;
        return (b.x * 1000) + (b.y * 100) + (b.z * 10) + d.w;
      }
    }
  |}
  in
  let classes, funcs = Helpers.build src in
  let run layout_override =
    Helpers.run_main (Vm.Program.link ~layout_override classes ~funcs) [ 0 ]
  in
  let plain = Option.get (run []).Vm.Interp.return_value in
  let reordered =
    Option.get
      (run [ ("Base", [ "z"; "x" ]) ]).Vm.Interp.return_value
  in
  check_int "values preserved under reorder" plain reordered;
  check_int "expected value" 1234 plain

let suite =
  [
    ( "vm.semantics",
      [
        Alcotest.test_case "arithmetic edge cases" `Quick arithmetic;
        Alcotest.test_case "fuel exhaustion" `Quick fuel_exhaustion;
        Alcotest.test_case "rand determinism" `Quick rand_deterministic;
        Alcotest.test_case "cycle accounting" `Quick cycles_monotone_in_work;
      ]
      @ trap_cases );
    ( "vm.threads",
      [
        Alcotest.test_case "deterministic interleaving" `Quick
          thread_interleaving;
        Alcotest.test_case "timer preemption" `Quick preemption_via_timer;
      ] );
    ( "vm.icache",
      [
        Alcotest.test_case "cache model" `Quick icache_model;
        Alcotest.test_case "cache in the VM" `Quick icache_in_vm;
        Alcotest.test_case "dcache counts" `Quick dcache_counts;
        Alcotest.test_case "layout override semantics" `Quick
          layout_override_semantics;
        Alcotest.test_case "layout override + inheritance" `Quick
          layout_override_inheritance;
      ] );
    ( "vm.program",
      [
        Alcotest.test_case "link errors" `Quick linker_errors;
        Alcotest.test_case "layout: dup code is cold" `Quick
          code_layout_puts_dup_last;
      ] );
  ]
