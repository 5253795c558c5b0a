(* Canonical digests for run configurations.  See digest.mli for the
   inclusion/exclusion rationale; Stdlib.Digest (MD5) is only used to
   compress canonical strings, never as the equality oracle — the full
   key travels with every cache entry and is compared verbatim. *)

let hex s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

let funcs fs =
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string b (Ir.Pp.func_to_string f);
      (* an unambiguous separator so concatenations can't alias *)
      Buffer.add_char b '\000')
    fs;
  Printf.sprintf "%d:%s" (List.length fs) (hex (Buffer.contents b))

let costs (c : Vm.Costs.t) =
  Printf.sprintf
    "alu=%d move=%d mem=%d branch=%d switch=%d call_base=%d call_per_arg=%d \
     ret=%d alloc_base=%d alloc_per_slot=%d yieldpoint=%d check=%d \
     intrinsic=%d icache_miss=%d sample_jump=%d"
    c.Vm.Costs.alu c.move c.mem c.branch c.switch c.call_base c.call_per_arg
    c.ret c.alloc_base c.alloc_per_slot c.yieldpoint c.check c.intrinsic
    c.icache_miss c.sample_jump

let trigger = function
  | Core.Sampler.Counter { interval; jitter } ->
      Printf.sprintf "counter:%d:%d" interval jitter
  | Core.Sampler.Counter_per_thread { interval } ->
      Printf.sprintf "counter-per-thread:%d" interval
  | Core.Sampler.Timer_bit -> "timer-bit"
  | Core.Sampler.Always -> "always"
  | Core.Sampler.Never -> "never"

let fault_action = function
  | Fault.Trap -> "trap"
  | Fault.Spurious_timer -> "spurious-timer"
  | Fault.Corrupt_sample_counter d ->
      Printf.sprintf "corrupt-sample-counter:%d" d
  | Fault.Flush_icache -> "flush-icache"
  | Fault.Flush_dcache -> "flush-dcache"

let fault_plan (p : Fault.plan) =
  if Fault.is_none p then "none"
  else
    let b = Buffer.create 256 in
    Buffer.add_string b (Printf.sprintf "seed=%d\n" p.Fault.seed);
    Array.iter
      (fun (e : Fault.event) ->
        Buffer.add_string b
          (Printf.sprintf "event=%d:%s\n" e.Fault.at_cycle
             (fault_action e.Fault.action)))
      p.Fault.events;
    List.iter
      (fun m -> Buffer.add_string b (Printf.sprintf "compile-failure=%s\n" m))
      p.Fault.compile_failures;
    Buffer.add_string b
      (Printf.sprintf "compile-fail-pct=%d\n" p.Fault.compile_fail_pct);
    hex (Buffer.contents b)

let run_config ?adaptive ~kind ~bench ~scale ~funcs_digest ~engine
    ~recording ~trigger ~timer_period ~costs ~faults () =
  String.concat "\n"
    ([
       "isf-run 1";
       "kind=" ^ kind;
       "bench=" ^ bench;
       Printf.sprintf "scale=%d" scale;
       "funcs=" ^ funcs_digest;
       "engine=" ^ engine;
       "recording=" ^ recording;
       "trigger=" ^ trigger;
       (match timer_period with
       | None -> "timer-period=default"
       | Some p -> Printf.sprintf "timer-period=%d" p);
       "costs=" ^ costs;
       "faults=" ^ faults;
     ]
    (* appended only when the adaptive loop is on, so every legacy key
       stays byte-identical and warm caches survive this addition *)
    @ match adaptive with None -> [] | Some a -> [ "adaptive=" ^ a ])
