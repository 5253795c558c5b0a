(* Public entry point of the VM.  The machine itself — state, heap,
   threads, semantic helpers and the reference [step] — lives in
   Machine; the closure-compiled engine in Engine executes the same
   machine and must stay bit-identical to [Machine.step], which is the
   oracle the differential suite tests the fast engine against (and the
   per-method fallback the fast engine degrades to when compilation
   fails). *)

module Lir = Ir.Lir
open Machine

type counters = Machine.counters = {
  mutable entries : int;
  mutable backedge_yps : int;
  mutable entry_yps : int;
  mutable checks : int;
  mutable samples : int;
  mutable thread_switches : int;
  mutable instrument_ops : int;
}

type ctx = Machine.ctx = {
  cur : Lir.method_ref;
  caller : (Lir.method_ref * int) option;
  eval : Lir.operand -> int;
  frame_id : int;
  class_of : int -> string option;
  stack : unit -> (Lir.method_ref * int) list;
}

type hooks = Machine.hooks = {
  fire : int -> bool;
  on_timer_tick : unit -> unit;
  on_instrument : ctx -> Lir.instrument_op -> unit;
  instr_cost : Lir.instrument_op -> int;
}

let null_hooks = Machine.null_hooks

exception Runtime_error = Machine.Runtime_error

type result = Machine.result = {
  return_value : int option;
  cycles : int;
  instructions : int;
  counters : counters;
  icache_misses : int;
  dcache_misses : int;
  output : string;
  fallbacks : (string * string) list;
  instr_cycles : int;
}

let step = Machine.step

let run ?(engine = `Fast) ?fuel ?use_icache ?use_dcache ?costs ?timer_period
    ?seed ?faults ?label ?deadline ?deadline_poll ?recorder ?on_init prog
    ~entry ~args hooks =
  let st =
    Machine.init_state ?fuel ?use_icache ?use_dcache ?costs ?timer_period ?seed
      ?faults ?label ?deadline ?deadline_poll ?recorder prog hooks
  in
  let m = Program.method_by_ref prog entry in
  ignore (spawn_thread st m args);
  (* adaptive tier attachment point: lets a controller capture the state
     and arm [next_adaptive] before the first instruction runs *)
  (match on_init with Some f -> f st | None -> ());
  (match engine with
  | `Ref ->
      while st.alive > 0 do
        fuel_check st;
        step st
      done
  | `Fast -> Engine.exec st);
  Machine.result_of st
