(* Shared VM machinery: the state, heap, threads, frames and every
   semantic helper, factored out of the original interpreter so that the
   reference interpreter (Interp) and the closure-compiled engine
   (Engine) execute the *same* machine and differ only in how they
   dispatch instructions.  Anything observable — cycle charges, counter
   increments, error messages and their ordering — lives here or is
   reproduced bit-for-bit by both engines. *)

module Lir = Ir.Lir

type counters = {
  mutable entries : int;
  mutable backedge_yps : int;
  mutable entry_yps : int;
  mutable checks : int;
  mutable samples : int;
  mutable thread_switches : int;
  mutable instrument_ops : int;
}

type ctx = {
  cur : Lir.method_ref;
  caller : (Lir.method_ref * int) option;
  eval : Lir.operand -> int;
  frame_id : int;
  class_of : int -> string option;
  stack : unit -> (Lir.method_ref * int) list;
}

type hooks = {
  fire : int -> bool;
  on_timer_tick : unit -> unit;
  on_instrument : ctx -> Lir.instrument_op -> unit;
  instr_cost : Lir.instrument_op -> int;
}

let null_hooks =
  {
    fire = (fun _ -> false);
    on_timer_tick = ignore;
    on_instrument = (fun _ _ -> ());
    instr_cost = (fun _ -> 0);
  }

exception Runtime_error of string

let rt_err fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type result = {
  return_value : int option;
  cycles : int;
  instructions : int;
  counters : counters;
  icache_misses : int;
  dcache_misses : int;
  output : string;
  fallbacks : (string * string) list;
      (* methods the fast engine degraded to the interpreter for, with
         the reason, in first-degraded order; [] on the reference engine
         and whenever every method compiled *)
  instr_cycles : int;
      (* cycles charged by instrumentation machinery (checks, sample
         jumps, instrument ops) — the overhead the adaptive governor
         steers; part of [cycles], not in addition to it.  Yieldpoints
         are excluded: the uninstrumented build pays them too. *)
}

(* Heap cells.  Values are plain ints: references are heap indices >= 1,
   null is 0 (the typechecker keeps ints and references apart). *)
type cell = Obj of { cls : int; fields : int array } | Arr of int array

(* Frames hold no pointer field that changes per branch: the running
   block is [blk] (read through [Lir.block m.func blk] where the words
   are needed) and the rest are ints, so a taken branch writes ints only
   and pays no write barrier.  [m] changes on a call only when the slot
   last held another method, and [regs] only when it must grow.

   [regs] may be longer than the register file: [nregs] is the logical
   length.  Registers [0, nregs) are zeroed when the frame is pushed,
   and frame migration (see [try_migrate]) zeroes the ones it adds, so
   every register a method can name (code is verified against its
   [next_reg]) reads exactly as in a fresh, exact-size array. *)
type frame = {
  mutable m : Program.meth;
  mutable regs : int array;
  mutable nregs : int;
  mutable blk : int;
  mutable idx : int;
  mutable base_addr : int; (* code address of current block *)
  mutable ret_dst : int; (* caller register for the result; -1 = none *)
  mutable from_meth : int; (* caller method id; -1 for thread entries *)
  mutable from_site : int; (* call site in the caller; -1 for thread entries *)
  mutable fid : int; (* unique activation id *)
}

(* A thread's activations live in [stack.(0)] (the entry) to
   [stack.(sp)] (the running frame); [sp = -1] once the thread is dead.
   Slots above [sp] are frames kept for reuse: a call takes the slot at
   [sp + 1] and a return just decrements [sp], so steady-state calls and
   returns allocate nothing and write no pointer.  A recycled frame is
   indistinguishable from a fresh one (registers re-zeroed, every other
   field overwritten before it runs; activation ids keep allocation
   order). *)
type thread = {
  tid : int;
  mutable stack : frame array;
  mutable sp : int;
}

(* Flat-slot recording (Profiles.Slots).  A pre-pass resolves every
   instrument op of the linked program to a dense event id (stored in
   [op.Lir.slot]) and builds this recorder: per-event cycle charge and
   either a counter index into [counts] (statically-keyed events) or a
   closure over preallocated int-keyed structures (dynamically-keyed
   events).  The hot path is then an array increment — no [ctx]
   allocation, no hook-name dispatch, no string building.  [touch] logs
   counter slots in first-increment order so the end-of-run decoder can
   rebuild the legacy hashtables with the exact insertion order the
   event-by-event collector would have produced (hashtable iteration
   order is observable through report tie-breaking). *)
type flat_recorder = {
  mutable ev_cost : int array; (* per event id: resolved cycle charge *)
  mutable ev_counter : int array;
      (* per event id: counter index, -1 = dynamic.  The three event
         arrays are mutable so the adaptive tier can mint additional
         events mid-run (inlined call edges record under a fresh id);
         they only ever grow, and existing ids keep their meaning. *)
  counts : int array; (* statically-keyed counters *)
  touch : int array; (* counter indices in first-touch order *)
  mutable n_touch : int;
  mutable dyn : (state -> thread -> frame -> unit) array; (* dynamic events *)
}

and state = {
  prog : Program.t;
  costs : Costs.t;
  hooks : hooks;
  counters : counters;
  heap : cell Ir.Vec.t;
  heap_addrs : int Ir.Vec.t; (* base data address of each cell *)
  mutable heap_words : int; (* bump allocator for data addresses *)
  globals : int array;
  mutable threads : thread array;
  mutable current : int;
  mutable alive : int;
  mutable cycles : int;
  mutable instructions : int;
  mutable icycles : int;
      (* cycles charged through [icharge]: instrumentation overhead *)
  mutable switch_bit : bool;
  mutable timer_period : int;
  mutable next_timer : int;
  mutable rng : int;
  icache : Icache.t option;
  dcache : Icache.t option;
  out : Buffer.t;
  fuel : int;
  mutable main_result : int option;
  mutable next_frame_id : int;
  (* Robustness layer.  [guard_gate] is the only value the hot path
     compares against: the minimum of the fuel limit, the next fault
     event's trigger cycle and the next wall-clock poll, so runs without
     faults or watchdog pay exactly the old single-compare fuel check. *)
  faults : Fault.plan;
  mutable fault_cursor : int; (* next unapplied event in faults.events *)
  mutable guard_gate : int;
  deadline : float; (* absolute Unix time; infinity = no watchdog *)
  deadline_poll : int; (* cycles between wall-clock polls *)
  mutable next_poll : int;
  label : string; (* benchmark/config context for error messages *)
  mutable engine_fallback : int array;
      (* per-method engine degradation: 0 = compile normally, 1 = fault
         plan says compilation must fail (event not yet recorded), 2 =
         degraded and recorded.  [||] when no plan can fail anything. *)
  mutable fallbacks : (string * string) list; (* (method, reason), newest first *)
  (* Engine scratch: the closure-compiled engine passes only [state]
     between instruction closures (a unary indirect call is the cheapest
     OCaml can make); the running thread and frame travel here, written
     by its dispatcher.  The reference interpreter never reads them. *)
  mutable cur_th : thread;
  mutable cur_fr : frame;
  recorder : flat_recorder option;
      (* flat-slot recording; [None] = legacy event-by-event hooks *)
  (* Adaptive tier (lib/adaptive).  [next_adaptive] = max_int keeps the
     poll a single always-false compare when the loop is off, so the
     byte-identity of non-adaptive runs is untouched. *)
  mutable next_adaptive : int;
  mutable adaptive_poll : state -> unit;
  mutable migration : bool;
      (* frame migration at yieldpoints armed (see [try_migrate]);
         false unless the adaptive loop is on *)
}

let[@inline] charge st c = st.cycles <- st.cycles + c

(* Instrumentation charge: same cycle accounting as [charge] plus the
   overhead meter the adaptive governor reads. *)
let[@inline] icharge st c =
  st.cycles <- st.cycles + c;
  st.icycles <- st.icycles + c

let out_of_fuel st =
  let where =
    if Array.length st.threads = 0 then ""
    else
      let th = st.threads.(st.current) in
      if th.sp < 0 then ""
      else
        let fr = th.stack.(th.sp) in
        Printf.sprintf " in %s (block %d, pc %d)"
          (Lir.string_of_method_ref fr.m.Program.mref)
          fr.blk (fr.base_addr + fr.idx)
  in
  let ctx = if st.label = "" then "" else " while running " ^ st.label in
  rt_err "out of fuel after %d cycles%s%s (likely non-termination)" st.cycles
    where ctx

let recompute_guard st =
  let g = st.fuel in
  let g =
    if st.fault_cursor < Array.length st.faults.Fault.events then
      min g (st.faults.Fault.events.(st.fault_cursor).Fault.at_cycle - 1)
    else g
  in
  let g = if st.deadline < infinity then min g st.next_poll else g in
  st.guard_gate <- g

let apply_fault st (e : Fault.event) =
  match e.Fault.action with
  | Fault.Trap ->
      rt_err "injected fault: trap at cycle %d (plan seed %d)" e.Fault.at_cycle
        st.faults.Fault.seed
  | Fault.Spurious_timer ->
      (* an interrupt the device never scheduled: same observable effects
         as a real tick, but the device's own schedule is untouched *)
      st.switch_bit <- true;
      st.hooks.on_timer_tick ()
  | Fault.Corrupt_sample_counter d ->
      st.counters.samples <- st.counters.samples + d
  | Fault.Flush_icache -> (
      match st.icache with Some c -> Icache.flush c | None -> ())
  | Fault.Flush_dcache -> (
      match st.dcache with Some c -> Icache.flush c | None -> ())

(* Cold path of [fuel_check]: apply every due fault event, poll the
   wall-clock watchdog, check fuel, then rearm the gate.  Both engines
   reach fuel checks at identical cycle counts (one per executed word,
   before its charges), so fault events fire at identical points and
   their effects are bit-identical across engines. *)
let guard_trip st =
  let evs = st.faults.Fault.events in
  while
    st.fault_cursor < Array.length evs
    && st.cycles > evs.(st.fault_cursor).Fault.at_cycle - 1
  do
    let e = evs.(st.fault_cursor) in
    st.fault_cursor <- st.fault_cursor + 1;
    apply_fault st e
  done;
  if st.deadline < infinity && st.cycles > st.next_poll then begin
    st.next_poll <- st.cycles + st.deadline_poll;
    if Unix.gettimeofday () > st.deadline then
      rt_err "wall-clock watchdog expired after %d cycles%s" st.cycles
        (if st.label = "" then "" else " while running " ^ st.label)
  end;
  if st.cycles > st.fuel then out_of_fuel st;
  recompute_guard st

let[@inline] fuel_check st = if st.cycles > st.guard_gate then guard_trip st

(* Adaptive safepoint: when armed (next_adaptive < max_int) and due,
   disarm and hand control to the controller.  The controller re-arms by
   writing [next_adaptive] itself; with the loop off this is one
   always-false compare. *)
let adaptive_fire st =
  st.next_adaptive <- max_int;
  st.adaptive_poll st

let[@inline] adaptive_check st =
  if st.cycles >= st.next_adaptive then adaptive_fire st

(* The timer device fires at block boundaries, exactly where the
   reference step consults it (before executing a terminator).  The
   adaptive poll piggybacks on the same safepoint, so both engines poll
   at identical cycle counts. *)
let timer_fire st =
  st.next_timer <- st.next_timer + st.timer_period;
  st.switch_bit <- true;
  st.hooks.on_timer_tick ()

let timer_check st =
  if st.cycles >= st.next_timer then timer_fire st;
  adaptive_check st

(* Mid-run timer retune (adaptive governor).  Pulls an already-scheduled
   far-away tick closer so a shortened period takes effect immediately;
   a lengthened period lets the pending tick fire first. *)
let set_timer_period st p =
  let p = max 1 p in
  st.timer_period <- p;
  if st.next_timer - st.cycles > p then st.next_timer <- st.cycles + p

let set_block (fr : frame) l =
  fr.blk <- l;
  fr.idx <- 0;
  fr.base_addr <- fr.m.Program.code_addr.(l)

(* ------------------------------------------------------------------ *)
(* On-stack frame migration (adaptive tier)                            *)
(* ------------------------------------------------------------------ *)

(* Re-pin a frame suspended at a yieldpoint to the method version
   currently installed in the method table.  Without this, a
   long-running activation (a benchmark's main loop) executes its
   original instrumented code forever no matter what the adaptive
   controller installs — hot-swap only reaches future calls, and there
   is no OSR.

   The map is purely structural: the frame has just executed the k-th
   yieldpoint of block [blk] ([ni] is the resume index right after it);
   if the new version still has a block [blk] with the same role whose
   k-th yieldpoint exists and has the same kind, execution resumes right
   after that yieldpoint.  Every transform the controller applies
   (strip/restore of plain instrument ops, hot block reordering,
   call-site inlining) preserves the yieldpoint prefix of every
   surviving block, so the map succeeds exactly where it is
   semantically safe and declines the rest — e.g. a frame parked past an
   inlined-away call site finds no k-th yieldpoint in the rewritten
   block and simply stays on its pinned version.

   Migration costs zero simulated cycles and both engines attempt it at
   the same safepoint with the same outcome, so engine bit-identity is
   preserved; [st.migration] stays false unless the adaptive loop is on,
   so non-adaptive runs pay one always-false test per yieldpoint and
   remain byte-identical. *)
let try_migrate st (fr : frame) ni =
  let id = fr.m.Program.id in
  let nm = st.prog.Program.methods.(id) in
  nm != fr.m
  &&
  let f = nm.Program.func in
  let l = fr.blk in
  l < Lir.num_blocks f
  &&
  let nb = Lir.block f l in
  let ob = Lir.block fr.m.Program.func l in
  nb.Lir.role = ob.Lir.role
  &&
  let oinstrs = ob.Lir.instrs in
  match oinstrs.(ni - 1) with
  | Lir.Yieldpoint kind -> (
      (* ordinal of the yieldpoint just executed within its block *)
      let k = ref 0 in
      for i = 0 to ni - 1 do
        match oinstrs.(i) with Lir.Yieldpoint _ -> incr k | _ -> ()
      done;
      let k = !k in
      (* resume index right after the k-th yieldpoint of the new block,
         if it exists and the kinds agree *)
      let ninstrs = nb.Lir.instrs in
      let n = Array.length ninstrs in
      let rec find i seen =
        if i >= n then -1
        else
          match ninstrs.(i) with
          | Lir.Yieldpoint kind' ->
              if seen + 1 = k then if kind' = kind then i + 1 else -1
              else find (i + 1) (seen + 1)
          | _ -> find (i + 1) seen
      in
      match find 0 0 with
      | -1 -> false
      | p ->
          (* an inlined version may address registers past the old
             frame's file; grow it (fresh registers are always written
             before read — the inliner emits parameter moves first) *)
          let need = max f.Lir.next_reg 1 in
          if fr.nregs < need then begin
            if Array.length fr.regs < need then begin
              let regs = Array.make need 0 in
              Array.blit fr.regs 0 regs 0 fr.nregs;
              fr.regs <- regs
            end
            else Array.fill fr.regs fr.nregs (need - fr.nregs) 0;
            fr.nregs <- need
          end;
          fr.m <- nm;
          fr.base_addr <- nm.Program.code_addr.(l);
          fr.idx <- p;
          true)
  | _ -> false

(* Placeholder method of never-run frames: the engine-scratch frame
   before any thread runs, and stack slots not yet used. *)
let dummy_meth =
  let fname = { Lir.mclass = "<none>"; Lir.mname = "<none>" } in
  let func =
    {
      Lir.fname;
      params = [];
      blocks = Ir.Vec.of_list [ Lir.dead_block ];
      entry = 0;
      next_reg = 0;
    }
  in
  { Program.id = -1; mref = fname; func; n_args = 0; code_addr = [| 0 |] }

let fresh_frame () =
  {
    m = dummy_meth;
    regs = [||];
    nregs = 0;
    blk = 0;
    idx = 0;
    base_addr = 0;
    ret_dst = -1;
    from_meth = -1;
    from_site = -1;
    fid = -1;
  }

(* Stack slot [sp] of [th], growing the stack when [sp] is past its
   end (the cold path of a push). *)
let stack_slot th sp =
  let n = Array.length th.stack in
  if sp >= n then begin
    let old = th.stack in
    th.stack <-
      Array.init (max (sp + 1) (2 * n)) (fun i ->
          if i < n then old.(i) else fresh_frame ())
  end;
  th.stack.(sp)

(* The slot a callee of [m] with [nregs] registers will run in, above
   [th]'s running frame, with its registers zeroed; not pushed yet. *)
let take_frame th (m : Program.meth) nregs =
  let fr = stack_slot th (th.sp + 1) in
  if fr.m != m then fr.m <- m;
  if Array.length fr.regs < nregs then fr.regs <- Array.make nregs 0
  else begin
    (* a loop, not [Array.fill]: no C call for a handful of registers *)
    let regs = fr.regs in
    for i = 0 to nregs - 1 do
      Array.unsafe_set regs i 0
    done
  end;
  fr.nregs <- nregs;
  fr

(* Push a frame for a call of [m] with argument values [args]. *)
let new_frame st th (m : Program.meth) ~args ~ret_dst ~from_meth ~from_site =
  let fr = take_frame th m (max m.Program.func.Lir.next_reg 1) in
  let regs = fr.regs in
  let rec fill i = function
    | [] -> ()
    | a :: rest ->
        (match List.nth_opt m.Program.func.Lir.params i with
        | Some r -> regs.(r) <- a
        | None -> rt_err "too many arguments to %s"
                    (Lir.string_of_method_ref m.Program.mref));
        fill (i + 1) rest
  in
  fill 0 args;
  let fid = st.next_frame_id in
  st.next_frame_id <- fid + 1;
  fr.ret_dst <- ret_dst;
  fr.from_meth <- from_meth;
  fr.from_site <- from_site;
  fr.fid <- fid;
  set_block fr m.Program.func.Lir.entry;
  st.counters.entries <- st.counters.entries + 1;
  th.sp <- th.sp + 1

let spawn_thread st (m : Program.meth) args =
  let th = { tid = Array.length st.threads; stack = [||]; sp = -1 } in
  new_frame st th m ~args ~ret_dst:(-1) ~from_meth:(-1) ~from_site:(-1);
  st.threads <- Array.append st.threads [| th |];
  st.alive <- st.alive + 1;
  th

(* Reads the vector's fields in place: [Ir.Vec.unsafe_get] is
   polymorphic and not inlined, so calling it would leave an
   out-of-line call in the Fast engine's virtual-call closure. *)
let[@inline] heap_get st r =
  if r <= 0 then rt_err "null dereference"
  else if r > st.heap.Ir.Vec.len then rt_err "dangling reference %d" r
  else Array.unsafe_get st.heap.Ir.Vec.data (r - 1)

let data_access st addr =
  match st.dcache with
  | Some dc -> if Icache.access dc addr then charge st st.costs.Costs.icache_miss
  | None -> ()

let alloc st cell =
  let slots =
    match cell with Obj o -> Array.length o.fields | Arr a -> Array.length a
  in
  ignore (Ir.Vec.push st.heap_addrs st.heap_words);
  st.heap_words <- st.heap_words + max slots 1;
  Ir.Vec.push st.heap cell + 1

(* Only ever called after [heap_get]/[obj_fields]/[arr_cells] validated
   [r]; [heap_addrs] grows in lockstep with [heap]. *)
let cell_addr st r = Ir.Vec.unsafe_get st.heap_addrs (r - 1)

let next_rand st bound =
  (* SplitMix-style deterministic generator on OCaml's 63-bit ints *)
  st.rng <- (st.rng + 0x1E3779B97F4A7C15) land max_int;
  let z = st.rng in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land max_int in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land max_int in
  let z = z lxor (z lsr 31) in
  if bound <= 0 then 0 else z mod bound

let eval (fr : frame) = function Lir.Reg r -> fr.regs.(r) | Lir.Imm n -> n

let exec_binop op a b =
  match op with
  | Lir.Add -> a + b
  | Lir.Sub -> a - b
  | Lir.Mul -> a * b
  | Lir.Div -> if b = 0 then rt_err "division by zero" else a / b
  | Lir.Rem -> if b = 0 then rt_err "division by zero" else a mod b
  | Lir.And -> a land b
  | Lir.Or -> a lor b
  | Lir.Xor -> a lxor b
  | Lir.Shl -> a lsl (b land 31)
  | Lir.Shr -> a asr (b land 31)
  | Lir.Lt -> if a < b then 1 else 0
  | Lir.Le -> if a <= b then 1 else 0
  | Lir.Gt -> if a > b then 1 else 0
  | Lir.Ge -> if a >= b then 1 else 0
  | Lir.Eq -> if a = b then 1 else 0
  | Lir.Ne -> if a <> b then 1 else 0

let field_off st (fld : Lir.field_ref) =
  match Hashtbl.find_opt st.prog.Program.field_offset (Lir.string_of_field_ref fld) with
  | Some off -> off
  | None -> rt_err "unresolved field %s" (Lir.string_of_field_ref fld)

let static_off st (fld : Lir.field_ref) =
  match
    Hashtbl.find_opt st.prog.Program.static_offset (Lir.string_of_field_ref fld)
  with
  | Some off -> off
  | None -> rt_err "unresolved static field %s" (Lir.string_of_field_ref fld)

let obj_fields st r =
  match heap_get st r with
  | Obj o -> o.fields
  | Arr _ -> rt_err "expected object, found array"

let arr_cells st r =
  match heap_get st r with
  | Arr a -> a
  | Obj _ -> rt_err "expected array, found object"

let rotate_thread st =
  let n = Array.length st.threads in
  if st.alive > 0 then begin
    let rec next i =
      let i = (i + 1) mod n in
      if st.threads.(i).sp >= 0 then i else next i
    in
    let nxt = next st.current in
    if nxt <> st.current then begin
      st.counters.thread_switches <- st.counters.thread_switches + 1;
      st.current <- nxt
    end
  end

let make_ctx st th (fr : frame) =
  let caller =
    if fr.from_meth >= 0 then
      Some (st.prog.Program.methods.(fr.from_meth).Program.mref, fr.from_site)
    else None
  in
  let class_of r =
    if r <= 0 || r > Ir.Vec.length st.heap then None
    else
      match Ir.Vec.get st.heap (r - 1) with
      | Obj o -> Some st.prog.Program.classes.(o.cls).Program.cls_name
      | Arr _ -> None
  in
  let stack () =
    let entry (g : frame) = (g.m.Program.mref, g.from_site) in
    (* suspended callers, innermost first *)
    entry fr
    :: List.init (max th.sp 0) (fun i -> entry th.stack.(th.sp - 1 - i))
  in
  {
    cur = fr.m.Program.mref;
    caller;
    eval = eval fr;
    frame_id = fr.fid;
    class_of;
    stack;
  }

(* Flat-path event: charge the pre-resolved cost, then either bump the
   event's counter (logging its first touch) or run its dynamic-key
   closure.  Shared verbatim by both engines. *)
let[@inline] record_flat st th fr (r : flat_recorder) ev =
  icharge st (Array.unsafe_get r.ev_cost ev);
  let c = Array.unsafe_get r.ev_counter ev in
  if c >= 0 then begin
    let v = Array.unsafe_get r.counts c in
    Array.unsafe_set r.counts c (v + 1);
    if v = 0 then begin
      r.touch.(r.n_touch) <- c;
      r.n_touch <- r.n_touch + 1
    end
  end
  else (Array.unsafe_get r.dyn ev) st th fr

let run_instrument st th fr op =
  st.counters.instrument_ops <- st.counters.instrument_ops + 1;
  match st.recorder with
  | Some r when op.Lir.slot >= 0 -> record_flat st th fr r op.Lir.slot
  | _ ->
      icharge st (st.hooks.instr_cost op);
      st.hooks.on_instrument (make_ctx st th fr) op

let do_return st th v =
  if th.sp >= 0 then begin
    let fr = th.stack.(th.sp) in
    charge st st.costs.Costs.ret;
    th.sp <- th.sp - 1;
    if th.sp < 0 then begin
      st.alive <- st.alive - 1;
      if th.tid = 0 then st.main_result <- v;
      if st.alive > 0 then rotate_thread st
    end
    else
      match (v, fr.ret_dst) with
      | Some x, dst when dst >= 0 -> th.stack.(th.sp).regs.(dst) <- x
      | _ -> ()
  end

let invoke st th (fr : frame) dst kind target args site =
  charge st
    (st.costs.Costs.call_base + (st.costs.Costs.call_per_arg * List.length args));
  let vals = List.map (eval fr) args in
  let m =
    match kind with
    | Lir.Static -> Program.method_by_ref st.prog target
    | Lir.Virtual -> (
        match vals with
        | recv :: _ -> (
            if recv = 0 then rt_err "null receiver for %s" target.Lir.mname;
            let cls =
              match heap_get st recv with
              | Obj o -> o.cls
              | Arr _ -> rt_err "virtual call on array"
            in
            match
              Hashtbl.find_opt st.prog.Program.classes.(cls).Program.vtable
                target.Lir.mname
            with
            | Some id -> st.prog.Program.methods.(id)
            | None ->
                rt_err "class %s has no method %s"
                  st.prog.Program.classes.(cls).Program.cls_name
                  target.Lir.mname)
        | [] -> rt_err "virtual call with no receiver")
  in
  let dst_reg = match dst with Some r -> r | None -> -1 in
  new_frame st th m ~args:vals ~ret_dst:dst_reg ~from_meth:fr.m.Program.id
    ~from_site:site

let intrinsic st th (fr : frame) dst name args =
  charge st st.costs.Costs.intrinsic;
  let vals = List.map (eval fr) args in
  let set v = match dst with Some r -> fr.regs.(r) <- v | None -> () in
  match (name, vals) with
  | "print", [ v ] ->
      Buffer.add_string st.out (string_of_int v);
      Buffer.add_char st.out '\n'
  | "rand", [ bound ] -> set (next_rand st bound)
  | "yield", [] -> rotate_thread st
  | _ when String.length name > 6 && String.sub name 0 6 = "spawn:" -> (
      let full = String.sub name 6 (String.length name - 6) in
      match String.index_opt full '.' with
      | Some i ->
          let mref =
            {
              Lir.mclass = String.sub full 0 i;
              mname = String.sub full (i + 1) (String.length full - i - 1);
            }
          in
          let m = Program.method_by_ref st.prog mref in
          ignore (spawn_thread st m vals);
          ignore th
      | None -> rt_err "malformed spawn intrinsic %s" name)
  | _ -> rt_err "unknown intrinsic %s/%d" name (List.length vals)

(* Placeholder activation and thread seeding the engine-scratch fields
   before any thread runs; never executed (the engine dispatcher
   overwrites both fields before invoking any compiled code). *)
let dummy_frame = fresh_frame ()
let dummy_thread = { tid = -1; stack = [||]; sp = -1 }

let init_state ?(fuel = 4_000_000_000) ?(use_icache = false)
    ?(use_dcache = false) ?(costs = Costs.default) ?(timer_period = 100_000)
    ?(seed = 0x5EED) ?(faults = Fault.none) ?(label = "") ?deadline
    ?(deadline_poll = 50_000_000) ?recorder prog hooks =
  let counters =
    {
      entries = 0;
      backedge_yps = 0;
      entry_yps = 0;
      checks = 0;
      samples = 0;
      thread_switches = 0;
      instrument_ops = 0;
    }
  in
  let engine_fallback =
    if Fault.is_none faults then [||]
    else
      let marks =
        Array.map
          (fun (m : Program.meth) ->
            if Fault.fail_compile faults (Lir.string_of_method_ref m.Program.mref)
            then 1
            else 0)
          prog.Program.methods
      in
      if Array.exists (fun v -> v > 0) marks then marks else [||]
  in
  let st =
  {
    prog;
    costs;
    hooks;
    counters;
    heap = Ir.Vec.create ();
    heap_addrs = Ir.Vec.create ();
    (* data addresses: statics first, then the heap *)
    heap_words = prog.Program.n_statics + 64;
    globals = Array.make (max prog.Program.n_statics 1) 0;
    threads = [||];
    current = 0;
    alive = 0;
    cycles = 0;
    instructions = 0;
    icycles = 0;
    switch_bit = false;
    timer_period;
    next_timer = timer_period;
    rng = seed;
    icache = (if use_icache then Some (Icache.create ()) else None);
    dcache =
      (if use_dcache then Some (Icache.create ~lines:512 ~line_words:8 ())
       else None);
    out = Buffer.create 256;
    fuel;
    main_result = None;
    next_frame_id = 0;
    faults;
    fault_cursor = 0;
    guard_gate = fuel;
    deadline = (match deadline with Some d -> d | None -> infinity);
    deadline_poll;
    next_poll = deadline_poll;
    label;
    engine_fallback;
    fallbacks = [];
    cur_th = dummy_thread;
    cur_fr = dummy_frame;
    recorder;
    next_adaptive = max_int;
    adaptive_poll = ignore;
    migration = false;
  }
  in
  recompute_guard st;
  st

(* ---- per-method engine degradation (used by Engine only) ---- *)

let record_fallback st id reason =
  if Array.length st.engine_fallback = 0 then
    st.engine_fallback <- Array.make (Array.length st.prog.Program.methods) 0;
  st.engine_fallback.(id) <- 2;
  st.fallbacks <-
    ( Lir.string_of_method_ref st.prog.Program.methods.(id).Program.mref,
      reason )
    :: st.fallbacks

let result_of st =
  {
    return_value = st.main_result;
    cycles = st.cycles;
    instructions = st.instructions;
    counters = st.counters;
    icache_misses = (match st.icache with Some ic -> Icache.misses ic | None -> 0);
    dcache_misses = (match st.dcache with Some dc -> Icache.misses dc | None -> 0);
    output = Buffer.contents st.out;
    fallbacks = List.rev st.fallbacks;
    instr_cycles = st.icycles;
  }

(* ------------------------------------------------------------------ *)
(* The reference step                                                  *)
(* ------------------------------------------------------------------ *)

(* Execute one instruction or terminator of the current thread,
   re-matching the LIR on every dynamic execution.  This is the
   observational oracle both engines answer to: Interp's driver loop is
   [fuel_check; step] until no thread is alive, and Engine reproduces
   the exact effect sequence below in compiled form — and falls back to
   this very function, word by word, for any method it could not (or
   was fault-injected not to) compile.  Living in Machine rather than
   Interp keeps that fallback a direct call instead of a forward
   reference. *)
let step st =
  let th = st.threads.(st.current) in
  match th.sp with
  | -1 -> rotate_thread st
  | sp ->
      let fr = th.stack.(sp) in
      st.instructions <- st.instructions + 1;
      (match st.icache with
      | Some ic ->
          if Icache.access ic (fr.base_addr + fr.idx) then
            charge st st.costs.Costs.icache_miss
      | None -> ());
      (* [Lir.block], read in place: a call into Ir per step is out of
         line (DESIGN.md §5, "Word preamble and frame layout") *)
      let b = fr.m.Program.func.Lir.blocks.Ir.Vec.data.(fr.blk) in
      if fr.idx < Array.length b.Lir.instrs then begin
        let i = b.Lir.instrs.(fr.idx) in
        fr.idx <- fr.idx + 1;
        let c = st.costs in
        match i with
        | Lir.Move (r, a) ->
            charge st c.Costs.move;
            fr.regs.(r) <- eval fr a
        | Lir.Unop (r, op, a) ->
            charge st c.Costs.alu;
            let v = eval fr a in
            fr.regs.(r) <- (match op with Lir.Neg -> -v | Lir.Not -> (if v = 0 then 1 else 0))
        | Lir.Binop (r, op, a, b) ->
            charge st c.Costs.alu;
            fr.regs.(r) <- exec_binop op (eval fr a) (eval fr b)
        | Lir.Get_field (r, o, fld) ->
            charge st c.Costs.mem;
            let obj = eval fr o in
            let fields = obj_fields st obj (* null check first *) in
            let off = field_off st fld in
            data_access st (cell_addr st obj + off);
            fr.regs.(r) <- fields.(off)
        | Lir.Put_field (o, fld, v) ->
            charge st c.Costs.mem;
            let obj = eval fr o in
            let fields = obj_fields st obj in
            let off = field_off st fld in
            data_access st (cell_addr st obj + off);
            fields.(off) <- eval fr v
        | Lir.Get_static (r, fld) ->
            charge st c.Costs.mem;
            let off = static_off st fld in
            data_access st off;
            fr.regs.(r) <- st.globals.(off)
        | Lir.Put_static (fld, v) ->
            charge st c.Costs.mem;
            let off = static_off st fld in
            data_access st off;
            st.globals.(off) <- eval fr v
        | Lir.New_object (r, cname) ->
            let cid =
              match Hashtbl.find_opt st.prog.Program.class_id_of_name cname with
              | Some id -> id
              | None -> rt_err "unknown class %s" cname
            in
            let n = st.prog.Program.classes.(cid).Program.n_fields in
            charge st (c.Costs.alloc_base + (c.Costs.alloc_per_slot * n));
            fr.regs.(r) <- alloc st (Obj { cls = cid; fields = Array.make (max n 1) 0 })
        | Lir.New_array (r, len) ->
            let n = eval fr len in
            if n < 0 then rt_err "negative array length %d" n;
            charge st (c.Costs.alloc_base + (c.Costs.alloc_per_slot * n));
            fr.regs.(r) <- alloc st (Arr (Array.make (max n 1) 0))
        | Lir.Array_load (r, a, i) ->
            charge st c.Costs.mem;
            let arr = eval fr a in
            let cells = arr_cells st arr in
            let i = eval fr i in
            if i < 0 || i >= Array.length cells then
              rt_err "array index %d out of bounds (%s)" i
                (Lir.string_of_method_ref fr.m.Program.mref);
            data_access st (cell_addr st arr + i);
            fr.regs.(r) <- cells.(i)
        | Lir.Array_store (a, i, v) ->
            charge st c.Costs.mem;
            let arr = eval fr a in
            let cells = arr_cells st arr in
            let i = eval fr i in
            if i < 0 || i >= Array.length cells then
              rt_err "array index %d out of bounds (%s)" i
                (Lir.string_of_method_ref fr.m.Program.mref);
            data_access st (cell_addr st arr + i);
            cells.(i) <- eval fr v
        | Lir.Array_length (r, a) ->
            charge st c.Costs.mem;
            fr.regs.(r) <- Array.length (arr_cells st (eval fr a))
        | Lir.Instance_test (r, o, cname) ->
            charge st (c.Costs.mem + c.Costs.alu);
            let v = eval fr o in
            fr.regs.(r) <-
              (if v <= 0 || v > Ir.Vec.length st.heap then 0
               else
                 match Ir.Vec.get st.heap (v - 1) with
                 | Obj obj ->
                     if
                       String.equal
                         st.prog.Program.classes.(obj.cls).Program.cls_name
                         cname
                     then 1
                     else 0
                 | Arr _ -> 0)
        | Lir.Call { dst; kind; target; args; site } ->
            invoke st th fr dst kind target args site
        | Lir.Intrinsic { dst; name; args } -> intrinsic st th fr dst name args
        | Lir.Yieldpoint k ->
            (* plain charge: yieldpoints are safepoint machinery the
               uninstrumented build pays too, not a sheddable
               instrumentation cost, so they stay out of the governor's
               overhead meter *)
            charge st c.Costs.yieldpoint;
            (match k with
            | Lir.Yp_entry ->
                st.counters.entry_yps <- st.counters.entry_yps + 1
            | Lir.Yp_backedge ->
                st.counters.backedge_yps <- st.counters.backedge_yps + 1);
            adaptive_check st;
            (* fr.idx is already the resume index after this yieldpoint;
               a successful migration rewrites it for the new version *)
            if st.migration then ignore (try_migrate st fr fr.idx : bool);
            if st.switch_bit then begin
              st.switch_bit <- false;
              rotate_thread st
            end
        | Lir.Instrument op -> run_instrument st th fr op
        | Lir.Guarded_instrument op ->
            (* No-Duplication: the check guards this single op *)
            st.counters.checks <- st.counters.checks + 1;
            icharge st c.Costs.check;
            if st.hooks.fire th.tid then begin
              st.counters.samples <- st.counters.samples + 1;
              run_instrument st th fr op
            end
      end
      else begin
        (* terminator *)
        timer_check st;
        let c = st.costs in
        match b.Lir.term with
        | Lir.Goto l ->
            charge st c.Costs.branch;
            set_block fr l
        | Lir.If { cond; if_true; if_false } ->
            charge st c.Costs.branch;
            set_block fr (if eval fr cond <> 0 then if_true else if_false)
        | Lir.Switch { scrut; cases; default } ->
            charge st c.Costs.switch;
            let v = eval fr scrut in
            let target =
              match List.assoc_opt v cases with Some l -> l | None -> default
            in
            set_block fr target
        | Lir.Return v -> do_return st th (Option.map (eval fr) v)
        | Lir.Check { on_sample; fall } ->
            st.counters.checks <- st.counters.checks + 1;
            icharge st c.Costs.check;
            if st.hooks.fire th.tid then begin
              st.counters.samples <- st.counters.samples + 1;
              icharge st c.Costs.sample_jump;
              set_block fr on_sample
            end
            else set_block fr fall
      end
