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
   null is 0 (the typechecker keeps ints and references apart).  A cell
   is one block: word 0 is the class id (>= 0) of an object or [arr_tag]
   for an array, and the payload (fields or elements) starts at word 1.
   A field or element read is then one load from the cell, not a load of
   a payload array hung off it.  The payload keeps the old slot count,
   [max n 1], so an array's length is [Array.length cell - 1]. *)
type cell = int array

(* Negative, and not -1: [Instance_test] on an unknown class compares
   the tag against -1, which must match nothing. *)
let arr_tag = -2

let[@inline] make_cell tag slots =
  let c = Array.make (slots + 1) 0 in
  Array.unsafe_set c 0 tag;
  c

(* Activations.  A thread keeps all of its frames in one growable
   [int array]: a frame at offset [fp] is [hdr] header words followed by
   its register window, register [r] at [fp + hdr + r].  The callee of a
   frame starts right after the caller's window, at
   [fp + hdr + nregs], so the frames of a thread are contiguous from the
   entry frame at offset 0 to the running frame, and a thread's array
   holds nothing but ints: a call, a return and a branch write no
   pointer, and a register access is one load off the array once
   [st.stk] and [st.fp] are read.

   The header, by offset from [fp]: *)
let h_blk = 0 (* running block *)
let h_idx = 1 (* next word in it *)
let h_base = 2 (* code address of the running block *)
let h_nregs = 3 (* register window size *)
let h_ret = 4 (* caller register for the result; -1 = none *)
let h_from_meth = 5 (* caller method id; -1 for thread entries *)
let h_from_site = 6 (* call site in the caller; -1 for thread entries *)
let h_fid = 7 (* unique activation id *)
let h_mid = 8 (* method id *)
let h_ver = 9 (* pinned version number of that method (Program.install) *)
let h_link = 10 (* the caller's [fp]; -1 for the thread's entry frame *)
let hdr = 11

(* Registers [0, nregs) are zeroed when the frame is pushed, and frame
   migration (see [try_migrate]) zeroes the ones it adds, so every
   register a method can name (code is verified against its [next_reg])
   reads exactly as in a fresh, exact-size array.  [nregs] is at least
   the running version's [next_reg], so [reg]'s unchecked access stays
   inside the frame's window. *)
let[@inline] reg (stk : int array) fp r = Array.unsafe_get stk (fp + hdr + r)
let[@inline] set_reg (stk : int array) fp r v =
  Array.unsafe_set stk (fp + hdr + r) v

(* [stk] and [fp] are the thread's own only while it is not running: the
   running thread's live values are [st.stk] and [st.fp] ([rotate_thread]
   saves and loads them).  [fp = -1] once the thread is dead. *)
type thread = {
  tid : int;
  mutable stk : int array;
  mutable fp : int;
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
  mutable dyn : (state -> unit) array;
      (* dynamic events; each reads the running frame off the state *)
}

and state = {
  (* The fields every word touches come first, so they share the
     record's first cache lines.

     The running thread's frames and the running frame's offset: every
     register access reads these two.  [stk] changes only on a thread
     switch or when the running thread's array grows. *)
  mutable stk : int array;
  mutable fp : int;
  mutable cycles : int;
  mutable guard_gate : int;
  mutable instructions : int;
  itags : int array;
      (* the i-cache's tag array ([icache]'s own, which [Icache.flush]
         clears in place), or a private one of the same size without an
         i-cache, whose misses charge and count nothing: a probe is one
         load off the state and one off the array *)
  mutable next_timer : int;
  mutable next_adaptive : int;
  heap : cell Ir.Vec.t;
  costs : Costs.t;
  hooks : hooks;
  mutable cur_th : thread; (* [threads.(current)] once a thread exists *)
  (* event counters; [result_of] assembles [counters] from them *)
  mutable n_entries : int;
  mutable n_backedge_yps : int;
  mutable n_entry_yps : int;
  mutable n_checks : int;
  mutable n_samples : int;
  mutable n_switches : int;
  mutable n_instrument_ops : int;
  mutable icycles : int;
      (* cycles charged through [icharge]: instrumentation overhead *)
  mutable switch_bit : bool;
  mutable migration : bool;
      (* frame migration at yieldpoints armed (see [try_migrate]);
         false unless the adaptive loop is on *)
  recorder : flat_recorder option;
      (* flat-slot recording; [None] = legacy event-by-event hooks *)
  mutable engine_fallback : int array;
      (* per-method engine degradation: 0 = compile normally, 1 = fault
         plan says compilation must fail (event not yet recorded), 2 =
         degraded and recorded.  [||] when no plan can fail anything. *)
  mutable next_frame_id : int;
  prog : Program.t;
  heap_addrs : int Ir.Vec.t; (* base data address of each cell *)
  mutable heap_words : int; (* bump allocator for data addresses *)
  globals : int array;
  mutable threads : thread array;
  mutable current : int;
  mutable alive : int;
  mutable timer_period : int;
  mutable rng : int;
  icache : Icache.t option;
  dcache : Icache.t option;
  out : Buffer.t;
  fuel : int;
  mutable main_result : int option;
  (* Robustness layer.  [guard_gate] is the only value the hot path
     compares against: the minimum of the fuel limit, the next fault
     event's trigger cycle and the next wall-clock poll, so runs without
     faults or watchdog pay exactly the old single-compare fuel check. *)
  faults : Fault.plan;
  mutable fault_cursor : int; (* next unapplied event in faults.events *)
  deadline : float; (* absolute Unix time; infinity = no watchdog *)
  deadline_poll : int; (* cycles between wall-clock polls *)
  mutable next_poll : int;
  label : string; (* benchmark/config context for error messages *)
  mutable fallbacks : (string * string) list; (* (method, reason), newest first *)
  (* Adaptive tier (lib/adaptive).  [next_adaptive] = max_int keeps the
     poll a single always-false compare when the loop is off, so the
     byte-identity of non-adaptive runs is untouched. *)
  mutable adaptive_poll : state -> unit;
}

let[@inline] charge st c = st.cycles <- st.cycles + c

(* Instrumentation charge: same cycle accounting as [charge] plus the
   overhead meter the adaptive governor reads. *)
let[@inline] icharge st c =
  st.cycles <- st.cycles + c;
  st.icycles <- st.icycles + c


(* The version of its method that the frame at [fp] runs. *)
let frame_meth st (stk : int array) fp =
  let prog = st.prog in
  let id = stk.(fp + h_mid) in
  let v = stk.(fp + h_ver) in
  if v = prog.Program.version.(id) then prog.Program.methods.(id)
  else Program.version_meth prog id v

(* The method a frame runs, by name: the same for every version. *)
let frame_mref st (stk : int array) fp =
  st.prog.Program.methods.(stk.(fp + h_mid)).Program.mref

let out_of_fuel st =
  let where =
    if Array.length st.threads = 0 || st.fp < 0 then ""
    else
      let stk = st.stk and fp = st.fp in
      Printf.sprintf " in %s (block %d, pc %d)"
        (Lir.string_of_method_ref (frame_mref st stk fp))
        stk.(fp + h_blk)
        (stk.(fp + h_base) + stk.(fp + h_idx))
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
  | Fault.Corrupt_sample_counter d -> st.n_samples <- st.n_samples + d
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

let set_block (stk : int array) fp (m : Program.meth) l =
  stk.(fp + h_blk) <- l;
  stk.(fp + h_idx) <- 0;
  stk.(fp + h_base) <- m.Program.code_addr.(l)

(* ------------------------------------------------------------------ *)
(* Thread arrays                                                       *)
(* ------------------------------------------------------------------ *)

(* A fresh thread's array: room for a dozen typical frames, and small
   enough to be allocated in the minor heap (a run that stays shallow
   leaves no block in the major heap). *)
let initial_stack_words = 256

(* Grow the running thread's array to hold at least [need] words: the
   cold path of a push or a migration.  Frames keep their offsets, so
   [st.fp] and every link stay valid; only [st.stk] and the thread's own
   [stk] are rewritten. *)
let grow_stack st need =
  let old = st.stk in
  let n = Array.length old in
  let stk = Array.make (max need (2 * n)) 0 in
  Array.blit old 0 stk 0 n;
  st.stk <- stk;
  st.cur_th.stk <- stk;
  stk

(* The running thread's array, with at least [need] words. *)
let[@inline] stack_for st need =
  let stk = st.stk in
  if need <= Array.length stk then stk else grow_stack st need

(* Write a frame for a call of [m] (its current version) at [nfp] of
   [stk], which has room for it: registers zeroed, arguments [args]
   in its parameters, header filled.  Does not make it the running
   frame. *)
let init_frame st (stk : int array) nfp (m : Program.meth) nregs ~args
    ~ret_dst ~from_meth ~from_site ~link =
  (* a loop, not [Array.fill]: no C call for a handful of registers *)
  for i = 0 to nregs - 1 do
    Array.unsafe_set stk (nfp + hdr + i) 0
  done;
  let rec fill i = function
    | [] -> ()
    | a :: rest ->
        (match List.nth_opt m.Program.func.Lir.params i with
        | Some r -> stk.(nfp + hdr + r) <- a
        | None -> rt_err "too many arguments to %s"
                    (Lir.string_of_method_ref m.Program.mref));
        fill (i + 1) rest
  in
  fill 0 args;
  let fid = st.next_frame_id in
  st.next_frame_id <- fid + 1;
  stk.(nfp + h_nregs) <- nregs;
  stk.(nfp + h_ret) <- ret_dst;
  stk.(nfp + h_from_meth) <- from_meth;
  stk.(nfp + h_from_site) <- from_site;
  stk.(nfp + h_fid) <- fid;
  stk.(nfp + h_mid) <- m.Program.id;
  stk.(nfp + h_ver) <- st.prog.Program.version.(m.Program.id);
  stk.(nfp + h_link) <- link;
  set_block stk nfp m m.Program.func.Lir.entry;
  st.n_entries <- st.n_entries + 1

(* Push a frame for a call of [m] with argument values [args] onto the
   running thread, above the running frame, and run it. *)
let new_frame st (m : Program.meth) ~args ~ret_dst ~from_meth ~from_site =
  let fp = st.fp in
  let nfp = fp + hdr + st.stk.(fp + h_nregs) in
  let nregs = max m.Program.func.Lir.next_reg 1 in
  let stk = stack_for st (nfp + hdr + nregs) in
  init_frame st stk nfp m nregs ~args ~ret_dst ~from_meth ~from_site ~link:fp;
  st.fp <- nfp

let spawn_thread st (m : Program.meth) args =
  let nregs = max m.Program.func.Lir.next_reg 1 in
  let stk = Array.make (max initial_stack_words (hdr + nregs)) 0 in
  init_frame st stk 0 m nregs ~args ~ret_dst:(-1) ~from_meth:(-1)
    ~from_site:(-1) ~link:(-1);
  let th = { tid = Array.length st.threads; stk; fp = 0 } in
  st.threads <- Array.append st.threads [| th |];
  st.alive <- st.alive + 1;
  if th.tid = st.current then begin
    (* the first thread: it runs first *)
    st.cur_th <- th;
    st.stk <- stk;
    st.fp <- 0
  end;
  th

(* ------------------------------------------------------------------ *)
(* On-stack frame migration (adaptive tier)                            *)
(* ------------------------------------------------------------------ *)

(* Re-pin the running frame, suspended at a yieldpoint, to the method
   version currently installed in the method table.  Without this, a
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
let try_migrate st ni =
  let stk = st.stk and fp = st.fp in
  let prog = st.prog in
  let id = stk.(fp + h_mid) in
  let ver = prog.Program.version.(id) in
  stk.(fp + h_ver) <> ver
  &&
  let om = Program.version_meth prog id stk.(fp + h_ver) in
  let nm = prog.Program.methods.(id) in
  let f = nm.Program.func in
  let l = stk.(fp + h_blk) in
  l < Lir.num_blocks f
  &&
  let nb = Lir.block f l in
  let ob = Lir.block om.Program.func l in
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
             frame's window; widen it in place — it is the running frame,
             so nothing lives above it (fresh registers are always
             written before read — the inliner emits parameter moves
             first) *)
          let need = max f.Lir.next_reg 1 in
          let have = stk.(fp + h_nregs) in
          let stk =
            if have < need then begin
              let stk = stack_for st (fp + hdr + need) in
              Array.fill stk (fp + hdr + have) (need - have) 0;
              stk.(fp + h_nregs) <- need;
              stk
            end
            else stk
          in
          stk.(fp + h_ver) <- ver;
          stk.(fp + h_base) <- nm.Program.code_addr.(l);
          stk.(fp + h_idx) <- p;
          true)
  | _ -> false

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

let alloc st (cell : cell) =
  let slots = Array.length cell - 1 in
  ignore (Ir.Vec.push st.heap_addrs st.heap_words);
  st.heap_words <- st.heap_words + max slots 1;
  Ir.Vec.push st.heap cell + 1

(* Only ever called after [heap_get]/[obj_cell]/[arr_cell] validated
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

(* An operand of the frame at [fp] of [stk]. *)
let eval (stk : int array) fp = function
  | Lir.Reg r -> stk.(fp + hdr + r)
  | Lir.Imm n -> n

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

(* The cell of object [r]; field [off] is its word [off + 1]. *)
let obj_cell st r =
  let c = heap_get st r in
  if Array.unsafe_get c 0 < 0 then rt_err "expected object, found array"
  else c

(* The cell of array [r]; element [i] is its word [i + 1]. *)
let arr_cell st r =
  let c = heap_get st r in
  if Array.unsafe_get c 0 >= 0 then rt_err "expected array, found object"
  else c

(* Switch to the next live thread after the current one, if that is
   another thread: save the running thread's [fp] and load the next
   one's array and [fp] into the state.  A loop, not a local recursive
   function, which would allocate its closure on every timer tick. *)
let rotate_thread st =
  let n = Array.length st.threads in
  if st.alive > 0 then begin
    st.cur_th.fp <- st.fp;
    let nxt = ref ((st.current + 1) mod n) in
    while st.threads.(!nxt).fp < 0 do
      nxt := (!nxt + 1) mod n
    done;
    let nxt = !nxt in
    if nxt <> st.current then begin
      st.n_switches <- st.n_switches + 1;
      st.current <- nxt;
      let th = st.threads.(nxt) in
      st.cur_th <- th;
      st.stk <- th.stk;
      st.fp <- th.fp
    end
  end

(* The legacy hooks' view of the running frame. *)
let make_ctx st =
  let stk = st.stk and fp = st.fp in
  let caller =
    let from = stk.(fp + h_from_meth) in
    if from >= 0 then
      Some (st.prog.Program.methods.(from).Program.mref, stk.(fp + h_from_site))
    else None
  in
  let class_of r =
    if r <= 0 || r > Ir.Vec.length st.heap then None
    else
      let cls = (Ir.Vec.get st.heap (r - 1)).(0) in
      if cls >= 0 then Some st.prog.Program.classes.(cls).Program.cls_name
      else None
  in
  let stack () =
    (* the running frame, then its suspended callers, innermost first *)
    let rec walk g =
      if g < 0 then []
      else (frame_mref st stk g, stk.(g + h_from_site)) :: walk stk.(g + h_link)
    in
    walk fp
  in
  {
    cur = frame_mref st stk fp;
    caller;
    eval = eval stk fp;
    frame_id = stk.(fp + h_fid);
    class_of;
    stack;
  }

(* Flat-path event: charge the pre-resolved cost, then either bump the
   event's counter (logging its first touch) or run its dynamic-key
   closure.  Shared verbatim by both engines. *)
let[@inline] record_flat st (r : flat_recorder) ev =
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
  else (Array.unsafe_get r.dyn ev) st

let run_instrument st op =
  st.n_instrument_ops <- st.n_instrument_ops + 1;
  match st.recorder with
  | Some r when op.Lir.slot >= 0 -> record_flat st r op.Lir.slot
  | _ ->
      icharge st (st.hooks.instr_cost op);
      st.hooks.on_instrument (make_ctx st) op

let do_return st v =
  let fp = st.fp in
  if fp >= 0 then begin
    let stk = st.stk in
    charge st st.costs.Costs.ret;
    let link = stk.(fp + h_link) in
    st.fp <- link;
    if link < 0 then begin
      st.alive <- st.alive - 1;
      if st.cur_th.tid = 0 then st.main_result <- v;
      if st.alive > 0 then rotate_thread st
    end
    else
      match (v, stk.(fp + h_ret)) with
      | Some x, dst when dst >= 0 -> stk.(link + hdr + dst) <- x
      | _ -> ()
  end

let invoke st dst kind target args site =
  charge st
    (st.costs.Costs.call_base + (st.costs.Costs.call_per_arg * List.length args));
  let stk = st.stk and fp = st.fp in
  let vals = List.map (eval stk fp) args in
  let m =
    match kind with
    | Lir.Static -> Program.method_by_ref st.prog target
    | Lir.Virtual -> (
        match vals with
        | recv :: _ -> (
            if recv = 0 then rt_err "null receiver for %s" target.Lir.mname;
            let cls = (heap_get st recv).(0) in
            if cls < 0 then rt_err "virtual call on array";
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
  new_frame st m ~args:vals ~ret_dst:dst_reg ~from_meth:stk.(fp + h_mid)
    ~from_site:site

let intrinsic st dst name args =
  charge st st.costs.Costs.intrinsic;
  let stk = st.stk and fp = st.fp in
  let vals = List.map (eval stk fp) args in
  let set v = match dst with Some r -> stk.(fp + hdr + r) <- v | None -> () in
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
          ignore (spawn_thread st m vals)
      | None -> rt_err "malformed spawn intrinsic %s" name)
  | _ -> rt_err "unknown intrinsic %s/%d" name (List.length vals)

(* Placeholder thread seeding [cur_th] before any thread runs; never
   executed ([spawn_thread] replaces it with the first thread). *)
let dummy_thread = { tid = -1; stk = [||]; fp = -1 }

let init_state ?(fuel = 4_000_000_000) ?(use_icache = false)
    ?(use_dcache = false) ?(costs = Costs.default) ?(timer_period = 100_000)
    ?(seed = 0x5EED) ?(faults = Fault.none) ?(label = "") ?deadline
    ?(deadline_poll = 50_000_000) ?recorder prog hooks =
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
  let icache = if use_icache then Some (Icache.create ()) else None in
  let st =
  {
    stk = [||];
    fp = -1;
    cycles = 0;
    guard_gate = fuel;
    instructions = 0;
    itags =
      (match icache with
      | Some c -> c.Icache.tags
      | None -> Array.make Icache.default_lines (-1));
    next_timer = timer_period;
    next_adaptive = max_int;
    heap = Ir.Vec.create ();
    costs;
    hooks;
    cur_th = dummy_thread;
    n_entries = 0;
    n_backedge_yps = 0;
    n_entry_yps = 0;
    n_checks = 0;
    n_samples = 0;
    n_switches = 0;
    n_instrument_ops = 0;
    icycles = 0;
    switch_bit = false;
    migration = false;
    recorder;
    engine_fallback;
    next_frame_id = 0;
    prog;
    heap_addrs = Ir.Vec.create ();
    (* data addresses: statics first, then the heap *)
    heap_words = prog.Program.n_statics + 64;
    globals = Array.make (max prog.Program.n_statics 1) 0;
    threads = [||];
    current = 0;
    alive = 0;
    timer_period;
    rng = seed;
    icache;
    dcache =
      (if use_dcache then Some (Icache.create ~lines:512 ~line_words:8 ())
       else None);
    out = Buffer.create 256;
    fuel;
    main_result = None;
    faults;
    fault_cursor = 0;
    deadline = (match deadline with Some d -> d | None -> infinity);
    deadline_poll;
    next_poll = deadline_poll;
    label;
    fallbacks = [];
    adaptive_poll = ignore;
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
    counters =
      {
        entries = st.n_entries;
        backedge_yps = st.n_backedge_yps;
        entry_yps = st.n_entry_yps;
        checks = st.n_checks;
        samples = st.n_samples;
        thread_switches = st.n_switches;
        instrument_ops = st.n_instrument_ops;
      };
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
   reference.  It reads and writes the same thread arrays as the
   compiled engine. *)
let step st =
  match st.fp with
  | -1 -> rotate_thread st
  | fp ->
      let stk = st.stk in
      st.instructions <- st.instructions + 1;
      let blk = stk.(fp + h_blk) and idx = stk.(fp + h_idx) in
      (match st.icache with
      | Some ic ->
          if Icache.access ic (stk.(fp + h_base) + idx) then
            charge st st.costs.Costs.icache_miss
      | None -> ());
      let m = frame_meth st stk fp in
      let b = Lir.block m.Program.func blk in
      let set r v = stk.(fp + hdr + r) <- v in
      let eval = eval stk fp in
      if idx < Array.length b.Lir.instrs then begin
        let i = b.Lir.instrs.(idx) in
        stk.(fp + h_idx) <- idx + 1;
        let c = st.costs in
        match i with
        | Lir.Move (r, a) ->
            charge st c.Costs.move;
            set r (eval a)
        | Lir.Unop (r, op, a) ->
            charge st c.Costs.alu;
            let v = eval a in
            set r (match op with Lir.Neg -> -v | Lir.Not -> (if v = 0 then 1 else 0))
        | Lir.Binop (r, op, a, b) ->
            charge st c.Costs.alu;
            set r (exec_binop op (eval a) (eval b))
        | Lir.Get_field (r, o, fld) ->
            charge st c.Costs.mem;
            let obj = eval o in
            let cl = obj_cell st obj (* null check first *) in
            let off = field_off st fld in
            data_access st (cell_addr st obj + off);
            set r cl.(off + 1)
        | Lir.Put_field (o, fld, v) ->
            charge st c.Costs.mem;
            let obj = eval o in
            let cl = obj_cell st obj in
            let off = field_off st fld in
            data_access st (cell_addr st obj + off);
            cl.(off + 1) <- eval v
        | Lir.Get_static (r, fld) ->
            charge st c.Costs.mem;
            let off = static_off st fld in
            data_access st off;
            set r st.globals.(off)
        | Lir.Put_static (fld, v) ->
            charge st c.Costs.mem;
            let off = static_off st fld in
            data_access st off;
            st.globals.(off) <- eval v
        | Lir.New_object (r, cname) ->
            let cid =
              match Hashtbl.find_opt st.prog.Program.class_id_of_name cname with
              | Some id -> id
              | None -> rt_err "unknown class %s" cname
            in
            let n = st.prog.Program.classes.(cid).Program.n_fields in
            charge st (c.Costs.alloc_base + (c.Costs.alloc_per_slot * n));
            set r (alloc st (make_cell cid (max n 1)))
        | Lir.New_array (r, len) ->
            let n = eval len in
            if n < 0 then rt_err "negative array length %d" n;
            charge st (c.Costs.alloc_base + (c.Costs.alloc_per_slot * n));
            set r (alloc st (make_cell arr_tag (max n 1)))
        | Lir.Array_load (r, a, i) ->
            charge st c.Costs.mem;
            let arr = eval a in
            let cl = arr_cell st arr in
            let i = eval i in
            if i < 0 || i >= Array.length cl - 1 then
              rt_err "array index %d out of bounds (%s)" i
                (Lir.string_of_method_ref m.Program.mref);
            data_access st (cell_addr st arr + i);
            set r cl.(i + 1)
        | Lir.Array_store (a, i, v) ->
            charge st c.Costs.mem;
            let arr = eval a in
            let cl = arr_cell st arr in
            let i = eval i in
            if i < 0 || i >= Array.length cl - 1 then
              rt_err "array index %d out of bounds (%s)" i
                (Lir.string_of_method_ref m.Program.mref);
            data_access st (cell_addr st arr + i);
            cl.(i + 1) <- eval v
        | Lir.Array_length (r, a) ->
            charge st c.Costs.mem;
            set r (Array.length (arr_cell st (eval a)) - 1)
        | Lir.Instance_test (r, o, cname) ->
            charge st (c.Costs.mem + c.Costs.alu);
            let v = eval o in
            set r
              (if v <= 0 || v > Ir.Vec.length st.heap then 0
               else
                 let cls = (Ir.Vec.get st.heap (v - 1)).(0) in
                 if
                   cls >= 0
                   && String.equal
                        st.prog.Program.classes.(cls).Program.cls_name cname
                 then 1
                 else 0)
        | Lir.Call { dst; kind; target; args; site } ->
            invoke st dst kind target args site
        | Lir.Intrinsic { dst; name; args } -> intrinsic st dst name args
        | Lir.Yieldpoint k ->
            (* plain charge: yieldpoints are safepoint machinery the
               uninstrumented build pays too, not a sheddable
               instrumentation cost, so they stay out of the governor's
               overhead meter *)
            charge st c.Costs.yieldpoint;
            (match k with
            | Lir.Yp_entry -> st.n_entry_yps <- st.n_entry_yps + 1
            | Lir.Yp_backedge -> st.n_backedge_yps <- st.n_backedge_yps + 1);
            adaptive_check st;
            (* the frame's idx is already the resume index after this
               yieldpoint; a successful migration rewrites it for the new
               version *)
            if st.migration then ignore (try_migrate st (idx + 1) : bool);
            if st.switch_bit then begin
              st.switch_bit <- false;
              rotate_thread st
            end
        | Lir.Instrument op -> run_instrument st op
        | Lir.Guarded_instrument op ->
            (* No-Duplication: the check guards this single op *)
            st.n_checks <- st.n_checks + 1;
            icharge st c.Costs.check;
            if st.hooks.fire st.cur_th.tid then begin
              st.n_samples <- st.n_samples + 1;
              run_instrument st op
            end
      end
      else begin
        (* terminator *)
        timer_check st;
        let c = st.costs in
        match b.Lir.term with
        | Lir.Goto l ->
            charge st c.Costs.branch;
            set_block stk fp m l
        | Lir.If { cond; if_true; if_false } ->
            charge st c.Costs.branch;
            set_block stk fp m (if eval cond <> 0 then if_true else if_false)
        | Lir.Switch { scrut; cases; default } ->
            charge st c.Costs.switch;
            let v = eval scrut in
            let target =
              match List.assoc_opt v cases with Some l -> l | None -> default
            in
            set_block stk fp m target
        | Lir.Return v -> do_return st (Option.map eval v)
        | Lir.Check { on_sample; fall } ->
            st.n_checks <- st.n_checks + 1;
            icharge st c.Costs.check;
            if st.hooks.fire st.cur_th.tid then begin
              st.n_samples <- st.n_samples + 1;
              icharge st c.Costs.sample_jump;
              set_block stk fp m on_sample
            end
            else set_block stk fp m fall
      end
