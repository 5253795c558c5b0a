(* Trace-recording JIT tier (ROADMAP item 2).

   The sampling apparatus already finds hot loops for free: the backedge
   yieldpoints the engine compiles are exactly a trace JIT's hot-loop
   detector.  When a backedge's per-run counter crosses
   [state.trace_threshold], the loop is flipped into RECORD mode: one
   iteration is executed through the reference stepper ([Machine.step],
   so recording is observationally part of normal execution) while its
   linear instruction sequence is captured, then compiled into a single
   fused closure chain — pc chaining constant-folded away, straight-line
   words as the engine's own bare steps ([Straight]), the remaining
   cycle costs and flat-slot recorder charges pre-summed per segment
   and applied at segment granularity, guards at every conditional that
   side-exit back to the per-method closure code at the precise
   pc/register state.

   Cycle-accounting invariant.  The entry precheck admits an iteration
   only when its worst-case cost fits below
   min(guard_gate, next_timer - 1, next_adaptive - 1), with the switch
   bit clear and the anchor method still the installed version: the
   fused runs' argument (DESIGN.md §5, "Compiling straight-line
   words"), widened to the timer and adaptive safepoints a trace spans.
   Straight-line words contribute [Straight.bound].  When the precheck
   fails the engine falls back to the per-method closure code.

   Side exits.  Guards sit at segment boundaries, after the pending
   segment sum (which includes the guarded terminator's own charge) has
   been applied — exactly the charges the reference would have applied
   executing the same words — so a side exit needs no rollback: it
   writes the precise target position with [set_block] and returns to
   the dispatcher.  Run-aborting errors raised mid-segment (division by
   zero, bounds, null) escape before the segment sum is applied, which
   is unobservable: the exception carries the same message at the same
   execution point, and no cycle count survives a failed run.

   Calls.  Traces record through calls: the recording stepper descends
   into the callee, and replay mirrors the engine's call/return
   machinery exactly — frame take from the thread's stack, argument fill,
   activation-id minting, parent push/pop — with the static accounting
   (call/return charges, entries counter, i-cache accesses) batched
   into the pending segment sum.  Virtual calls guard the receiver's
   class and side-exit to the call word itself on a mismatch, so the
   per-method code re-executes the full dispatch with its exact error
   semantics.

   Traces are per-run values (they capture the run's recorder, hooks
   and cache configuration), anchored at engine-minted site ids and
   stored in the state's [trace] slot; compiled code stays shareable
   across domains.  Because a trace may inline any method's code, an
   adaptive hot-swap of any method invalidates every installed trace
   ([invalidate]); sites then re-record against the current world.
   Frames pinned to a retired version are rejected by the precheck's
   version guard, which also keeps the migration elision sound
   ([Machine.try_migrate] no-ops when the frame already runs the
   installed version). *)

module Lir = Ir.Lir
open Machine

(* ------------------------------------------------------------------ *)
(* Event taxonomy (modeled on lambdachine's Stats.h)                   *)
(* ------------------------------------------------------------------ *)

let ev_record = 0 (* recordings started *)
let ev_abort_trace = 1 (* recordings or compilations abandoned *)
let ev_compile = 2 (* traces compiled and installed *)
let ev_trace = 3 (* entries into compiled-trace execution *)
let ev_exit = 4 (* guard side exits back to per-method code *)
let ev_invalidate = 5 (* traces invalidated by adaptive hot-swap *)
let n_events = 6

let event_names =
  [|
    "EV_RECORD";
    "EV_ABORT_TRACE";
    "EV_COMPILE";
    "EV_TRACE";
    "EV_EXIT";
    "EV_INVALIDATE";
  |]

(* Process-wide diagnostic counters (never simulated observables):
   cross-domain, surviving every run in the process, read by
   [isf --stats].  Bumped only at rare events — entries, exits,
   record/compile/invalidate — never per executed iteration. *)
let event_counters = Array.init n_events (fun _ -> Atomic.make 0)
let bump ev = Atomic.incr event_counters.(ev)

let stats () =
  Array.to_list
    (Array.mapi (fun i n -> (n, Atomic.get event_counters.(i))) event_names)

let reset_stats () = Array.iter (fun c -> Atomic.set c 0) event_counters

(* ------------------------------------------------------------------ *)
(* Per-run trace state                                                 *)
(* ------------------------------------------------------------------ *)

type itrace = {
  t_anchor_m : Program.meth; (* method version the trace was recorded in *)
  t_anchor_id : int;
  t_ablk : int; (* anchor position: block, resume index past the *)
  t_ni : int; (* backedge yieldpoint — where every chain rejoins *)
  mutable t_valid : bool; (* cleared by [invalidate] *)
  t_mc : int ref;
      (* static worst-case cost of one iteration along ANY path through
         the trace tree; raised before each branch chain is spliced so
         the entry precheck stays sound *)
  mutable t_fits : state -> bool; (* the entry precheck *)
  mutable t_head : state -> unit; (* head of the primary closure chain *)
  mutable t_loop : state -> unit;
      (* the shared tail of every chain: re-run the precheck and loop
         back through [t_head], or restore the anchor position and fall
         out to the engine's compiled continuation *)
  mutable t_nchains : int; (* chains compiled into this tree *)
  mutable t_ent : int; (* entries, for the retirement heuristic *)
  mutable t_words : int; (* instructions retired inside the tree *)
  mutable t_rsteps : int; (* reference steps spent recording branches *)
}

(* A guard's runtime state: where a divergence gets hot, a branch trace
   is recorded from the exit point back to the anchor and spliced in as
   a patch, keyed by the divergence target (switch target block,
   virtual receiver class) — trace trees, after TraceMonkey and
   lambdachine.  [g_prefix] is the static worst-case cost from trace
   entry to this guard, [g_depth] the static call depth (how many
   frames up the anchor frame sits at this point in the chain). *)
type guard = {
  g_root : itrace;
  g_depth : int;
  g_prefix : int;
  mutable g_hits : int; (* unpatched failures since last attempt *)
  mutable g_attempts : int;
  mutable g_patches : (int * (state -> unit)) list;
}

type site = {
  mutable s_hits : int; (* backedge executions since last reset *)
  mutable s_attempts : int; (* recording attempts spent *)
  mutable s_dead : bool; (* never record or run here again *)
  mutable s_tr : itrace option;
}

type tstate = {
  mutable sites : site array; (* indexed by engine-minted site id *)
  mutable installed : itrace list; (* for invalidation *)
  mutable exited : bool;
      (* communication channel between a running trace and [backedge]:
         set by side exits, left false when the trace leaves at the
         anchor (where the caller's own continuation resumes) *)
  mutable waste : int;
      (* reference steps spent on recordings that aborted — trace-
         hostile programs (deep recursion, allocation in loop bodies)
         abort most recordings, and each abort costs its steps at
         reference speed; past [waste_budget] the run stops recording *)
}

type trace_slot += Tier of tstate

let fresh_site () = { s_hits = 0; s_attempts = 0; s_dead = false; s_tr = None }

let tstate_of st =
  match st.trace with
  | Tier ts -> ts
  | _ ->
      let ts =
        {
          sites = Array.init 64 (fun _ -> fresh_site ());
          installed = [];
          exited = false;
          waste = 0;
        }
      in
      st.trace <- Tier ts;
      ts

let site_of ts id =
  let n = Array.length ts.sites in
  if id >= n then
    ts.sites <-
      Array.init
        (max (id + 1) (2 * n))
        (fun i -> if i < n then ts.sites.(i) else fresh_site ());
  ts.sites.(id)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

type item =
  | It_op of Program.meth * int * int * Lir.instr
      (* method, block, index, the word itself *)
  | It_term of Program.meth * int * Lir.terminator * int * bool
      (* method, block, terminator, taken successor block, check fired *)
  | It_call of {
      ic_caller : Program.meth; (* method version issuing the call *)
      ic_blk : int; (* position of the call word *)
      ic_idx : int;
      ic_ins : Lir.instr; (* the [Lir.Call] word itself *)
      ic_callee : Program.meth; (* method version the call dispatched to *)
      ic_recv_cls : int; (* receiver class id; -1 for static calls *)
    }
  | It_ret of Program.meth * int * Lir.terminator
      (* returning method version, block of the return, the terminator *)

(* Trace-unfriendly words abort recording *before* they execute, so the
   abort leaves the machine at a clean position for the per-method code
   to resume: dynamically-sized allocations (unbounded charge defeats
   the precheck's static cost bound) and intrinsics that reschedule or
   spawn.  Calls are traced through (the recording stepper descends
   into the callee naturally); only depth past [max_depth] aborts. *)
let untraceable = function
  | Lir.New_array _ -> true
  | Lir.Intrinsic _ as ins -> not (Straight.is_straight ins)
  | _ -> false

exception Abort

let max_trace_len = 2048
let max_attempts = 3
let max_depth = 16

let waste_budget = 4096
(* per-run cap on cumulative aborted-recording steps: successful
   recordings pay for themselves (their steps are real forward progress
   that also yields a chain), but an abort-heavy program would
   otherwise re-pay reference-speed recording attempts on every run *)

(* Execute one loop iteration from the anchor (block [ablk], index [ni],
   just past the backedge yieldpoint) back to the anchor, through
   [fuel_check]+[Machine.step] — the reference driver loop verbatim, so
   the recorded execution is bit-identical to not recording at all.
   Captures each word's position before stepping it and each
   terminator's taken successor after.  Calls are traced through: the
   stepper descends into the callee and a call item captures the
   dispatched method version (plus the receiver's class for virtual
   calls, guarded at replay); a return item marks the pop.  A method
   stack mirrors the frame stack so any mid-recording hot-swap or
   migration of any frame in the trace aborts.  Aborts (keeping
   whatever was legitimately executed) on trace-unfriendly words,
   thread switches, returns below the anchor, depth past [max_depth],
   and over-long traces.  Returns (loop_closed, items in execution
   order, any_step_executed).

   The recording need not start at the anchor: a branch recording
   starts at a hot guard's side-exit position — possibly in a callee
   frame above the anchor — and runs until control rejoins the anchor
   position in the anchor frame itself.  [anchor] is that frame;
   [require_step] is false for branches, whose exit point may already
   *be* the anchor position (the branch chain is then just the
   loopback).  [max_len] bounds the recording: aborted recordings still
   cost their reference-speed steps, so callers on speculative paths
   (branch extension) pass a tighter bound than the primary recording.
   Returns (loop_closed, items in execution order, steps_executed). *)
let record_core st ~anchor ~ablk ~ni ~require_step ~max_len =
  bump ev_record;
  let th = st.cur_th in
  (* Method stack from the current frame down to the anchor, current
     first; None when the anchor is not on this thread's chain. *)
  let mstack0 =
    let rec collect i =
      if i < 0 then None
      else
        let f = th.stack.(i) in
        if f == anchor then Some [ f.Machine.m ]
        else Option.map (fun l -> f.Machine.m :: l) (collect (i - 1))
    in
    collect th.sp
  in
  let mstack = ref (match mstack0 with Some l -> l | None -> [ anchor.m ]) in
  let base_depth = th.sp - (List.length !mstack - 1) in
  let items = ref [] in
  let n = ref 0 in
  let closed = ref false in
  (try
     if mstack0 = None then raise Abort;
     while not !closed do
       if st.threads.(st.current) != th then raise Abort;
       if th.sp < 0 then raise Abort;
       let f = th.stack.(th.sp) in
       let b = Lir.block f.m.Program.func f.blk in
       let depth = th.sp - base_depth in
       if depth < 0 || depth <> List.length !mstack - 1 then raise Abort;
       (match !mstack with
       | m :: _ when f.m == m -> ()
       | _ -> raise Abort);
       if depth = 0 && f != anchor then raise Abort;
       if
         depth = 0
         && (!n > 0 || not require_step)
         && f.blk = ablk && f.idx = ni
       then closed := true
       else if !n >= max_len then raise Abort
       else if f.idx < Array.length b.Lir.instrs then begin
         let ins = b.Lir.instrs.(f.idx) in
         match ins with
         | Lir.Call { kind; args; _ } ->
             if depth + 1 >= max_depth then raise Abort;
             let pb = f.blk and pi = f.idx in
             let cm = f.m in
             let recv =
               match (kind, args) with
               | Lir.Virtual, a :: _ -> eval f a
               | _ -> 0
             in
             fuel_check st;
             Machine.step st;
             if th.sp < 0 then raise Abort;
             let callee = th.stack.(th.sp) in
             let rcls =
               match kind with
               | Lir.Static -> -1
               | Lir.Virtual -> (
                   match heap_get st recv with
                   | Obj o -> o.cls
                   | Arr _ -> raise Abort)
             in
             items :=
               It_call
                 {
                   ic_caller = cm;
                   ic_blk = pb;
                   ic_idx = pi;
                   ic_ins = ins;
                   ic_callee = callee.m;
                   ic_recv_cls = rcls;
                 }
               :: !items;
             mstack := callee.m :: !mstack;
             incr n
         | _ ->
             if untraceable ins then raise Abort;
             let pb = f.blk and pi = f.idx in
             let m = f.m in
             fuel_check st;
             Machine.step st;
             items := It_op (m, pb, pi, ins) :: !items;
             incr n
       end
       else begin
         let pb = f.blk in
         let t = b.Lir.term in
         match t with
         | Lir.Return _ ->
             if depth = 0 then raise Abort;
             let m = f.m in
             fuel_check st;
             Machine.step st;
             items := It_ret (m, pb, t) :: !items;
             mstack := List.tl !mstack;
             incr n
         | _ ->
             let m = f.m in
             fuel_check st;
             let s0 = st.counters.samples in
             Machine.step st;
             items := It_term (m, pb, t, f.blk, st.counters.samples > s0) :: !items;
             incr n
       end
     done
   with Abort -> ());
  if not !closed then bump ev_abort_trace;
  (!closed, List.rev !items, !n)

(* Record one primary iteration: position the anchor frame just past
   the backedge yieldpoint and run back around to it. *)
let record st ni =
  let fr = st.cur_fr in
  let ablk = fr.blk in
  fr.idx <- ni;
  record_core st ~anchor:fr ~ablk ~ni ~require_step:true
    ~max_len:max_trace_len

(* ------------------------------------------------------------------ *)
(* Trace compilation                                                   *)
(* ------------------------------------------------------------------ *)

(* Branch traces: a guard that keeps failing marks a hot alternate path
   through the loop.  After [branch_threshold] unpatched failures the
   exit point is re-recorded back to the anchor and the resulting chain
   spliced into the guard, keyed by the divergence target — so loops
   whose bodies branch data-dependently still run fused on every
   iteration instead of side-exiting almost every entry. *)
let max_patches = 4 (* per guard: switch targets / receiver classes *)
let max_branch_attempts = 4
let max_chains = 64 (* chains per trace tree *)
let max_branch_len = 512 (* tighter than the primary: aborts cost steps *)
let record_budget = 16384
(* total reference steps a root may spend on branch recordings,
   successful or aborted — speculative recording runs at reference
   speed, so unbounded retries on branch-hostile loops (deep recursion,
   allocation on the divergent path) would eat the trace's own win *)

let retire_words_per_entry = 12 (* minimum average fused work per entry *)
let retire_window = 128 (* entries between retirement checks (power of 2) *)

(* The anchor frame at a guard [d] call levels deep: the current frame
   at depth 0, else the (d-1)-th parent. *)
let anchor_up st d =
  if d = 0 then Some st.cur_fr
  else
    let th = st.cur_th in
    if d <= th.sp then Some th.stack.(th.sp - d) else None

(* Build a trace-tree root: the entry precheck (reading the tree-wide
   worst-case path bound, raised as branch chains are spliced) and the
   shared loopback every chain tails into — re-run the precheck and go
   around through the primary chain, or restore the anchor frame's
   position fields (call items update them mid-trace) and fall out to
   the engine's compiled continuation. *)
let mk_root (am : Program.meth) ~ablk ~ni =
  let aid = am.Program.id in
  let a_base = am.Program.code_addr.(ablk) in
  let root =
    {
      t_anchor_m = am;
      t_anchor_id = aid;
      t_ablk = ablk;
      t_ni = ni;
      t_valid = true;
      t_mc = ref 0;
      t_fits = (fun _ -> false);
      t_head = (fun _ -> ());
      t_loop = (fun _ -> ());
      t_nchains = 1;
      t_ent = 0;
      t_words = 0;
      t_rsteps = 0;
    }
  in
  let mcr = root.t_mc in
  let fits st =
    let lim = st.guard_gate in
    let lim =
      let t = st.next_timer - 1 in
      if t < lim then t else lim
    in
    let lim =
      let a = st.next_adaptive - 1 in
      if a < lim then a else lim
    in
    st.cycles + !mcr <= lim
    && (not st.switch_bit)
    && root.t_valid
    && st.prog.Program.methods.(root.t_anchor_id) == root.t_anchor_m
  in
  let loop st =
    if fits st then root.t_head st
    else begin
      let fr = st.cur_fr in
      fr.blk <- ablk;
      fr.idx <- ni;
      fr.base_addr <- a_base
    end
  in
  root.t_fits <- fits;
  root.t_loop <- loop;
  root

(* Compile a recorded chain into a fused closure sequence tailing into
   the root's loopback.  The chain is built from fragments.
   Straight-line words are the engine's own steps ([Straight.compile],
   charge inline); every other static charge — terminators, calls,
   returns, yieldpoints, instrumentation — and the instruction counts
   and counter bumps accumulate into one pending sum flushed at segment
   boundaries (guards and dynamic-fire points).  I-cache
   accesses keep their per-word order at statically-known addresses
   when the i-cache is on, and are omitted entirely (bench
   configuration) when it is off.

   [base_cost] is the static worst-case cost from trace entry to this
   chain's start (0 for the primary chain, the splicing guard's prefix
   for a branch chain); [base_depth] the call depth of its first word
   relative to the anchor.  Returns the chain head and its own
   worst-case cost. *)
let rec compile_chain st (ts : tstate) (root : itrace) ~base_cost ~base_depth
    items =
  let costs = st.costs in
  let prog = st.prog in
  let icache_on = st.icache <> None in
  let dc = st.dcache <> None in
  let cc_miss = costs.Costs.icache_miss in
  (* pending static accounting for the current straight-line segment *)
  let p_cyc = ref 0
  and p_icyc = ref 0
  and p_instr = ref 0
  and p_iops = ref 0
  and p_checks = ref 0
  and p_byps = ref 0
  and p_eyps = ref 0
  and p_entries = ref 0 in
  (* static worst-case cost of this chain, for the precheck bound *)
  let maxc = ref 0 in
  (* call depth of the word being emitted, relative to the anchor *)
  let depth = ref base_depth in
  let frags : ((state -> unit) -> state -> unit) list ref = ref [] in
  let add f = frags := f :: !frags in
  let flush () =
    let cyc = !p_cyc
    and icyc = !p_icyc
    and ninstr = !p_instr
    and iops = !p_iops
    and checks = !p_checks
    and byps = !p_byps
    and eyps = !p_eyps
    and entries = !p_entries in
    if cyc <> 0 || ninstr <> 0 || iops <> 0 || checks <> 0 || byps <> 0
       || eyps <> 0 || entries <> 0
    then begin
      p_cyc := 0;
      p_icyc := 0;
      p_instr := 0;
      p_iops := 0;
      p_checks := 0;
      p_byps := 0;
      p_eyps := 0;
      p_entries := 0;
      add (fun next st ->
          st.cycles <- st.cycles + cyc;
          if icyc <> 0 then st.icycles <- st.icycles + icyc;
          st.instructions <- st.instructions + ninstr;
          let c = st.counters in
          if iops <> 0 then c.instrument_ops <- c.instrument_ops + iops;
          if checks <> 0 then c.checks <- c.checks + checks;
          if byps <> 0 then c.backedge_yps <- c.backedge_yps + byps;
          if eyps <> 0 then c.entry_yps <- c.entry_yps + eyps;
          if entries <> 0 then c.entries <- c.entries + entries;
          next st)
    end
  in
  let stat c =
    p_cyc := !p_cyc + c;
    maxc := !maxc + c
  in
  let istat c =
    stat c;
    p_icyc := !p_icyc + c
  in
  (* per-word accounting: instruction count (batched) + ordered i-cache
     access at the word's statically-known address *)
  let word addr =
    incr p_instr;
    if icache_on then begin
      maxc := !maxc + cc_miss;
      add (fun next -> Straight.probed ~addr next)
    end
  in
  (* a fresh guard for the word being emitted: prefix = worst-case cost
     from trace entry to here (charges for the word itself are stat'ed
     and flushed before its guard frag is added) *)
  let mk_guard () =
    {
      g_root = root;
      g_depth = !depth;
      g_prefix = base_cost + !maxc;
      g_hits = 0;
      g_attempts = 0;
      g_patches = [];
    }
  in
  (* the flat-recorder bump of [Machine.record_flat], minus the cycle
     charge (batched when unconditional, dynamic when guarded) *)
  let flat_bump (r : flat_recorder) e st =
    let c = Array.unsafe_get r.ev_counter e in
    if c >= 0 then begin
      let v = Array.unsafe_get r.counts c in
      Array.unsafe_set r.counts c (v + 1);
      if v = 0 then begin
        r.touch.(r.n_touch) <- c;
        r.n_touch <- r.n_touch + 1
      end
    end
    else (Array.unsafe_get r.dyn e) st st.cur_th st.cur_fr
  in
  let emit_instrument op =
    incr p_iops;
    match st.recorder with
    | Some r when op.Lir.slot >= 0 ->
        let e = op.Lir.slot in
        (* event costs are stable per id (adaptive minting only grows
           the tables), so the charge batches statically *)
        istat r.ev_cost.(e);
        add (fun next st ->
            flat_bump r e st;
            next st)
    | _ ->
        (* legacy event-by-event path: every in-tree hook's [instr_cost]
           is pure per op, so the charge batches; the hook call itself
           stays dynamic with a fresh position-insensitive ctx *)
        istat (st.hooks.instr_cost op);
        let h = st.hooks.on_instrument in
        add (fun next st ->
            h (make_ctx st st.cur_th st.cur_fr) op;
            next st)
  in
  let emit_guarded op =
    incr p_checks;
    istat costs.Costs.check;
    flush ();
    let fire = st.hooks.fire in
    let fired_body =
      match st.recorder with
      | Some r when op.Lir.slot >= 0 ->
          let e = op.Lir.slot in
          let cost = r.ev_cost.(e) in
          maxc := !maxc + cost;
          fun st ->
            st.counters.instrument_ops <- st.counters.instrument_ops + 1;
            st.cycles <- st.cycles + cost;
            st.icycles <- st.icycles + cost;
            flat_bump r e st
      | _ ->
          let cost = st.hooks.instr_cost op in
          maxc := !maxc + cost;
          let h = st.hooks.on_instrument in
          fun st ->
            st.counters.instrument_ops <- st.counters.instrument_ops + 1;
            st.cycles <- st.cycles + cost;
            st.icycles <- st.icycles + cost;
            h (make_ctx st st.cur_th st.cur_fr) op
    in
    add (fun next st ->
        if fire st.cur_th.tid then begin
          st.counters.samples <- st.counters.samples + 1;
          fired_body st
        end;
        next st)
  in
  let emit_instr (m : Program.meth) ins =
    match ins with
    | Lir.Yieldpoint k ->
        (* the precheck guarantees no timer tick, fault, adaptive poll
           or pending switch anywhere in the iteration, and the version
           guard keeps [try_migrate] a no-op, so the yieldpoint reduces
           to its charge and counter bump — both batched *)
        stat costs.Costs.yieldpoint;
        (match k with
        | Lir.Yp_backedge -> incr p_byps
        | Lir.Yp_entry -> incr p_eyps)
    | Lir.Instrument op -> emit_instrument op
    | Lir.Guarded_instrument op -> emit_guarded op
    | _ when Straight.is_straight ins ->
        maxc := !maxc + Straight.bound costs prog ~dcache:dc ins;
        add (fun next ->
            Straight.compile costs prog m ~next ~ni:(-1) ~naddr:(-1) ins)
    | _ ->
        (* calls are recorded as [It_call] items; [record] aborts before
           New_array and the yielding/spawning intrinsics *)
        rt_err "untraceable word recorded in %s"
          (Lir.string_of_method_ref m.Program.mref)
  in
  let emit_term t taken fired =
    match t with
    | Lir.Goto _ -> stat costs.Costs.branch
    | Lir.If { cond; if_true; if_false } -> (
        stat costs.Costs.branch;
        match cond with
        | Lir.Imm _ -> () (* direction is static: recording took the only path *)
        | Lir.Reg rc ->
            if if_true = if_false then ()
            else begin
              flush ();
              let g = mk_guard () in
              if taken = if_true then
                add (fun next st ->
                    if st.cur_fr.regs.(rc) <> 0 then next st
                    else guard_fail st ts g ~key:if_false ~blk:if_false ~idx:0)
              else
                add (fun next st ->
                    if st.cur_fr.regs.(rc) = 0 then next st
                    else guard_fail st ts g ~key:if_true ~blk:if_true ~idx:0)
            end)
    | Lir.Switch { scrut; cases; default } -> (
        stat costs.Costs.switch;
        match scrut with
        | Lir.Imm _ -> ()
        | Lir.Reg rs ->
            flush ();
            let tbl = Hashtbl.create (max 4 (2 * List.length cases)) in
            List.iter
              (fun (v, l) -> if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v l)
              cases;
            let g = mk_guard () in
            add (fun next st ->
                let v = st.cur_fr.regs.(rs) in
                let t =
                  match Hashtbl.find_opt tbl v with
                  | Some l -> l
                  | None -> default
                in
                if t = taken then next st
                else guard_fail st ts g ~key:t ~blk:t ~idx:0))
    | Lir.Check { on_sample; fall } ->
        (* the timer consultation the reference performs before a
           terminator is precheck-elided; the check sequence itself is
           charged here and the sampler consulted live — on a divergence
           from the recorded direction the fired path's effects are
           applied and the trace side-exits at the actual target *)
        incr p_checks;
        istat costs.Costs.check;
        maxc := !maxc + costs.Costs.sample_jump;
        flush ();
        let fire = st.hooks.fire in
        let cc_sample = costs.Costs.sample_jump in
        let g = mk_guard () in
        if fired then
          add (fun next st ->
              if fire st.cur_th.tid then begin
                st.counters.samples <- st.counters.samples + 1;
                st.cycles <- st.cycles + cc_sample;
                st.icycles <- st.icycles + cc_sample;
                next st
              end
              else guard_fail st ts g ~key:fall ~blk:fall ~idx:0)
        else
          add (fun next st ->
              if fire st.cur_th.tid then begin
                st.counters.samples <- st.counters.samples + 1;
                st.cycles <- st.cycles + cc_sample;
                st.icycles <- st.icycles + cc_sample;
                guard_fail st ts g ~key:on_sample ~blk:on_sample ~idx:0
              end
              else next st)
    | Lir.Return _ ->
        (* returns are recorded as [It_ret] items; this cannot be here *)
        rt_err "corrupt trace: return recorded as a plain terminator"
  in
  (* Mirror of the engine's call compilation ([Engine.compile_instr],
     [Lir.Call] case): the static accounting — call charge, instruction
     count, i-cache access at the call word, entries counter — batches
     into the pending segment; the dynamic part evaluates the arguments,
     takes the thread's next stack slot stamped with the callee's entry
     block, mints the activation id and pushes.  The caller's position fields are
     restored to the resume point before the push (the trace maintains
     them lazily), so a side exit anywhere inside the callee returns
     through per-method code that resumes the caller correctly.  Virtual
     calls guard the receiver's class: a different class would dispatch
     elsewhere, so the guard side-exits to the call word itself — before
     any of its accounting — and the per-method code re-executes the
     full dispatch, including its null/array/missing-method errors.
     Static calls need no guard: any hot-swap invalidates every trace
     ([invalidate]), so the recorded callee version is the installed one
     for as long as the trace runs. *)
  let emit_call ~ic_caller ~ic_blk ~ic_idx ~ic_ins ~ic_callee ~ic_recv_cls =
    match ic_ins with
    | Lir.Call { dst; kind; target = _; args; site } ->
        let nargs = List.length args in
        let aev = Array.of_list (List.map Straight.cop args) in
        (match kind with
        | Lir.Virtual ->
            flush ();
            let e0 =
              match args with a :: _ -> Straight.cop a | [] -> fun _ -> 0
            in
            let g = mk_guard () in
            add (fun next st ->
                let recv = e0 st.cur_fr in
                let cls =
                  if recv > 0 && recv <= Ir.Vec.length st.heap then
                    match Ir.Vec.unsafe_get st.heap (recv - 1) with
                    | Obj o -> o.cls
                    | Arr _ -> -1
                  else -1
                in
                if cls = ic_recv_cls then next st
                else
                  (* keyed by the observed class, this grows into a
                     polymorphic inline cache: each hot receiver class
                     gets its own branch chain whose first item is the
                     same call with its own class guard.  Invalid
                     receivers (cls = -1) exit to the call word, whose
                     per-method dispatch raises the real error. *)
                  guard_fail st ts g ~key:cls ~blk:ic_blk ~idx:ic_idx)
        | Lir.Static -> ());
        word (ic_caller.Program.code_addr.(ic_blk) + ic_idx);
        stat (costs.Costs.call_base + (costs.Costs.call_per_arg * nargs));
        incr p_entries;
        let c_base = ic_caller.Program.code_addr.(ic_blk) in
        let c_ni = ic_idx + 1 in
        let cf = ic_callee.Program.func in
        let entry = cf.Lir.entry in
        let e_base = ic_callee.Program.code_addr.(entry) in
        let nregs = max cf.Lir.next_reg 1 in
        let params = Array.of_list cf.Lir.params in
        let ret_dst = match dst with Some r -> r | None -> -1 in
        let from_meth = ic_caller.Program.id in
        add (fun next st ->
            let fr = st.cur_fr in
            fr.blk <- ic_blk;
            fr.idx <- c_ni;
            fr.base_addr <- c_base;
            let th = st.cur_th in
            let callee = take_frame th ic_callee nregs in
            callee.blk <- entry;
            callee.idx <- 0;
            callee.base_addr <- e_base;
            let regs = callee.regs in
            for k = 0 to nargs - 1 do
              regs.(params.(k)) <- aev.(k) fr
            done;
            let fid = st.next_frame_id in
            st.next_frame_id <- fid + 1;
            callee.ret_dst <- ret_dst;
            callee.from_meth <- from_meth;
            callee.from_site <- site;
            callee.fid <- fid;
            th.sp <- th.sp + 1;
            st.cur_fr <- callee;
            next st)
    | _ -> rt_err "corrupt trace: call item without a call word"
  in
  (* Mirror of the engine's return compilation: the charge batches; the
     dynamic part pops the frame exactly like [Machine.do_return] —
     evaluate the operand in the dying frame, write the caller's return
     register, recycle the frame.  A trace never returns below its
     anchor ([record] aborts there), so the thread-death arm cannot be
     reached. *)
  let emit_ret t =
    stat costs.Costs.ret;
    match t with
    | Lir.Return None ->
        add (fun next st ->
            let th = st.cur_th in
            if th.sp <= 0 then rt_err "corrupt trace: return below the anchor";
            th.sp <- th.sp - 1;
            st.cur_fr <- th.stack.(th.sp);
            next st)
    | Lir.Return (Some op) ->
        let e = Straight.cop op in
        add (fun next st ->
            let th = st.cur_th in
            let dead = st.cur_fr in
            let x = e dead in
            if th.sp <= 0 then rt_err "corrupt trace: return below the anchor";
            th.sp <- th.sp - 1;
            let parent = th.stack.(th.sp) in
            if dead.ret_dst >= 0 then parent.regs.(dead.ret_dst) <- x;
            st.cur_fr <- parent;
            next st)
    | _ -> rt_err "corrupt trace: ret item without a return terminator"
  in
  List.iter
    (fun item ->
      match item with
      | It_op (m, pb, pi, ins) ->
          word (m.Program.code_addr.(pb) + pi);
          emit_instr m ins
      | It_term (m, pb, t, taken, fired) ->
          word
            (m.Program.code_addr.(pb)
            + Array.length (Lir.block m.Program.func pb).Lir.instrs);
          emit_term t taken fired
      | It_call { ic_caller; ic_blk; ic_idx; ic_ins; ic_callee; ic_recv_cls }
        ->
          emit_call ~ic_caller ~ic_blk ~ic_idx ~ic_ins ~ic_callee ~ic_recv_cls;
          incr depth
      | It_ret (m, pb, t) ->
          word
            (m.Program.code_addr.(pb)
            + Array.length (Lir.block m.Program.func pb).Lir.instrs);
          emit_ret t;
          decr depth)
    items;
  flush ();
  let chain = List.fold_left (fun next f -> f next) root.t_loop !frags in
  (chain, !maxc)

(* Runtime guard failure: run the patch for this divergence key if one
   is spliced in; otherwise write back the reference-accurate exit
   position, maybe grow the tree from here, and side-exit. *)
and guard_fail st (ts : tstate) (g : guard) ~key ~blk ~idx =
  match List.assoc_opt key g.g_patches with
  | Some k -> k st
  | None ->
      let fr = st.cur_fr in
      set_block fr blk;
      if idx > 0 then fr.idx <- idx;
      extend st ts g ~key;
      bump ev_exit;
      ts.exited <- true

(* A hot unpatched exit: record from the exit position (real execution,
   through the reference stepper) until control rejoins the anchor,
   compile the branch chain, raise the tree's worst-case path bound,
   and only then splice the patch — so the entry precheck has always
   admitted the worst-case path through every visible patch.  A
   recording that aborts (or raises the program's own error, for
   invalid-receiver exits) just leaves the machine wherever real
   execution took it; the side exit then proceeds normally. *)
and extend st (ts : tstate) (g : guard) ~key =
  let root = g.g_root in
  g.g_hits <- g.g_hits + 1;
  let bt = if st.trace_threshold < 32 then st.trace_threshold else 32 in
  if
    g.g_hits >= bt
    && g.g_attempts < max_branch_attempts
    && List.length g.g_patches < max_patches
    && root.t_nchains < max_chains
    && root.t_rsteps < record_budget
    && ts.waste < waste_budget
    && root.t_valid
  then begin
    g.g_hits <- 0;
    g.g_attempts <- g.g_attempts + 1;
    match anchor_up st g.g_depth with
    | None -> ()
    | Some anchor ->
        let closed, items, nsteps =
          record_core st ~anchor ~ablk:root.t_ablk ~ni:root.t_ni
            ~require_step:false ~max_len:max_branch_len
        in
        root.t_rsteps <- root.t_rsteps + nsteps;
        if not closed then ts.waste <- ts.waste + nsteps;
        if closed then (
          match
            compile_chain st ts root ~base_cost:g.g_prefix
              ~base_depth:g.g_depth items
          with
          | chain, mc ->
              root.t_mc := max !(root.t_mc) (g.g_prefix + mc);
              root.t_nchains <- root.t_nchains + 1;
              g.g_patches <- (key, chain) :: g.g_patches;
              bump ev_compile
          | exception _ -> bump ev_abort_trace)
  end

(* ------------------------------------------------------------------ *)
(* The backedge gate                                                   *)
(* ------------------------------------------------------------------ *)

(* Called from the engine's compiled backedge yieldpoint (after its
   charge, counter bump, adaptive/migration/switch handling all found
   nothing to do), with [ni] the resume index just past the yieldpoint.
   Returns true when execution advanced here — a compiled trace ran, or
   a recording stepped the machine — in which case the caller returns
   to the dispatcher, whose resume at the written-back frame position
   performs the standard per-word preamble.  Returns false when nothing
   ran (cold site, failed precheck, loop-around ending exactly at the
   anchor), in which case the caller continues into its own fused
   continuation for the word at the anchor. *)
let backedge st site ni =
  let ts = tstate_of st in
  let s = site_of ts site in
  if s.s_dead then false
  else
    match s.s_tr with
    | Some tr ->
        if not tr.t_valid then begin
          (* invalidated by a hot-swap: drop the compiled code and let
             the site re-record against the current world (the trace may
             have inlined any method's code, so invalidation is global —
             this site's own loop is usually still hot and well-formed) *)
          s.s_tr <- None;
          s.s_hits <- 0;
          s.s_attempts <- 0;
          false
        end
        else if tr.t_fits st then begin
          bump ev_trace;
          ts.exited <- false;
          let i0 = st.instructions in
          tr.t_head st;
          (* Retirement: a tree whose entries fuse only a handful of
             words each — early guard exits on almost every entry, no
             viable branch chains — costs more in entry/exit overhead
             than it saves.  Fused-work-per-entry is measured directly
             (segment flushes keep [st.instructions] current at every
             guard); trees below the bar after a settling window are
             retired and the site goes dead, so the loop runs at full
             engine speed again. *)
          tr.t_ent <- tr.t_ent + 1;
          tr.t_words <- tr.t_words + st.instructions - i0;
          if
            tr.t_ent land (retire_window - 1) = 0
            && tr.t_words / tr.t_ent < retire_words_per_entry
          then begin
            tr.t_valid <- false;
            s.s_tr <- None;
            s.s_dead <- true
          end;
          ts.exited
        end
        else false
    | None ->
        s.s_hits <- s.s_hits + 1;
        if s.s_hits < st.trace_threshold || ts.waste >= waste_budget then false
        else begin
          s.s_hits <- 0;
          s.s_attempts <- s.s_attempts + 1;
          if s.s_attempts >= max_attempts then s.s_dead <- true;
          let am = st.cur_fr.m in
          let ablk = st.cur_fr.blk in
          let closed, items, nsteps = record st ni in
          if not closed then ts.waste <- ts.waste + nsteps;
          (if closed then
             let root = mk_root am ~ablk ~ni in
             match compile_chain st ts root ~base_cost:0 ~base_depth:0 items with
             | chain, mc ->
                 root.t_mc := mc;
                 root.t_head <- chain;
                 bump ev_compile;
                 s.s_tr <- Some root;
                 s.s_dead <- false;
                 ts.installed <- root :: ts.installed
             | exception _ -> bump ev_abort_trace);
          nsteps > 0
        end

(* ------------------------------------------------------------------ *)
(* Invalidation                                                        *)
(* ------------------------------------------------------------------ *)

(* Adaptive hot-swap of any method: every installed trace may have
   inlined the swapped method's code (traces record through calls), so
   invalidation is global — cheap, prompt, and observable in the event
   counters.  The backedge gate then drops each dead trace and lets its
   site re-record against the current world; sites anchored in the
   swapped method itself are orphaned (the engine mints fresh sites
   when it compiles the new version). *)
let invalidate st _id =
  match st.trace with
  | Tier ts ->
      List.iter
        (fun tr ->
          if tr.t_valid then begin
            tr.t_valid <- false;
            bump ev_invalidate
          end)
        ts.installed;
      ts.installed <- []
  | _ -> ()

let tier_on st = st.trace_threshold < max_int
