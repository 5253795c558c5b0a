(* Closure-compiled execution engine.

   Each method is translated once into flat arrays of preallocated
   closures: operands are resolved to register indices or immediates,
   field/static offsets, class ids, call targets, switch tables and the
   cost table's cycle charges are looked up at compile time.  Closures
   are unary ([state -> unit], the cheapest indirect call OCaml native
   code can make — no caml_apply arity check); the running thread and
   frame travel in the [cur_th]/[cur_fr] scratch fields of the state,
   written by the dispatcher.  Every word compiles to one closure that
   does the word's work, then the dispatcher's per-word preamble for
   the next word, then tail-calls it: one compiled form, the per-word
   chain.  Straight-line words come from [Straight]; DESIGN.md §5
   ("Compiling straight-line words") gives why the chain is
   bit-identical to the reference [Machine.step], which
   test/test_engine.ml checks differentially.  This module compiles
   everything else (calls, yielding intrinsics, yieldpoints,
   instrumentation, terminators) and runs the dispatch loop.

   Unresolvable references (an unknown field, class or call target) are
   compiled into closures that reproduce the reference interpreter's
   error — same exception, same message, raised after the same observable
   effects — rather than failing at compile time, because the reference
   only faults when the instruction is actually executed.

   Compiled code is cached on the program itself (Program.engine_cache)
   behind a per-method Sync.Memo, so the domain-parallel harness compiles
   each method exactly once no matter how many domains run it. *)

module Lir = Ir.Lir
open Machine

type k = state -> unit

(* A compiled method: [cm.(l)] has one entry per instruction of block
   [l] plus a final entry for the terminator; [cm.(l).(i)] executes the
   block from instruction [i] to the next suspension point, with
   per-instruction accounting folded in, and chains through
   intra-method control flow by tail call.  No wrapper record around a
   block's chain: that would be one more dependent load on every call
   entry, return and dispatch. *)
type cmeth = k array array

(* Per-method call record, one per method id: everything
   [Machine.new_frame] derives from the callee's current version,
   precomputed, plus that version's compiled code and entry word.  Call
   sites capture the record itself (a static site) or a class-indexed
   table of records (a virtual site), and the adaptive tier's [hot_swap]
   rewrites the record in place, so no site ever holds a stale version.
   [entry] is [no_entry] until [fetch] compiles the current version; a
   call that reads the sentinel takes its site's generic path, which
   compiles.  Fields written after creation are only ever set to fully
   built values, and OCaml 5 keeps racy reads of them memory-safe: a
   domain that reads a stale sentinel just takes the generic path. *)
type crec = {
  mutable entry : k; (* [code.(entry_blk).(0)], or [no_entry] *)
  mutable meth : Program.meth; (* the current version *)
  mutable code : cmeth; (* its compiled code, or [empty_cmeth] *)
  mutable nregs : int;
  mutable np : int;
      (* dense parameter count: [np] when the parameters are registers
         [0, np) (as [Ir.Build.create] makes them), else -1 *)
  mutable entry_blk : int;
  mutable entry_base : int;
  mutable entry_line : int;
  mutable params : int array;
  name : string;
  rid : int;
}

type cprog = {
  memo : (int, cmeth) Sync.Memo.t;
      (* compiles each method's link-time version once across domains *)
  recs : crec array; (* by method id *)
  c_costs : Costs.t;
      (* cost table the closures were specialized against: every cycle
         charge is baked in as an immediate, so a state running a
         different table (e.g. the hardware-count-register ablation)
         forces a recompile rather than a wrong charge *)
  mutable retired : (Program.meth * cmeth) list;
      (* compiled code of hot-swapped-out method versions, keyed by the
         exact [meth] record frames pin ([==]): activations alive across
         an adaptive swap finish on the version they started in.  Only
         the adaptive tier appends here (single VM, at a safepoint), so
         no synchronization is needed. *)
}

type Program.cache_slot += Compiled of cprog

let empty_cmeth : cmeth = [||]

(* the sentinel entry word; never run, only compared against *)
let no_entry : k = fun _ -> invalid_arg "Engine: no compiled entry"

let dense_params (f : Lir.func) nregs =
  let rec count i = function
    | [] -> i
    | p :: ps -> if p = i then count (i + 1) ps else -1
  in
  let np = count 0 f.Lir.params in
  if np <= nregs then np else -1

(* Point [r] at version [m], with no compiled code yet. *)
let set_rec (r : crec) (m : Program.meth) =
  let f = m.Program.func in
  let nregs = max f.Lir.next_reg 1 in
  let blk = f.Lir.entry in
  let base = m.Program.code_addr.(blk) in
  r.entry <- no_entry;
  r.code <- empty_cmeth;
  r.meth <- m;
  r.nregs <- nregs;
  r.np <- dense_params f nregs;
  r.entry_blk <- blk;
  r.entry_base <- base;
  r.entry_line <- Straight.line_of base;
  r.params <- Array.of_list f.Lir.params

let rec_of_meth (m : Program.meth) =
  let r =
    {
      entry = no_entry;
      meth = m;
      code = empty_cmeth;
      nregs = 0;
      np = -1;
      entry_blk = 0;
      entry_base = 0;
      entry_line = 0;
      params = [||];
      name = Lir.string_of_method_ref m.Program.mref;
      rid = m.Program.id;
    }
  in
  set_rec r m;
  r

(* The record a virtual site maps a class without the method to: its
   [np] matches no arity, so the site takes its generic path, which
   raises the reference's error. *)
let no_rec = { (rec_of_meth dummy_meth) with np = -2 }

let[@inline] install (r : crec) (cm : cmeth) =
  r.code <- cm;
  r.entry <- cm.(r.entry_blk).(0)

(* ------------------------------------------------------------------ *)
(* Hot helpers                                                         *)
(* ------------------------------------------------------------------ *)

(* The charges, the fuel and adaptive gates and the heap lookup are
   [Machine]'s own: the build compiles without -opaque, so they inline
   across the module boundary (DESIGN.md §5, "Word preamble and frame
   layout").  Only the engine's own fast paths live here. *)

(* The timer or the adaptive poll is due: the reference step consults
   both before every terminator ([Machine.timer_check]). *)
let[@inline] due st =
  st.cycles >= st.next_timer || st.cycles >= st.next_adaptive

(* Cold path of a terminator step, out of line so the hot path (neither
   the timer nor the adaptive poll due) makes no call but the tail call
   of the next word: the poll, then the step's untimed [body]. *)
let[@inline never] timer_then st (body : k) =
  timer_check st;
  body st

let[@inline] fallback_state st id =
  if Array.length st.engine_fallback = 0 then 0
  else Array.unsafe_get st.engine_fallback id

(* [Machine.record_flat] for event [ev] whose counter is [c >= 0]; a
   dynamic event ([c < 0]) runs its handler out of line *)
let[@inline] record_flat st (r : flat_recorder) ev c =
  icharge st (Array.unsafe_get r.ev_cost ev);
  let v = Array.unsafe_get r.counts c in
  Array.unsafe_set r.counts c (v + 1);
  if v = 0 then begin
    r.touch.(r.n_touch) <- c;
    r.n_touch <- r.n_touch + 1
  end

(* ------------------------------------------------------------------ *)
(* Instruction compilation                                             *)
(* ------------------------------------------------------------------ *)

(* Cold paths of the yieldpoint and instrumentation words, out of line
   and reached by tail call so the words' hot paths keep no stack
   frame; each ends in the word's own continuation. *)
let[@inline never] yield_slow st ~nxt ~ni ~line ~probe =
  adaptive_check st;
  if st.migration && try_migrate st st.cur_fr ni then begin
    (* frame re-pinned to the freshly-installed version: return to the
       dispatcher, which re-fetches its compiled code and resumes at the
       migrated index (same fuel/preamble sequence the reference
       performs) *)
    if st.switch_bit then begin
      st.switch_bit <- false;
      rotate_thread st
    end
  end
  else if st.switch_bit then begin
    st.cur_fr.idx <- ni;
    st.switch_bit <- false;
    rotate_thread st
  end
  else Straight.advance st ~next:nxt ~ni ~line ~probe

(* a dynamic flat event, or the legacy hooks *)
let[@inline never] instrument_slow st (op : Lir.instrument_op) ~nxt ~ni ~line
    ~probe =
  (match st.recorder with
  | Some r when op.Lir.slot >= 0 ->
      let ev = op.Lir.slot in
      icharge st (Array.unsafe_get r.ev_cost ev);
      (Array.unsafe_get r.dyn ev) st st.cur_th st.cur_fr
  | _ ->
      icharge st (st.hooks.instr_cost op);
      st.hooks.on_instrument (make_ctx st st.cur_th st.cur_fr) op);
  Straight.advance st ~next:nxt ~ni ~line ~probe

(* Take the stack slot above the caller for a callee of record [r],
   registers zeroed: [Machine.take_frame] plus the entry position.  The
   generic call path's frame; the call fast path ([enter]) builds the
   same frame without its cold cases. *)
let alloc_frame th (r : crec) =
  let sp = th.sp + 1 in
  let stack = th.stack in
  let callee =
    if sp < Array.length stack then Array.unsafe_get stack sp
    else stack_slot th sp
  in
  if callee.m != r.meth then callee.m <- r.meth;
  let n = r.nregs in
  if Array.length callee.regs < n then callee.regs <- Array.make n 0
  else begin
    let regs = callee.regs in
    for i = 0 to n - 1 do
      Array.unsafe_set regs i 0
    done
  end;
  callee.nregs <- n;
  callee.blk <- r.entry_blk;
  callee.idx <- 0;
  callee.base_addr <- r.entry_base;
  callee

let[@inline] push_frame st th callee ~ret_dst ~from_meth ~from_site =
  let fid = st.next_frame_id in
  st.next_frame_id <- fid + 1;
  callee.ret_dst <- ret_dst;
  callee.from_meth <- from_meth;
  callee.from_site <- from_site;
  callee.fid <- fid;
  st.counters.entries <- st.counters.entries + 1;
  th.sp <- th.sp + 1

(* A call's arguments, resolved when the chain is built: argument [k] is
   register [areg.(k)] of the caller when that is >= 0, else the
   immediate [aimm.(k)].  No operand closure, so reading one is a load,
   not an indirect call. *)
let arg_regs args =
  Array.of_list (List.map (function Lir.Reg r -> r | Lir.Imm _ -> -1) args)

let arg_imms args =
  Array.of_list (List.map (function Lir.Reg _ -> 0 | Lir.Imm n -> n) args)

let[@inline] arg ~areg ~aimm (fr : frame) k =
  let s = Array.unsafe_get areg k in
  if s >= 0 then fr.regs.(s) else Array.unsafe_get aimm k

(* The call fast path, after the site's charge: callee [r], caller [fr].
   When the arity is [r]'s dense parameter count, the stack slot above
   the caller exists with enough registers, [r] has a compiled entry and
   the method is not degraded, it builds the frame [take_frame] and the
   argument fill would (parameters [0, nargs) written, the rest of
   [0, nregs) zeroed), pushes it and tail-calls the entry word at its
   precomputed line.  It writes nothing before that decision; every
   other case tail-calls the site's [generic] path, which is the whole
   call again from the same point. *)
let[@inline] enter st (fr : frame) (r : crec) ~nargs ~areg ~aimm ~ret_dst
    ~from_meth ~site (generic : k) =
  let th = st.cur_th in
  let sp = th.sp + 1 in
  let stack = th.stack in
  let entry = r.entry in
  if
    nargs = r.np
    && sp < Array.length stack
    && entry != no_entry
    && fallback_state st r.rid = 0
  then begin
    let callee = Array.unsafe_get stack sp in
    let n = r.nregs in
    let regs = callee.regs in
    if Array.length regs < n then generic st
    else begin
      for k = 0 to nargs - 1 do
        Array.unsafe_set regs k (arg ~areg ~aimm fr k)
      done;
      for i = nargs to n - 1 do
        Array.unsafe_set regs i 0
      done;
      callee.nregs <- n;
      callee.blk <- r.entry_blk;
      callee.idx <- 0;
      callee.base_addr <- r.entry_base;
      push_frame st th callee ~ret_dst ~from_meth ~from_site:site;
      (* the two pointer stores ([caml_modify]) last, so that little is
         live across them *)
      let m = r.meth in
      if callee.m != m then callee.m <- m;
      st.cur_fr <- callee;
      Straight.advance st ~next:entry ~ni:0 ~line:r.entry_line ~probe:true
    end
  end
  else generic st

(* [jump ~baddr ~blines ~codes st fr l] transfers control to block [l]
   of the same method and keeps executing: it writes the frame's int
   position fields (no pointer, so no write barrier), performs the
   dispatcher's step preamble for the first word of the target block
   (its i-cache line [blines.(l)] computed when the method was
   compiled) and tail-calls into its compiled chain, so intra-method
   control flow never returns to the dispatch loop.  [codes] is
   dereferenced at run time, by which point every block of the method
   is compiled. *)
let[@inline] jump ~baddr ~blines ~codes st (fr : frame) l =
  fr.blk <- l;
  fr.idx <- 0;
  fr.base_addr <- Array.unsafe_get baddr l;
  let next = Array.unsafe_get (Array.unsafe_get codes l) 0 in
  Straight.advance st ~next ~ni:0 ~line:(Array.unsafe_get blines l)
    ~probe:true

(* The untimed bodies of the frequent terminators: Goto (and a branch
   or switch on an immediate), If on a register, and the sampling
   check.  Closed, so a step that inlines one reads its own captures. *)
let[@inline] goto_body ~baddr ~blines ~codes st c l =
  charge st c;
  jump ~baddr ~blines ~codes st st.cur_fr l

let[@inline] if_body ~baddr ~blines ~codes st c rc if_true if_false =
  charge st c;
  let fr = st.cur_fr in
  jump ~baddr ~blines ~codes st fr
    (if fr.regs.(rc) <> 0 then if_true else if_false)

let[@inline] check_body ~baddr ~blines ~codes st cc_check cc_sample on_sample
    fall =
  st.counters.checks <- st.counters.checks + 1;
  icharge st cc_check;
  if st.hooks.fire st.cur_th.tid then begin
    st.counters.samples <- st.counters.samples + 1;
    icharge st cc_sample;
    jump ~baddr ~blines ~codes st st.cur_fr on_sample
  end
  else jump ~baddr ~blines ~codes st st.cur_fr fall

(* Compile one instruction into its complete dispatch step.  [nxt] is the
   already-compiled remainder of the block, starting at word [ni] on
   i-cache line [line]: the step performs the dispatcher's preamble for
   that word ([Straight.advance], its probe skipped when [probe] is
   false) and tail-calls [nxt] (one indirect call per word).
   Instructions that can suspend or reschedule the current frame
   (calls, intrinsics that yield or spawn) first store the resume index
   [ni] — exactly where the reference leaves idx — and return to the
   dispatcher when done.  Yieldpoints only do so when a switch actually
   happens. *)
let rec compile_instr (cp : cprog) (prog : Program.t) (m : Program.meth)
    ~(nxt : k) ~(ni : int) ~line ~probe (ins : Lir.instr) : k =
  let costs = cp.c_costs in
  match ins with
  | _ when Straight.is_straight ins ->
      Straight.compile costs prog m ~next:nxt ~ni ~line ~probe ins
  | Lir.New_array (r, len) ->
      let el = Straight.cop len in
      let cc_base = costs.Costs.alloc_base in
      let cc_slot = costs.Costs.alloc_per_slot in
      fun st ->
        let fr = st.cur_fr in
        let n = el fr in
        if n < 0 then rt_err "negative array length %d" n;
        charge st (cc_base + (cc_slot * n));
        fr.regs.(r) <- alloc st (make_cell arr_tag (max n 1));
        Straight.advance st ~next:nxt ~ni ~line ~probe
  | Lir.Call { dst; kind; target; args; site } -> (
      let nargs = List.length args in
      let areg = arg_regs args in
      let aimm = arg_imms args in
      let ret_dst = match dst with Some r -> r | None -> -1 in
      let from_meth = m.Program.id in
      let cc_call =
        costs.Costs.call_base + (costs.Costs.call_per_arg * nargs)
      in
      let slow st =
        let fr = st.cur_fr in
        fr.idx <- ni;
        invoke st st.cur_th fr dst kind target args site
      in
      (* the call from just after its charge, every case: frame, push,
         then the callee's code or, for a degraded callee, the
         dispatcher (which interprets the pushed frame) *)
      let generic_push st (r : crec) callee =
        push_frame st st.cur_th callee ~ret_dst ~from_meth ~from_site:site;
        let cm = fetch_or_fallback st cp prog r.rid in
        if cm == empty_cmeth then ()
        else begin
          (* chain straight into the callee: the same preamble the
             dispatcher would run for its first instruction *)
          st.cur_fr <- callee;
          Straight.advance st ~next:cm.(r.entry_blk).(0) ~ni:0
            ~line:r.entry_line ~probe:true
        end
      in
      match kind with
      | Lir.Static -> (
          match
            Hashtbl.find_opt prog.Program.static_method
              (Lir.string_of_method_ref target)
          with
          | Some id ->
              (* arity and name are version-invariant, so the error
                 branch can specialize against the link-time version;
                 the call reads the record at run time because the
                 adaptive tier hot-swaps versions into it *)
              let r = cp.recs.(id) in
              if nargs > Array.length r.params then
                fun st ->
                  st.cur_fr.idx <- ni;
                  charge st cc_call;
                  rt_err "too many arguments to %s" r.name
              else
                let[@inline never] generic st =
                  let fr = st.cur_fr in
                  let callee = alloc_frame st.cur_th r in
                  let regs = callee.regs in
                  let params = r.params in
                  for k = 0 to nargs - 1 do
                    regs.(params.(k)) <- arg ~areg ~aimm fr k
                  done;
                  generic_push st r callee
                in
                fun st ->
                  let fr = st.cur_fr in
                  fr.idx <- ni;
                  charge st cc_call;
                  enter st fr r ~nargs ~areg ~aimm ~ret_dst ~from_meth ~site
                    generic
          | None ->
              (* unresolved: the shared slow path raises the identical
                 Link_error at the identical execution point *)
              slow)
      | Lir.Virtual -> (
          if nargs = 0 then slow
          else
            let mname = target.Lir.mname in
            (* per-site dispatch table, indexed by class id *)
            let vtab =
              Array.map
                (fun (c : Program.cls) ->
                  match Hashtbl.find_opt c.Program.vtable mname with
                  | Some id -> cp.recs.(id)
                  | None -> no_rec)
                prog.Program.classes
            in
            (* the reference's checks in its order; every argument is a
               register or an immediate, so reading the receiver first
               and the rest after dispatch reads the same values *)
            let[@inline never] generic st =
              let fr = st.cur_fr in
              let recv = arg ~areg ~aimm fr 0 in
              if recv = 0 then rt_err "null receiver for %s" mname;
              let cls = (heap_get st recv).(0) in
              if cls < 0 then rt_err "virtual call on array";
              let r = vtab.(cls) in
              if r == no_rec then
                rt_err "class %s has no method %s"
                  st.prog.Program.classes.(cls).Program.cls_name mname;
              let params = r.params in
              if nargs > Array.length params then
                rt_err "too many arguments to %s" r.name;
              let callee = alloc_frame st.cur_th r in
              let regs = callee.regs in
              regs.(params.(0)) <- recv;
              for k = 1 to nargs - 1 do
                regs.(params.(k)) <- arg ~areg ~aimm fr k
              done;
              generic_push st r callee
            in
            let rr = areg.(0) and imm0 = aimm.(0) in
            fun st ->
              let fr = st.cur_fr in
              fr.idx <- ni;
              charge st cc_call;
              (* a live object's class picks the record; a null, dangling
                 or array receiver goes generic *)
              let recv = if rr >= 0 then fr.regs.(rr) else imm0 in
              let heap = st.heap in
              if recv > 0 && recv <= heap.Ir.Vec.len then begin
                let cls =
                  Array.unsafe_get
                    (Array.unsafe_get heap.Ir.Vec.data (recv - 1))
                    0
                in
                if cls >= 0 then
                  enter st fr vtab.(cls) ~nargs ~areg ~aimm ~ret_dst
                    ~from_meth ~site generic
                else generic st
              end
              else generic st))
  | Lir.Intrinsic { dst; name; args } -> (
      match (name, args) with
      | "yield", [] ->
          let cc_intr = costs.Costs.intrinsic in
          fun st ->
            st.cur_fr.idx <- ni;
            charge st cc_intr;
            rotate_thread st
      | _ ->
          (* spawn/malformed/unknown: rare, shared slow path keeps both
             the late link-error behaviour and the thread bookkeeping *)
          fun st ->
            let fr = st.cur_fr in
            fr.idx <- ni;
            intrinsic st st.cur_th fr dst name args)
  | Lir.Yieldpoint yp -> (
      (* conditional break: only an actual thread switch returns to the
         dispatcher; the common case (no adaptive poll due, no migration
         armed, no switch pending) keeps going without a call.  The
         counter bump is inlined per kind (an indirect call otherwise). *)
      let cc_yp = costs.Costs.yieldpoint in
      let[@inline] quiet st =
        st.cycles < st.next_adaptive && (not st.migration)
        && not st.switch_bit
      in
      match yp with
      | Lir.Yp_entry ->
          fun st ->
            charge st cc_yp;
            st.counters.entry_yps <- st.counters.entry_yps + 1;
            if quiet st then Straight.advance st ~next:nxt ~ni ~line ~probe
            else yield_slow st ~nxt ~ni ~line ~probe
      | Lir.Yp_backedge ->
          fun st ->
            charge st cc_yp;
            st.counters.backedge_yps <- st.counters.backedge_yps + 1;
            if quiet st then Straight.advance st ~next:nxt ~ni ~line ~probe
            else yield_slow st ~nxt ~ni ~line ~probe)
  | Lir.Instrument op -> (
      (* Flat-slot recording compiles to a direct buffer bump (the
         [record_flat] body): no ctx allocation, no hook-name match, no
         string building.  [op.slot] is read at run time, not captured,
         because the compiled method cache can outlive slot assignment;
         assignment is deterministic per program (Profiles.Slots). *)
      fun st ->
        st.counters.instrument_ops <- st.counters.instrument_ops + 1;
        match st.recorder with
        | Some r when op.Lir.slot >= 0 ->
            let ev = op.Lir.slot in
            let c = Array.unsafe_get r.ev_counter ev in
            if c >= 0 then begin
              record_flat st r ev c;
              Straight.advance st ~next:nxt ~ni ~line ~probe
            end
            else instrument_slow st op ~nxt ~ni ~line ~probe
        | None | Some _ -> instrument_slow st op ~nxt ~ni ~line ~probe)
  | Lir.Guarded_instrument op ->
      let cc_check = costs.Costs.check in
      fun st ->
        st.counters.checks <- st.counters.checks + 1;
        icharge st cc_check;
        if st.hooks.fire st.cur_th.tid then begin
          st.counters.samples <- st.counters.samples + 1;
          run_instrument st st.cur_th st.cur_fr op
        end;
        Straight.advance st ~next:nxt ~ni ~line ~probe
  | _ -> assert false (* straight-line words take the first arm *)

(* ------------------------------------------------------------------ *)
(* Terminator and block compilation                                    *)
(* ------------------------------------------------------------------ *)

(* Each terminator step first tests whether the timer or the adaptive
   poll is due ([due]); if so it tail-calls [timer_then] on an untimed
   closure of its own body, built beside it, else it runs that body
   inline.  A block's last chain entry, [ks.(len)], is this step itself.
   Branch bodies are the closed functions above, so that inlined they
   read the step's own captures.  Returns pop the frame exactly like
   [Machine.do_return] and chain into the caller's resume point; only a
   thread death falls back to the dispatcher. *)
and compile_term (cp : cprog) (prog : Program.t) ~(baddr : int array)
    ~(blines : int array) ~(codes : k array array) (t : Lir.terminator) : k =
  let costs = cp.c_costs in
  let cc_branch = costs.Costs.branch in
  (* a branch whose target is known when the chain is built *)
  let goto c l =
    let body st = goto_body ~baddr ~blines ~codes st c l in
    fun st ->
      if due st then timer_then st body
      else goto_body ~baddr ~blines ~codes st c l
  in
  (* pop the returning frame; resume the caller's compiled code, or hand
     a dead thread or a degraded caller back to the dispatcher *)
  let[@inline] resume st parent (cm : cmeth) =
    st.cur_fr <- parent;
    let i = parent.idx in
    Straight.advance_addr st ~next:cm.(parent.blk).(i) ~ni:i
      ~naddr:(parent.base_addr + i)
  in
  let[@inline never] resume_slow st parent =
    let cm = fetch_for_frame st cp prog parent in
    if cm == empty_cmeth then () else resume st parent cm
  in
  let recs = cp.recs in
  let return st th =
    let sp = th.sp - 1 in
    th.sp <- sp;
    if sp < 0 then begin
      st.alive <- st.alive - 1;
      if st.alive > 0 then rotate_thread st
    end
    else begin
      let parent = Array.unsafe_get th.stack sp in
      let m = parent.m in
      let id = m.Program.id in
      (* [fetch_for_frame]'s common case inline, the rest by tail call:
         the caller runs its method's current, compiled version, which
         its call record holds ([hot_swap] keeps [r.meth] equal to
         [prog.methods.(id)]) *)
      let r = recs.(id) in
      let cm = r.code in
      if m == r.meth && cm != empty_cmeth && fallback_state st id = 0 then
        resume st parent cm
      else resume_slow st parent
    end
  in
  match t with
  | Lir.Goto l -> goto cc_branch l
  | Lir.If { cond = Lir.Imm n; if_true; if_false } ->
      goto cc_branch (if n <> 0 then if_true else if_false)
  | Lir.If { cond = Lir.Reg rc; if_true; if_false } ->
      let body st =
        if_body ~baddr ~blines ~codes st cc_branch rc if_true if_false
      in
      fun st ->
        if due st then timer_then st body
        else if_body ~baddr ~blines ~codes st cc_branch rc if_true if_false
  | Lir.Switch { scrut; cases; default } -> (
      let cc_switch = costs.Costs.switch in
      let tbl = Hashtbl.create (max 4 (2 * List.length cases)) in
      (* first binding wins, like List.assoc_opt in the reference *)
      List.iter
        (fun (v, l) -> if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v l)
        cases;
      let target v =
        match Hashtbl.find_opt tbl v with Some l -> l | None -> default
      in
      match scrut with
      | Lir.Imm n -> goto cc_switch (target n)
      | Lir.Reg rs ->
          let body st =
            charge st cc_switch;
            let fr = st.cur_fr in
            jump ~baddr ~blines ~codes st fr (target fr.regs.(rs))
          in
          fun st -> if due st then timer_then st body else body st)
  | Lir.Return None ->
      let cc_ret = costs.Costs.ret in
      let body st =
        let th = st.cur_th in
        charge st cc_ret;
        if th.sp = 0 && th.tid = 0 then st.main_result <- None;
        return st th
      in
      fun st -> if due st then timer_then st body else body st
  | Lir.Return (Some op) -> (
      let cc_ret = costs.Costs.ret in
      let finish st x =
        let th = st.cur_th in
        charge st cc_ret;
        if th.sp = 0 then begin
          if th.tid = 0 then st.main_result <- Some x
        end
        else begin
          let dst = st.cur_fr.ret_dst in
          if dst >= 0 then
            (Array.unsafe_get th.stack (th.sp - 1)).regs.(dst) <- x
        end;
        return st th
      in
      match op with
      | Lir.Reg r ->
          let body st = finish st st.cur_fr.regs.(r) in
          fun st -> if due st then timer_then st body else body st
      | Lir.Imm n ->
          let body st = finish st n in
          fun st -> if due st then timer_then st body else body st)
  | Lir.Check { on_sample; fall } ->
      let cc_check = costs.Costs.check in
      let cc_sample = costs.Costs.sample_jump in
      let body st =
        check_body ~baddr ~blines ~codes st cc_check cc_sample on_sample fall
      in
      fun st ->
        if due st then timer_then st body
        else
          check_body ~baddr ~blines ~codes st cc_check cc_sample on_sample fall

and compile_method (cp : cprog) (prog : Program.t) (m : Program.meth) : cmeth =
  let f = m.Program.func in
  let n = Lir.num_blocks f in
  let baddr = m.Program.code_addr in
  let blines = Array.map Straight.line_of baddr in
  (* per-block chains, filled below; [jump] dereferences [codes] at run
     time *)
  let codes : k array array = Array.make n [||] in
  let compile_block l =
    let b = Lir.block f l in
    let instrs = b.Lir.instrs in
    let len = Array.length instrs in
    let base = baddr.(l) in
    (* ks.(i) runs the block from instruction i; ks.(len) is the
       terminator step, which consults the timer and the adaptive poll
       like the reference.  Built back to front so each closure
       captures its already-final successor: straight-line execution is
       a chain of tail calls with the per-word fuel/instruction/i-cache
       accounting the dispatcher would have performed folded in.  Word
       [ni] sits at [base + ni], right after word [i], so when both
       share a line its probe is elided (DESIGN.md §5). *)
    let ks =
      Array.make (len + 1)
        (compile_term cp prog ~baddr ~blines ~codes b.Lir.term)
    in
    for i = len - 1 downto 0 do
      let ni = i + 1 in
      let line = Straight.line_of (base + ni) in
      let probe = line <> Straight.line_of (base + i) in
      ks.(i) <- compile_instr cp prog m ~nxt:ks.(ni) ~ni ~line ~probe instrs.(i)
    done;
    codes.(l) <- ks
  in
  for l = 0 to n - 1 do
    compile_block l
  done;
  codes

(* Resolved compiled code for method [id]: one load from its call
   record once the method has been touched, with the cross-domain memo
   (compile exactly once) behind it; installing the code also installs
   the record's entry word.  Run-time only — never called while
   compiling, so call-graph cycles cannot recurse. *)
and fetch (cp : cprog) (prog : Program.t) (id : int) : cmeth =
  let r = cp.recs.(id) in
  let cm = r.code in
  if cm != empty_cmeth then cm
  else begin
    let cm =
      Sync.Memo.get cp.memo id (fun () ->
          compile_method cp prog prog.Program.methods.(id))
    in
    install r cm;
    cm
  end

(* Like [fetch], but degrading gracefully: a method the fault plan fails
   compilation for, or whose compilation genuinely raises, is marked for
   per-method fallback to [Machine.step] and yields [empty_cmeth] (the
   physical-equality sentinel — real methods always have at least one
   block).  The fallback event is recorded once, at the first use, so
   [`Ref] runs — which never fetch — report no fallbacks. *)
and fetch_or_fallback st (cp : cprog) (prog : Program.t) (id : int) : cmeth =
  match fallback_state st id with
  | 0 -> (
      match fetch cp prog id with
      | cm -> cm
      | exception e ->
          record_fallback st id
            ("engine compilation failed: " ^ Printexc.to_string e);
          empty_cmeth)
  | 1 ->
      record_fallback st id "fault-injected compile failure";
      empty_cmeth
  | _ -> empty_cmeth

(* Compiled code for the exact version frame [fr] is pinned to.  Frames
   born before an adaptive hot-swap still reference the old [meth]
   record; their code lives in (or is lazily added to) [cp.retired].
   The common case — no swap ever happened — is one physical-equality
   compare on top of [fetch_or_fallback]. *)
and fetch_for_frame st (cp : cprog) (prog : Program.t) (fr : frame) : cmeth =
  let m = fr.m in
  let id = m.Program.id in
  if m == prog.Program.methods.(id) then fetch_or_fallback st cp prog id
  else if fallback_state st id <> 0 then empty_cmeth
  else
    match List.assq_opt m cp.retired with
    | Some cm -> cm
    | None -> (
        match compile_method cp prog m with
        | cm ->
            cp.retired <- (m, cm) :: cp.retired;
            cm
        | exception e ->
            record_fallback st id
              ("engine compilation failed: " ^ Printexc.to_string e);
            empty_cmeth)

(* ------------------------------------------------------------------ *)
(* Program cache and dispatch loop                                     *)
(* ------------------------------------------------------------------ *)

let install_mutex = Mutex.create ()

(* One compiled image per (program, cost table).  The slot holds a single
   image; a run under a different cost table (the ablations swap tables,
   and the harness links a fresh program per measurement) recompiles and
   replaces it.  Cost tables are plain int records, so structural
   equality is the right cache key. *)
let cprog_of (prog : Program.t) (costs : Costs.t) =
  match prog.Program.engine_cache with
  | Some (Compiled cp) when cp.c_costs = costs -> cp
  | _ ->
      Mutex.lock install_mutex;
      let cp =
        match prog.Program.engine_cache with
        | Some (Compiled cp) when cp.c_costs = costs -> cp
        | _ ->
            let cp =
              {
                memo = Sync.Memo.create ();
                recs = Array.map rec_of_meth prog.Program.methods;
                c_costs = costs;
                retired = [];
              }
            in
            prog.Program.engine_cache <- Some (Compiled cp);
            cp
      in
      Mutex.unlock install_mutex;
      cp

(* Adaptive hot-swap: install [nm] as the current version of its method
   id.  Future calls and dispatches run the new version immediately;
   live activations finish on the version their frame pins (see
   [fetch_for_frame]).  Must be called from a safepoint — the adaptive
   poll — never from inside a compiled chain that will re-read the
   swapped state.  On the reference engine (no compiled image) the
   method-table write alone is the whole swap. *)
let hot_swap st (nm : Program.meth) =
  let prog = st.prog in
  let id = nm.Program.id in
  let old = prog.Program.methods.(id) in
  if old != nm then begin
    prog.Program.methods.(id) <- nm;
    match prog.Program.engine_cache with
    | Some (Compiled cp) -> (
        let r = cp.recs.(id) in
        let old_cm = r.code in
        if old_cm != empty_cmeth && not (List.mem_assq old cp.retired) then
          cp.retired <- (old, old_cm) :: cp.retired;
        (* in place: every site holding [r] sees the new version *)
        set_rec r nm;
        match compile_method cp prog nm with
        | cm -> install r cm
        | exception e ->
            (* degrade to the interpreter for the new version rather than
               aborting the run: same contract as fetch_or_fallback;
               [r] keeps no code, so calls take the generic path *)
            record_fallback st id
              ("engine compilation failed: " ^ Printexc.to_string e))
    | _ -> ()
  end

let exec st =
  let prog = st.prog in
  let cp = cprog_of prog st.costs in
  (match st.icache with
  | Some c when c.Icache.shift <> Icache.default_shift ->
      invalid_arg "Engine.exec: the i-cache must have the default line size"
  | _ -> ());
  while st.alive > 0 do
    fuel_check st;
    let th = st.threads.(st.current) in
    if th.sp < 0 then rotate_thread st
    else begin
      let fr = th.stack.(th.sp) in
      let cm = fetch_for_frame st cp prog fr in
      if cm == empty_cmeth then
        (* degraded method: one reference step, which performs the
           instruction-count/i-cache preamble itself *)
        Machine.step st
      else begin
        if st.cur_th != th then st.cur_th <- th;
        if st.cur_fr != fr then st.cur_fr <- fr;
        (* code.(len) is the terminator step, so a frame suspended at
           any idx in [0, len] resumes with a single indexed dispatch
           (the fuel check above makes the preamble's a no-op) *)
        let i = fr.idx in
        Straight.advance_addr st ~next:cm.(fr.blk).(i) ~ni:i
          ~naddr:(fr.base_addr + i)
      end
    end
  done
