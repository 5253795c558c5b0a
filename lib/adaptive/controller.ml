(* Online adaptive controller (DESIGN.md §9): closes the FDO loop
   inside the VM.

   Attached to a run via [Vm.Interp.run ?on_init], the controller arms
   the machine's adaptive poll ([Machine.state.next_adaptive] /
   [adaptive_poll]) and from then on wakes at natural safepoints — the
   timer check and the yieldpoints, where no frame is mid-instruction
   and the paper's invariants already hold, so no on-stack replacement
   is ever needed.  Each poll it

   1. runs the overhead-budget governor ({!Budget}) against the live
      (cycles, icycles) counters and applies at most one action:
      swapping a hot method to/from a stripped version
      ({!Opt.Fdo.strip_instrumentation}) or dilating/narrowing the
      timer period and sampler interval;

   2. reads the live sampled profile from the flat-slot recorder
      ({!Profiles.Slots.live_call_edges} / [live_edge_counts]) and
      recompiles: hot sampled call edges are inlined
      ({!Opt.Fdo.inline_static_call}, with cloned call-edge ops re-keyed
      through {!Profiles.Slots.mint_call_edge} so the decoded profile is
      indistinguishable from the uninlined run), and methods with hot
      edge profiles get a hot-first block layout ({!Opt.Fdo.hot_layout}).

   New versions are verified ([Ir.Verify.check_exn]), laid out at fresh
   code addresses (a bump cursor starting at the program's
   [total_code_words], so no version ever aliases another in the
   i-cache model) and installed with {!Vm.Engine.hot_swap}: future
   calls run the new version, activations alive at the swap finish on
   the version their frame pins.

   Controller work itself is not metered by the simulated cost model —
   it stands in for the JVM's concurrent recompilation thread; what IS
   metered, and what the governor steers, is the instrumentation cost
   the installed code pays.

   Determinism: polls happen at deterministic cycle counts, the live
   profile reads return first-touch/first-event order, and ranking ties
   break by method id — so the same (program, seed, config) produces
   the identical decision log and final method versions on both
   engines.  With the controller absent, the only residue is one
   always-false integer compare per safepoint. *)

module Lir = Ir.Lir
module Program = Vm.Program
module Machine = Vm.Machine
module Fdo = Opt.Fdo
module Slots = Profiles.Slots

type config = {
  poll_period : int;  (* cycles between polls *)
  budget_pct : float option;  (* None: governor off *)
  fdo : bool;  (* inline + reorder from the live profile *)
  inline_threshold : int;  (* min sampled call-edge count *)
  max_inline_size : int;  (* max callee size, in instruction words *)
  reorder_threshold : int;  (* min summed edge count per method *)
  hysteresis : float;  (* governor dead-band half-width, in points *)
}

let default =
  {
    poll_period = 2_000;
    budget_pct = None;
    fdo = true;
    inline_threshold = 4;
    max_inline_size = 48;
    reorder_threshold = 16;
    hysteresis = 1.0;
  }

(* canonical rendering for run-cache keys (Harness.Digest) *)
let config_digest c =
  Printf.sprintf "poll=%d;budget=%s;fdo=%b;inline=%d;size=%d;reorder=%d;hyst=%g"
    c.poll_period
    (match c.budget_pct with None -> "none" | Some b -> Printf.sprintf "%g" b)
    c.fdo c.inline_threshold c.max_inline_size c.reorder_threshold c.hysteresis

(* Per-method version lineage.  [lineage] is the current instrumented
   version (base program code, plus any inlining/reordering applied);
   [stripped] caches its instrumentation-free twin and is invalidated
   whenever the lineage changes. *)
type mstate = {
  mutable lineage : Program.meth;
  mutable stripped : Program.meth option;
  mutable is_stripped : bool;
  mutable reordered : bool;
  mutable has_instr : bool;  (* lineage has plain Instrument ops *)
}

type t = {
  cfg : config;
  slots : Slots.t;
  sampler : Core.Sampler.t option;
  gov : Budget.t option;
  mutable ms : mstate array;  (* by method id; set at attach *)
  mutable cursor : int;  (* fresh code-address base *)
  mutable base_timer : int;  (* timer period at attach *)
  mutable base_interval : int option;  (* sampler interval at attach *)
  mutable strip_stack : int list;  (* stripped method ids, newest first *)
  inlined : (int * int * int, unit) Hashtbl.t;  (* (caller, site, callee) *)
  mutable log : string list;  (* decision log, newest first *)
  mutable polls : int;
}

let create ?(config = default) ?sampler slots =
  {
    cfg = config;
    slots;
    sampler;
    gov =
      Option.map
        (fun budget_pct ->
          Budget.create ~hysteresis:config.hysteresis ~budget_pct ())
        config.budget_pct;
    ms = [||];
    cursor = 0;
    base_timer = 0;
    base_interval = None;
    strip_stack = [];
    inlined = Hashtbl.create 16;
    log = [];
    polls = 0;
  }

let decisions t = List.rev t.log
let polls t = t.polls
let logd t fmt = Printf.ksprintf (fun s -> t.log <- s :: t.log) fmt

(* ------------------------------------------------------------------ *)
(* Version installation                                                 *)
(* ------------------------------------------------------------------ *)

let layout_fresh t f =
  let addr, next = Program.layout_func f t.cursor in
  t.cursor <- next;
  addr

(* Rebuild [stripped] from the current lineage on demand. *)
let stripped_version t (ms : mstate) =
  match ms.stripped with
  | Some m -> m
  | None ->
      let sf = Fdo.strip_instrumentation ms.lineage.Program.func in
      Ir.Verify.check_exn sf;
      let m =
        { ms.lineage with Program.func = sf; code_addr = layout_fresh t sf }
      in
      ms.stripped <- Some m;
      m

(* Swap in whichever variant the strip state selects. *)
let activate t st (ms : mstate) =
  let m = if ms.is_stripped then stripped_version t ms else ms.lineage in
  Vm.Engine.hot_swap st m

(* Replace the instrumented lineage (after inlining) and re-install. *)
let install_lineage t st (ms : mstate) nf =
  Ir.Verify.check_exn nf;
  ms.lineage <-
    { ms.lineage with Program.func = nf; code_addr = layout_fresh t nf };
  ms.stripped <- None;
  ms.has_instr <- Fdo.has_plain_instrument nf;
  activate t st ms

(* ------------------------------------------------------------------ *)
(* Live profile aggregation                                             *)
(* ------------------------------------------------------------------ *)

(* (method, dst label) -> summed incoming edge count, and per-method
   totals used to rank methods hottest-first (ties by id: deterministic). *)
let edge_weights t =
  let into = Hashtbl.create 64 in
  let total = Hashtbl.create 16 in
  List.iter
    (fun (mid, _src, dst, c) ->
      let bump tbl k =
        Hashtbl.replace tbl k
          (c + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      in
      bump into (mid, dst);
      bump total mid)
    (Slots.live_edge_counts t.slots);
  (into, total)

let hottest_first t total =
  let ids = List.init (Array.length t.ms) Fun.id in
  let w mid = Option.value ~default:0 (Hashtbl.find_opt total mid) in
  List.stable_sort (fun a b -> compare (w b) (w a)) ids

(* ------------------------------------------------------------------ *)
(* Governor actions                                                     *)
(* ------------------------------------------------------------------ *)

let apply_scale t st scale =
  Machine.set_timer_period st (t.base_timer * scale);
  match (t.sampler, t.base_interval) with
  | Some s, Some i -> Core.Sampler.set_interval s (i * scale)
  | _ -> ()

let governor_step t st gov =
  let oh =
    Budget.overhead ~cycles:st.Machine.cycles ~icycles:st.Machine.icycles
  in
  (* fast path: inside the dead band nothing can happen *)
  if Float.abs (oh -. Budget.budget_pct gov) > t.cfg.hysteresis then begin
    let strip_candidates =
      ref
        (List.filter
           (fun mid ->
             let ms = t.ms.(mid) in
             (not ms.is_stripped) && ms.has_instr)
           (hottest_first t (snd (edge_weights t))))
    in
    let apply = function
      | Budget.Hold -> ()
      | Budget.Strip ->
          let mid = List.hd !strip_candidates in
          strip_candidates := List.tl !strip_candidates;
          let ms = t.ms.(mid) in
          ms.is_stripped <- true;
          t.strip_stack <- mid :: t.strip_stack;
          activate t st ms;
          logd t "strip m%d oh=%.1f" mid oh
      | Budget.Restore ->
          let mid = List.hd t.strip_stack in
          t.strip_stack <- List.tl t.strip_stack;
          let ms = t.ms.(mid) in
          ms.is_stripped <- false;
          activate t st ms;
          logd t "restore m%d oh=%.1f" mid oh
      | Budget.Dilate scale ->
          apply_scale t st scale;
          logd t "dilate x%d oh=%.1f" scale oh
      | Budget.Narrow scale ->
          apply_scale t st scale;
          logd t "narrow x%d oh=%.1f" scale oh
    in
    (* Proportional shedding: the cumulative metric can't move within a
       poll, so when far over budget one action per poll converges too
       slowly for short runs — allow roughly (overhead / budget) actions
       per poll.  Regaining stays gentle (one per poll): undershoot is
       cheap, overshoot is the thing the budget exists to prevent. *)
    let max_actions =
      if oh > Budget.budget_pct gov then
        max 1 (int_of_float (oh /. Budget.budget_pct gov))
      else 1
    in
    let rec drive n =
      if n > 0 then
        match
          Budget.step gov ~overhead:oh
            ~can_strip:(!strip_candidates <> [])
            ~can_restore:(t.strip_stack <> [])
        with
        | Budget.Hold -> ()
        | act ->
            apply act;
            drive (n - 1)
    in
    drive max_actions
  end

(* ------------------------------------------------------------------ *)
(* Feedback-directed recompilation                                      *)
(* ------------------------------------------------------------------ *)

(* Inline every surviving copy of call site [site] (the transforms
   duplicate call instructions into Dup blocks under the same site id;
   the callee is a leaf, so no new copies can appear). *)
let inline_site t (ms : mstate) ~caller ~site ~callee callee_f =
  let mint op =
    let op' = { op with Lir.slot = -1 } in
    Slots.mint_call_edge t.slots ~caller ~site ~callee op';
    op'
  in
  let rec go f n =
    if n >= 8 then f
    else
      match Fdo.find_call_site f ~site ~target:callee_f.Lir.fname with
      | None -> f
      | Some at ->
          go (Fdo.inline_static_call f ~callee:callee_f ~at ~mint) (n + 1)
  in
  let f0 = ms.lineage.Program.func in
  let f = go f0 0 in
  if f == f0 then None else Some f

let fdo_step t st =
  (* inline hot sampled call edges *)
  List.iter
    (fun (caller, site, callee, count) ->
      if
        caller >= 0 && caller <> callee
        && count >= t.cfg.inline_threshold
        && not (Hashtbl.mem t.inlined (caller, site, callee))
      then begin
        (* decided once per edge, inlinable or not: the decision log is
           the determinism witness and retrying can't change the answer *)
        Hashtbl.add t.inlined (caller, site, callee) ();
        let ms = t.ms.(caller) in
        let callee_f = t.ms.(callee).lineage.Program.func in
        if Fdo.inlinable ~max_size:t.cfg.max_inline_size callee_f then
          match inline_site t ms ~caller ~site ~callee callee_f with
          | None -> ()
          | Some nf ->
              install_lineage t st ms nf;
              logd t "inline m%d@%d <- m%d n=%d" caller site callee count
      end)
    (Slots.live_call_edges t.slots);
  (* hot-first block layout for methods with hot edge profiles *)
  let into, total = edge_weights t in
  List.iter
    (fun mid ->
      let ms = t.ms.(mid) in
      if
        (not ms.reordered)
        && Option.value ~default:0 (Hashtbl.find_opt total mid)
           >= t.cfg.reorder_threshold
      then begin
        ms.reordered <- true;
        let weight l =
          Option.value ~default:0 (Hashtbl.find_opt into (mid, l))
        in
        let relayout (m : Program.meth) =
          let addr, next = Fdo.hot_layout m.Program.func ~weight t.cursor in
          t.cursor <- next;
          { m with Program.code_addr = addr }
        in
        ms.lineage <- relayout ms.lineage;
        ms.stripped <- Option.map relayout ms.stripped;
        activate t st ms;
        logd t "reorder m%d w=%d" mid
          (Option.value ~default:0 (Hashtbl.find_opt total mid))
      end)
    (hottest_first t total)

(* ------------------------------------------------------------------ *)
(* The poll                                                             *)
(* ------------------------------------------------------------------ *)

let poll t st =
  t.polls <- t.polls + 1;
  (match t.gov with Some g -> governor_step t st g | None -> ());
  if t.cfg.fdo then fdo_step t st;
  st.Machine.next_adaptive <- st.Machine.cycles + t.cfg.poll_period

let on_init t (st : Machine.state) =
  let prog = st.Machine.prog in
  t.ms <-
    Array.map
      (fun m ->
        {
          lineage = m;
          stripped = None;
          is_stripped = false;
          reordered = false;
          has_instr = Fdo.has_plain_instrument m.Program.func;
        })
      prog.Program.methods;
  t.cursor <- prog.Program.total_code_words;
  t.base_timer <- st.Machine.timer_period;
  t.base_interval <- Option.join (Option.map Core.Sampler.interval t.sampler);
  st.Machine.adaptive_poll <- poll t;
  st.Machine.next_adaptive <- st.Machine.cycles + t.cfg.poll_period;
  (* arm on-stack frame migration: long-running activations re-pin to
     freshly-installed versions at their next yieldpoint, so stripping
     and inlining reach the benchmark main loop too (no OSR needed) *)
  st.Machine.migration <- true
