(* Slot-resolution layer: compile-time event resolution for the
   instrumentation recording path.

   The legacy recording path (Collector.on_instrument) pays, per event, a
   ctx allocation, a hook-name string dispatch, method-ref string
   building, tuple-key boxing and a polymorphic hashtable probe.  This
   module removes all of that from the hot path: a pre-pass over the
   *linked* program interns method refs, field refs and per-site keys
   into dense integer ids and resolves every instrument op to a slot
   (stored in [op.Lir.slot]):

   - statically-keyed events (edge, field_access) become an index into a
     preallocated counter array — recording is one array increment;
   - dynamically-keyed events (call_edge caller x site, value TNV, path
     sums, receiver class, CCT) get closures over int-keyed
     open-addressing tables and move-to-front arrays.

   An end-of-run [decode] rebuilds the exact [Collector.t] the legacy
   event-by-event path would have produced — bit-identical, including
   hashtable iteration order, which is observable through report
   tie-breaking.  The key trick is first-touch logging: counter slots,
   dynamic-table entries, TNV/receiver sites and CCT children all record
   the order in which keys first appeared, and decode re-inserts keys in
   exactly that order, so the rebuilt hashtables get the same insertion
   sequence (and therefore the same layout and fold order) as the legacy
   tables.

   Per-event cycle charges are resolved here once ([Collector.op_cost]
   hoisted out of the hot path); both engines charge from the resolved
   value, so cycle counts are identical to the legacy path as well. *)

module Lir = Ir.Lir
module Machine = Vm.Machine
module Program = Vm.Program

let thread_start = "<thread-start>"

(* ------------------------------------------------------------------ *)
(* Open-addressing counting table over int triples                     *)
(* ------------------------------------------------------------------ *)

(* Buckets index a dense entry pool, so entries live in insertion
   (first-event) order — the decode order — and rehashing never disturbs
   it.  Pair-keyed uses pass 0 for the third component. *)
type itab = {
  mutable buckets : int array; (* 0 = empty, else entry index + 1 *)
  mutable mask : int;
  mutable k1 : int array;
  mutable k2 : int array;
  mutable k3 : int array;
  mutable cnt : int array;
  mutable n : int;
}

let itab_create () =
  {
    buckets = Array.make 32 0;
    mask = 31;
    k1 = Array.make 16 0;
    k2 = Array.make 16 0;
    k3 = Array.make 16 0;
    cnt = Array.make 16 0;
    n = 0;
  }

let[@inline] mix3 a b c =
  let h = (a * 0x2545F491) lxor (b * 0x9E3779B1) lxor (c * 0x85EBCA77) in
  (h lxor (h lsr 17)) land max_int

let itab_rehash t =
  let nb = (t.mask + 1) * 2 in
  let buckets = Array.make nb 0 in
  let mask = nb - 1 in
  for j = 0 to t.n - 1 do
    let h = ref (mix3 t.k1.(j) t.k2.(j) t.k3.(j) land mask) in
    while buckets.(!h) <> 0 do
      h := (!h + 1) land mask
    done;
    buckets.(!h) <- j + 1
  done;
  t.buckets <- buckets;
  t.mask <- mask;
  let grow a =
    let b = Array.make (nb / 2) 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.k1 <- grow t.k1;
  t.k2 <- grow t.k2;
  t.k3 <- grow t.k3;
  t.cnt <- grow t.cnt

let itab_bump t a b c =
  if 2 * (t.n + 1) > t.mask + 1 then itab_rehash t;
  let mask = t.mask in
  let h = ref (mix3 a b c land mask) in
  let found = ref (-1) in
  let probing = ref true in
  while !probing do
    let e = Array.unsafe_get t.buckets !h in
    if e = 0 then probing := false
    else
      let j = e - 1 in
      if
        Array.unsafe_get t.k1 j = a
        && Array.unsafe_get t.k2 j = b
        && Array.unsafe_get t.k3 j = c
      then begin
        found := j;
        probing := false
      end
      else h := (!h + 1) land mask
  done;
  let j = !found in
  if j >= 0 then t.cnt.(j) <- t.cnt.(j) + 1
  else begin
    let j = t.n in
    t.n <- j + 1;
    t.k1.(j) <- a;
    t.k2.(j) <- b;
    t.k3.(j) <- c;
    t.cnt.(j) <- 1;
    t.buckets.(!h) <- j + 1
  end

(* ------------------------------------------------------------------ *)
(* Open-addressing map: frame id -> open path region (site, sum)       *)
(* ------------------------------------------------------------------ *)

(* Supports delete (path_flush closes a region), so probe chains use
   tombstones; a same-size rehash clears them when load gets high.
   Never iterated on the hot path, and its layout is unobservable (the
   legacy [active] table is never folded), so only contents matter. *)
type atab = {
  mutable ak : int array; (* -1 = empty, -2 = tombstone, else frame id *)
  mutable asite : int array;
  mutable asum : int array;
  mutable amask : int;
  mutable alive : int;
  mutable aused : int; (* live + tombstones *)
}

let atab_create () =
  {
    ak = Array.make 32 (-1);
    asite = Array.make 32 0;
    asum = Array.make 32 0;
    amask = 31;
    alive = 0;
    aused = 0;
  }

let[@inline] amix k =
  let h = k * 0x9E3779B1 in
  (h lxor (h lsr 16)) land max_int

let atab_rehash t =
  let nb =
    if 2 * (t.alive + 1) > t.amask + 1 then (t.amask + 1) * 2 else t.amask + 1
  in
  let ak = Array.make nb (-1) in
  let asite = Array.make nb 0 in
  let asum = Array.make nb 0 in
  let mask = nb - 1 in
  for i = 0 to t.amask do
    let k = t.ak.(i) in
    if k >= 0 then begin
      let h = ref (amix k land mask) in
      while ak.(!h) >= 0 do
        h := (!h + 1) land mask
      done;
      ak.(!h) <- k;
      asite.(!h) <- t.asite.(i);
      asum.(!h) <- t.asum.(i)
    end
  done;
  t.ak <- ak;
  t.asite <- asite;
  t.asum <- asum;
  t.amask <- mask;
  t.aused <- t.alive

let atab_find t k =
  let mask = t.amask in
  let h = ref (amix k land mask) in
  let res = ref (-1) in
  let probing = ref true in
  while !probing do
    let x = Array.unsafe_get t.ak !h in
    if x = k then begin
      res := !h;
      probing := false
    end
    else if x = -1 then probing := false
    else h := (!h + 1) land mask
  done;
  !res

(* path_reset: open (or re-open) the frame's region with sum 0 *)
let atab_set t k site =
  let i = atab_find t k in
  if i >= 0 then begin
    t.asite.(i) <- site;
    t.asum.(i) <- 0
  end
  else begin
    if 2 * (t.aused + 1) > t.amask + 1 then atab_rehash t;
    let mask = t.amask in
    let h = ref (amix k land mask) in
    while t.ak.(!h) >= 0 do
      h := (!h + 1) land mask
    done;
    if t.ak.(!h) = -1 then t.aused <- t.aused + 1;
    t.ak.(!h) <- k;
    t.asite.(!h) <- site;
    t.asum.(!h) <- 0;
    t.alive <- t.alive + 1
  end

(* ------------------------------------------------------------------ *)
(* Per-site TNV table (value profile): Misra-Gries over fixed arrays    *)
(* ------------------------------------------------------------------ *)

(* Front (index 0) is the most recently bumped entry, replicating the
   legacy move-to-front assoc list exactly — entry order is observable
   through [Value_profile.to_keyed]. *)
type vsite = {
  v_mid : int;
  v_site : int;
  v_vals : int array;
  v_cnts : int array;
  mutable v_n : int;
  mutable v_total : int;
}

let vsite_record vlog vs value =
  if vs.v_total = 0 then ignore (Ir.Vec.push vlog vs : int);
  vs.v_total <- vs.v_total + 1;
  let n = vs.v_n in
  let rec find i =
    if i = n then -1 else if vs.v_vals.(i) = value then i else find (i + 1)
  in
  let j = find 0 in
  if j >= 0 then begin
    let c = vs.v_cnts.(j) in
    Array.blit vs.v_vals 0 vs.v_vals 1 j;
    Array.blit vs.v_cnts 0 vs.v_cnts 1 j;
    vs.v_vals.(0) <- value;
    vs.v_cnts.(0) <- c + 1
  end
  else if n < Array.length vs.v_vals then begin
    Array.blit vs.v_vals 0 vs.v_vals 1 n;
    Array.blit vs.v_cnts 0 vs.v_cnts 1 n;
    vs.v_vals.(0) <- value;
    vs.v_cnts.(0) <- 1;
    vs.v_n <- n + 1
  end
  else begin
    (* Misra-Gries: decrement every counter, drop the zeros, keep order *)
    let w = ref 0 in
    for i = 0 to n - 1 do
      if vs.v_cnts.(i) > 1 then begin
        vs.v_vals.(!w) <- vs.v_vals.(i);
        vs.v_cnts.(!w) <- vs.v_cnts.(i) - 1;
        incr w
      end
    done;
    vs.v_n <- !w
  end

(* ------------------------------------------------------------------ *)
(* Per-site receiver-class histogram: move-to-front, unbounded          *)
(* ------------------------------------------------------------------ *)

type rsite = {
  r_mid : int;
  r_site : int;
  mutable r_cls : int array; (* class ids *)
  mutable r_cnts : int array;
  mutable r_n : int;
  mutable r_total : int;
}

let rsite_record rlog rs cls =
  if rs.r_total = 0 then ignore (Ir.Vec.push rlog rs : int);
  rs.r_total <- rs.r_total + 1;
  let n = rs.r_n in
  let rec find i =
    if i = n then -1 else if rs.r_cls.(i) = cls then i else find (i + 1)
  in
  let j = find 0 in
  if j >= 0 then begin
    let c = rs.r_cnts.(j) in
    Array.blit rs.r_cls 0 rs.r_cls 1 j;
    Array.blit rs.r_cnts 0 rs.r_cnts 1 j;
    rs.r_cls.(0) <- cls;
    rs.r_cnts.(0) <- c + 1
  end
  else begin
    if n = Array.length rs.r_cls then begin
      let cap = max 4 (2 * n) in
      let cls' = Array.make cap 0 in
      let cnts' = Array.make cap 0 in
      Array.blit rs.r_cls 0 cls' 0 n;
      Array.blit rs.r_cnts 0 cnts' 0 n;
      rs.r_cls <- cls';
      rs.r_cnts <- cnts'
    end;
    Array.blit rs.r_cls 0 rs.r_cls 1 n;
    Array.blit rs.r_cnts 0 rs.r_cnts 1 n;
    rs.r_cls.(0) <- cls;
    rs.r_cnts.(0) <- 1;
    rs.r_n <- n + 1
  end

(* ------------------------------------------------------------------ *)
(* Calling-context tree over interned method ids                        *)
(* ------------------------------------------------------------------ *)

(* Children are kept in insertion (first-walk) order in parallel arrays;
   fanout is small, so a linear scan beats hashing here and the order is
   exactly what decode must replay into the legacy per-node hashtables. *)
type cnode = {
  mutable c_count : int;
  mutable ckm : int array; (* child method id *)
  mutable cks : int array; (* child call site *)
  mutable cch : cnode array;
  mutable c_n : int;
}

let cnode_create () =
  { c_count = 0; ckm = [||]; cks = [||]; cch = [||]; c_n = 0 }

let cnode_child node mid site =
  let n = node.c_n in
  let rec find i =
    if i = n then -1
    else if node.ckm.(i) = mid && node.cks.(i) = site then i
    else find (i + 1)
  in
  let j = find 0 in
  if j >= 0 then node.cch.(j)
  else begin
    if n = Array.length node.ckm then begin
      let cap = max 4 (2 * n) in
      let ckm = Array.make cap 0 in
      let cks = Array.make cap 0 in
      let cch = Array.make cap node in
      Array.blit node.ckm 0 ckm 0 n;
      Array.blit node.cks 0 cks 0 n;
      Array.blit node.cch 0 cch 0 n;
      node.ckm <- ckm;
      node.cks <- cks;
      node.cch <- cch
    end;
    let child = cnode_create () in
    node.ckm.(n) <- mid;
    node.cks.(n) <- site;
    node.cch.(n) <- child;
    node.c_n <- n + 1;
    child
  end

(* ------------------------------------------------------------------ *)
(* The slot-resolution pre-pass                                         *)
(* ------------------------------------------------------------------ *)

(* Decode metadata for statically-keyed counter slots. *)
type cinfo =
  | C_edge of int * int * int (* method id, src label, dst label *)
  | C_field of string * bool (* interned "C.f", is_write *)

type t = {
  prog : Program.t;
  names : string array; (* interned method-ref string per method id *)
  rc : Machine.flat_recorder;
  cinfo : cinfo array; (* per counter slot *)
  calls : itab; (* caller mid x site x callee mid *)
  sums : itab; (* path site id x path sum *)
  active : atab; (* frame id -> open region *)
  psite_mid : int array; (* per path site id: method id *)
  psite_start : int array; (* per path site id: start label *)
  vlog : vsite Ir.Vec.t; (* value sites in first-event order *)
  rlog : rsite Ir.Vec.t; (* receiver sites in first-event order *)
  croot : cnode;
  cwalks : int ref;
  mutable n_events : int;
      (* grows when the adaptive tier mints events for inlined sites *)
}

let nop (_ : Machine.state) = ()

(* the running frame's activation id *)
let frame_id (st : Machine.state) =
  st.Machine.stk.(st.Machine.fp + Machine.h_fid)

let table_capacity = 8 (* = Value_profile's TNV capacity *)

let iter_ops (prog : Program.t) f =
  Array.iter
    (fun (m : Program.meth) ->
      let func = m.Program.func in
      for l = 0 to Lir.num_blocks func - 1 do
        let b = Lir.block func l in
        Array.iteri
          (fun i instr ->
            match instr with
            | Lir.Instrument op -> f m.Program.id b i false op
            | Lir.Guarded_instrument op -> f m.Program.id b i true op
            | _ -> ())
          b.Lir.instrs
      done)
    prog.Program.methods

let create (prog : Program.t) : t =
  (* Pass 1: reset every slot (assignment must be deterministic and
     idempotent — the engine's compiled-method cache reads [op.slot] at
     run time, so a program resolved twice must get identical ids) and
     size the event space. *)
  let n_events = ref 0 in
  let n_counters = ref 0 in
  iter_ops prog (fun _ _ _ _ op ->
      op.Lir.slot <- -1;
      incr n_events;
      match (op.Lir.hook, op.Lir.payload) with
      | "edge", Lir.P_edge _ | "field_access", Lir.P_field _ -> incr n_counters
      | _ -> ());
  let n_events = !n_events in
  let n_counters = !n_counters in
  let names =
    Array.map
      (fun (m : Program.meth) -> Lir.string_of_method_ref m.Program.mref)
      prog.Program.methods
  in
  let rc =
    {
      Machine.ev_cost = Array.make (max n_events 1) 0;
      ev_counter = Array.make (max n_events 1) (-1);
      counts = Array.make (max n_counters 1) 0;
      touch = Array.make (max n_counters 1) 0;
      n_touch = 0;
      dyn = Array.make (max n_events 1) nop;
    }
  in
  let cinfo = Array.make (max n_counters 1) (C_field ("", false)) in
  let calls = itab_create () in
  let sums = itab_create () in
  let active = atab_create () in
  let psites : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let psite_mid = Ir.Vec.create () in
  let psite_start = Ir.Vec.create () in
  let vsites : (int * int, vsite) Hashtbl.t = Hashtbl.create 32 in
  let vlog = Ir.Vec.create () in
  let rsites : (int * int, rsite) Hashtbl.t = Hashtbl.create 32 in
  let rlog = Ir.Vec.create () in
  let croot = cnode_create () in
  let cwalks = ref 0 in
  let fields : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let intern_field fld =
    let s = Lir.string_of_field_ref fld in
    match Hashtbl.find_opt fields s with
    | Some s -> s
    | None ->
        Hashtbl.add fields s s;
        s
  in
  let psite mid start =
    match Hashtbl.find_opt psites (mid, start) with
    | Some id -> id
    | None ->
        let id = Ir.Vec.push psite_mid mid in
        ignore (Ir.Vec.push psite_start start : int);
        Hashtbl.add psites (mid, start) id;
        id
  in
  (* Pass 2: assign dense event ids in program order and resolve each op
     to its cost plus either a counter slot or a dynamic-key closure. *)
  let next_ev = ref 0 in
  let next_counter = ref 0 in
  iter_ops prog (fun mid b i guarded op ->
      (* A shared op record (two sites aliasing one record) would get two
         clashing ids; give the later site a fresh copy.  Transforms never
         share op records today, so this is a determinism guard. *)
      let op =
        if op.Lir.slot >= 0 then begin
          let fresh = { op with Lir.slot = -1 } in
          b.Lir.instrs.(i) <-
            (if guarded then Lir.Guarded_instrument fresh
             else Lir.Instrument fresh);
          fresh
        end
        else op
      in
      let ev = !next_ev in
      incr next_ev;
      op.Lir.slot <- ev;
      rc.Machine.ev_cost.(ev) <- Collector.op_cost op;
      let counter ci =
        let c = !next_counter in
        incr next_counter;
        cinfo.(c) <- ci;
        rc.Machine.ev_counter.(ev) <- c
      in
      let dyn f = rc.Machine.dyn.(ev) <- f in
      match (op.Lir.hook, op.Lir.payload) with
      | "edge", Lir.P_edge (u, v) -> counter (C_edge (mid, u, v))
      | "field_access", Lir.P_field (fld, is_write) ->
          counter (C_field (intern_field fld, is_write))
      | "call_edge", Lir.P_unit ->
          dyn (fun st ->
              let stk = st.Machine.stk and fp = st.Machine.fp in
              itab_bump calls
                stk.(fp + Machine.h_from_meth)
                stk.(fp + Machine.h_from_site)
                mid)
      | "value", Lir.P_value (operand, site) -> (
          let vs =
            match Hashtbl.find_opt vsites (mid, site) with
            | Some vs -> vs
            | None ->
                let vs =
                  {
                    v_mid = mid;
                    v_site = site;
                    v_vals = Array.make table_capacity 0;
                    v_cnts = Array.make table_capacity 0;
                    v_n = 0;
                    v_total = 0;
                  }
                in
                Hashtbl.add vsites (mid, site) vs;
                vs
          in
          match operand with
          | Lir.Reg r ->
              dyn (fun st ->
                  vsite_record vlog vs
                    (Machine.reg st.Machine.stk st.Machine.fp r))
          | Lir.Imm n -> dyn (fun _st -> vsite_record vlog vs n))
      | "path_reset", Lir.P_site start ->
          let id = psite mid start in
          dyn (fun st -> atab_set active (frame_id st) id)
      | "path_add", Lir.P_site inc ->
          dyn (fun st ->
              let i = atab_find active (frame_id st) in
              if i >= 0 then active.asum.(i) <- active.asum.(i) + inc)
      | "path_flush", Lir.P_unit ->
          dyn (fun st ->
              let i = atab_find active (frame_id st) in
              if i >= 0 then begin
                itab_bump sums active.asite.(i) active.asum.(i) 0;
                active.ak.(i) <- -2;
                active.alive <- active.alive - 1
              end)
      | "cct", Lir.P_unit ->
          dyn (fun st ->
              incr cwalks;
              (* walk the thread's frames outermost-first: they sit one
                 after another from offset 0 to the running frame's *)
              let stk = st.Machine.stk and fp = st.Machine.fp in
              let node = ref croot in
              let g = ref 0 in
              while !g <= fp do
                node :=
                  cnode_child !node
                    stk.(!g + Machine.h_mid)
                    stk.(!g + Machine.h_from_site);
                g := !g + Machine.hdr + stk.(!g + Machine.h_nregs)
              done;
              let node = !node in
              node.c_count <- node.c_count + 1)
      | "receiver", Lir.P_value (operand, site) ->
          let rs =
            match Hashtbl.find_opt rsites (mid, site) with
            | Some rs -> rs
            | None ->
                let rs =
                  {
                    r_mid = mid;
                    r_site = site;
                    r_cls = [||];
                    r_cnts = [||];
                    r_n = 0;
                    r_total = 0;
                  }
                in
                Hashtbl.add rsites (mid, site) rs;
                rs
          in
          let record st v =
            (* legacy class_of: None for null, dangling refs and arrays *)
            if v > 0 && v <= Ir.Vec.length st.Machine.heap then begin
              (* word 0 of a cell: a class id, or negative for an array *)
              let cls = (Ir.Vec.get st.Machine.heap (v - 1)).(0) in
              if cls >= 0 then rsite_record rlog rs cls
            end
          in
          (match operand with
          | Lir.Reg r ->
              dyn (fun st ->
                  record st (Machine.reg st.Machine.stk st.Machine.fp r))
          | Lir.Imm n -> dyn (fun st -> record st n))
      | hook, _ ->
          (* same run-time failure (message and timing) as the legacy
             dispatch: the charge lands, then the hook is rejected *)
          dyn (fun _st ->
              raise
                (Machine.Runtime_error
                   (Printf.sprintf
                      "unknown instrumentation hook %s (or bad payload)" hook))));
  {
    prog;
    names;
    rc;
    cinfo;
    calls;
    sums;
    active;
    psite_mid = Array.init (Ir.Vec.length psite_mid) (Ir.Vec.get psite_mid);
    psite_start =
      Array.init (Ir.Vec.length psite_start) (Ir.Vec.get psite_start);
    vlog;
    rlog;
    croot;
    cwalks;
    n_events;
  }

let recorder t = t.rc
let n_events t = t.n_events

(* ------------------------------------------------------------------ *)
(* Live read API + event minting (adaptive tier)                        *)
(* ------------------------------------------------------------------ *)

(* Pure reads over the flat buffers: the adaptive controller consults
   them mid-run without touching any state [decode] depends on. *)

let live_edge_counts t =
  let r = t.rc in
  let out = ref [] in
  for i = r.Machine.n_touch - 1 downto 0 do
    let c = r.Machine.touch.(i) in
    match t.cinfo.(c) with
    | C_edge (mid, src, dst) ->
        out := (mid, src, dst, r.Machine.counts.(c)) :: !out
    | C_field _ -> ()
  done;
  !out

let live_call_edges t =
  List.init t.calls.n (fun j ->
      (t.calls.k1.(j), t.calls.k2.(j), t.calls.k3.(j), t.calls.cnt.(j)))

(* Mint a fresh event id for a cloned call_edge op whose recording key is
   known statically (the adaptive inliner splices callee bodies into the
   caller, so [fr.from_meth]/[fr.from_site] would name the wrong edge).
   The minted closure bumps the same table with the same key triple the
   original dynamic event would have used, so live reads, decode and the
   first-touch order are indistinguishable from the uninlined run. *)

let ensure_event_capacity (r : Machine.flat_recorder) n =
  let cap = Array.length r.Machine.ev_cost in
  if n >= cap then begin
    let ncap = max (2 * cap) (n + 1) in
    let grow a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    r.Machine.ev_cost <- grow r.Machine.ev_cost 0;
    r.Machine.ev_counter <- grow r.Machine.ev_counter (-1);
    r.Machine.dyn <- grow r.Machine.dyn nop
  end

let mint_call_edge t ~caller ~site ~callee (op : Lir.instrument_op) =
  (match (op.Lir.hook, op.Lir.payload) with
  | "call_edge", Lir.P_unit -> ()
  | _ -> invalid_arg "Slots.mint_call_edge: not a call_edge op");
  let r = t.rc in
  let ev = t.n_events in
  t.n_events <- ev + 1;
  ensure_event_capacity r ev;
  op.Lir.slot <- ev;
  r.Machine.ev_cost.(ev) <- Collector.op_cost op;
  r.Machine.ev_counter.(ev) <- -1;
  let calls = t.calls in
  r.Machine.dyn.(ev) <- (fun _st -> itab_bump calls caller site callee)

(* ------------------------------------------------------------------ *)
(* End-of-run decode                                                    *)
(* ------------------------------------------------------------------ *)

let decode t : Collector.t =
  let col = Collector.create () in
  let r = t.rc in
  (* statically-keyed counters, replayed in first-touch order so the
     rebuilt tables get the legacy insertion sequence *)
  for i = 0 to r.Machine.n_touch - 1 do
    let c = r.Machine.touch.(i) in
    let n = r.Machine.counts.(c) in
    match t.cinfo.(c) with
    | C_edge (mid, src, dst) ->
        Edge_profile.bump col.Collector.edges ~meth:t.names.(mid) ~src ~dst ~n
    | C_field (field, is_write) ->
        Field_access.bump col.Collector.fields ~field ~is_write ~n
  done;
  (* call edges: dense entries are already in first-event order *)
  for j = 0 to t.calls.n - 1 do
    let caller_mid = t.calls.k1.(j) in
    let caller =
      if caller_mid < 0 then thread_start else t.names.(caller_mid)
    in
    Call_edge.bump col.Collector.call_edges ~caller ~site:t.calls.k2.(j)
      ~callee:t.names.(t.calls.k3.(j)) ~n:t.calls.cnt.(j)
  done;
  if Call_edge.distinct_edges col.Collector.call_edges <> t.calls.n then
    failwith
      "Slots.decode: method-ref interning changed the number of distinct \
       call edges";
  (* Ball-Larus path sums *)
  for j = 0 to t.sums.n - 1 do
    let site = t.sums.k1.(j) in
    Path_profile.bump col.Collector.paths
      ~meth:t.names.(t.psite_mid.(site))
      ~start:t.psite_start.(site) ~path:t.sums.k2.(j) ~n:t.sums.cnt.(j)
  done;
  (* regions still open at end of run (their frame never flushed) *)
  for i = 0 to t.active.amask do
    if t.active.ak.(i) >= 0 then begin
      let site = t.active.asite.(i) in
      Path_profile.restore_active col.Collector.paths ~frame:t.active.ak.(i)
        ~meth:t.names.(t.psite_mid.(site))
        ~start:t.psite_start.(site) ~sum:t.active.asum.(i)
    end
  done;
  (* value TNV sites, in first-event order; entries front-first *)
  Ir.Vec.iter
    (fun vs ->
      Value_profile.set_site col.Collector.values ~meth:t.names.(vs.v_mid)
        ~site:vs.v_site
        ~entries:(List.init vs.v_n (fun i -> (vs.v_vals.(i), vs.v_cnts.(i))))
        ~total:vs.v_total)
    t.vlog;
  (* receiver-class sites, in first-event order *)
  Ir.Vec.iter
    (fun rs ->
      Receiver_profile.set_site col.Collector.receivers
        ~meth:t.names.(rs.r_mid) ~site:rs.r_site
        ~classes:
          (List.init rs.r_n (fun i ->
               ( t.prog.Program.classes.(rs.r_cls.(i)).Program.cls_name,
                 rs.r_cnts.(i) )))
        ~total:rs.r_total)
    t.rlog;
  (* calling-context tree: children replayed in first-walk order *)
  Cct.import col.Collector.cct ~walks:!(t.cwalks) ~root:t.croot
    ~children:(fun n ->
      List.init n.c_n (fun i -> ((t.names.(n.ckm.(i)), n.cks.(i)), n.cch.(i))))
    ~count:(fun n -> n.c_count);
  col

(* ------------------------------------------------------------------ *)
(* Hook constructors                                                    *)
(* ------------------------------------------------------------------ *)

(* Every op of the program got a slot in [create], so [on_instrument]
   should be unreachable; failing loudly (rather than silently dropping
   the event) turns a pre-pass bug into a test failure.  [instr_cost]
   still answers for unresolved ops. *)
let escaped _ctx (op : Lir.instrument_op) =
  raise
    (Machine.Runtime_error
       ("instrument op escaped slot resolution: " ^ op.Lir.hook))

let hooks _t sampler =
  {
    Vm.Interp.fire = (fun tid -> Core.Sampler.fire sampler tid);
    on_timer_tick = (fun () -> Core.Sampler.on_timer_tick sampler);
    on_instrument = escaped;
    instr_cost = Collector.op_cost;
  }

let null_sampler_hooks _t =
  {
    Vm.Interp.fire = (fun _ -> false);
    on_timer_tick = ignore;
    on_instrument = escaped;
    instr_cost = Collector.op_cost;
  }
