(* The straight-line word compiler of the Fast engine's per-word chains
   (Engine): the one place, beside the reference [Machine.step], that
   spells out what each straight-line LIR word does and what it costs,
   and the home of the per-word preamble ([advance]) with its inlined
   i-cache probe.  DESIGN.md §5 gives why a chain step is bit-identical
   to a reference step ("Compiling straight-line words"), and why the
   preamble keeps word closures frame-free and may skip a same-line
   probe ("Word preamble and frame layout"). *)

module Lir = Ir.Lir
open Machine

type k = state -> unit

(* The i-cache line size compiled into every instruction probe: the
   machine's i-cache is always [Icache.create ()] ([Engine.exec] checks
   it), so a word's line is [addr lsr Icache.default_shift]. *)
let line_of addr = addr lsr Icache.default_shift

(* the miss side of [Icache.access], charged *)
let[@inline] install st (c : Icache.t) (tags : int array) i line =
  Array.unsafe_set tags i line;
  c.Icache.miss_count <- c.Icache.miss_count + 1;
  charge st st.costs.Costs.icache_miss

(* [Icache.access] spelled out for a line already computed *)
let[@inline] icache_probe st line =
  match st.icache with
  | None -> ()
  | Some c ->
      let tags = c.Icache.tags in
      let i = line land c.Icache.mask in
      if Array.unsafe_get tags i <> line then install st c tags i line

(* d-cache probe: run-time address, the cache's own geometry *)
let[@inline] data_probe st (c : Icache.t) addr =
  let line = addr lsr c.Icache.shift in
  let tags = c.Icache.tags in
  let i = line land c.Icache.mask in
  if Array.unsafe_get tags i <> line then install st c tags i line

let[@inline] data_access st addr =
  match st.dcache with None -> () | Some c -> data_probe st c addr

(* word [i] of heap cell [r]: the address is only computed when a
   d-cache is present to probe *)
let[@inline] data_access_cell st r i =
  match st.dcache with
  | None -> ()
  | Some c ->
      data_probe st c
        (Array.unsafe_get st.heap_addrs.Ir.Vec.data (r - 1) + i)

(* Heap access and its faults.  The faults are out of line, so the
   register forms of the heap words reach them by tail call and keep no
   stack frame. *)
let[@inline] live st r = r > 0 && r <= st.heap.Ir.Vec.len
let[@inline] cell st r = Array.unsafe_get st.heap.Ir.Vec.data (r - 1)

let[@inline never] bad_ref r =
  if r <= 0 then rt_err "null dereference" else rt_err "dangling reference %d" r

let[@inline never] not_obj () = rt_err "expected object, found array"
let[@inline never] not_arr () = rt_err "expected array, found object"
let[@inline never] div_zero () = rt_err "division by zero"

let[@inline never] bad_index i mstr =
  rt_err "array index %d out of bounds (%s)" i mstr

let[@inline] obj_fields st r =
  if not (live st r) then bad_ref r
  else match cell st r with Obj o -> o.fields | Arr _ -> not_obj ()

let[@inline] arr_cells st r =
  if not (live st r) then bad_ref r
  else match cell st r with Arr a -> a | Obj _ -> not_arr ()

let cop = function
  | Lir.Reg r -> fun (fr : frame) -> fr.regs.(r)
  | Lir.Imm n -> fun (_ : frame) -> n

let binop_fn = function
  | Lir.Add -> ( + )
  | Lir.Sub -> ( - )
  | Lir.Mul -> ( * )
  | Lir.Div -> fun a b -> if b = 0 then div_zero () else a / b
  | Lir.Rem -> fun a b -> if b = 0 then div_zero () else a mod b
  | Lir.And -> ( land )
  | Lir.Or -> ( lor )
  | Lir.Xor -> ( lxor )
  | Lir.Shl -> fun a b -> a lsl (b land 31)
  | Lir.Shr -> fun a b -> a asr (b land 31)
  | Lir.Lt -> fun a b -> if a < b then 1 else 0
  | Lir.Le -> fun a b -> if a <= b then 1 else 0
  | Lir.Gt -> fun a b -> if a > b then 1 else 0
  | Lir.Ge -> fun a b -> if a >= b then 1 else 0
  | Lir.Eq -> fun a b -> if a = b then 1 else 0
  | Lir.Ne -> fun a b -> if a <> b then 1 else 0

let is_straight = function
  | Lir.Move _ | Lir.Unop _ | Lir.Binop _ | Lir.Get_field _ | Lir.Put_field _
  | Lir.Get_static _ | Lir.Put_static _ | Lir.New_object _ | Lir.Array_load _
  | Lir.Array_store _ | Lir.Array_length _ | Lir.Instance_test _ ->
      true
  | Lir.Intrinsic { name = "print" | "rand"; args = [ _ ]; _ } -> true
  | Lir.Intrinsic _ | Lir.New_array _ | Lir.Call _ | Lir.Yieldpoint _
  | Lir.Instrument _ | Lir.Guarded_instrument _ ->
      false

(* The word's static cycle charge, made before any of its effects (an
   unknown class raises before it). *)
let cost (costs : Costs.t) (prog : Program.t) ins =
  match ins with
  | Lir.Move _ -> costs.Costs.move
  | Lir.Unop _ | Lir.Binop _ -> costs.Costs.alu
  | Lir.Get_field _ | Lir.Put_field _ | Lir.Get_static _ | Lir.Put_static _
  | Lir.Array_load _ | Lir.Array_store _ | Lir.Array_length _ ->
      costs.Costs.mem
  | Lir.Instance_test _ -> costs.Costs.mem + costs.Costs.alu
  | Lir.New_object (_, cname) -> (
      match Hashtbl.find_opt prog.Program.class_id_of_name cname with
      | Some cid ->
          let n = prog.Program.classes.(cid).Program.n_fields in
          costs.Costs.alloc_base + (costs.Costs.alloc_per_slot * n)
      | None -> 0)
  | Lir.Intrinsic _ when is_straight ins -> costs.Costs.intrinsic
  | _ -> invalid_arg "Straight.cost: not a straight-line word"

(* The per-word preamble before word [ni] on line [line]: fuel gate,
   instruction count, i-cache probe (skipped when [probe] is false: a
   same-line fallthrough, whose probe is a guaranteed hit, DESIGN.md §5),
   then a tail call of [next].  Its hot path makes no other call, so a
   word closure that ends in it needs no stack frame.  The gate's cold
   path is [trip], out of line: when the reference run loop checks fuel
   before word [ni], its [step] has already advanced [fr.idx] to [ni],
   so [trip] writes it first and an out-of-fuel message names the same
   pc on both engines.  A fault event applied by [guard_trip] may flush
   the i-cache, so [trip] always probes. *)
let[@inline never] trip st next ni line =
  st.cur_fr.idx <- ni;
  guard_trip st;
  st.instructions <- st.instructions + 1;
  icache_probe st line;
  next st

let[@inline] advance st ~next ~ni ~line ~probe =
  if st.cycles > st.guard_gate then trip st next ni line
  else begin
    st.instructions <- st.instructions + 1;
    if probe then icache_probe st line;
    next st
  end

let[@inline] advance_addr st ~next ~ni ~naddr =
  advance st ~next ~ni ~line:(line_of naddr) ~probe:true

(* Word [ins]'s closure.  Each closure captures [next], [ni], [line] and
   [probe] itself and ends in [advance]: no shared continuation closure
   whose environment it would have to load them from (DESIGN.md §5,
   "Word preamble and frame layout"). *)
let compile (costs : Costs.t) (prog : Program.t) (m : Program.meth) ~(next : k)
    ~ni ~line ~probe (ins : Lir.instr) : k =
  let c = cost costs prog ins in
  match ins with
  | Lir.Move (r, Lir.Imm n) ->
      fun st ->
        charge st c;
        st.cur_fr.regs.(r) <- n;
        advance st ~next ~ni ~line ~probe
  | Lir.Move (r, Lir.Reg s) ->
      fun st ->
        charge st c;
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(s);
        advance st ~next ~ni ~line ~probe
  | Lir.Unop (r, op, a) -> (
      match (op, a) with
      | Lir.Neg, Lir.Reg s ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- -regs.(s);
            advance st ~next ~ni ~line ~probe
      | Lir.Not, Lir.Reg s ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(s) = 0 then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Neg, Lir.Imm n ->
          let v = -n in
          fun st ->
            charge st c;
            st.cur_fr.regs.(r) <- v;
            advance st ~next ~ni ~line ~probe
      | Lir.Not, Lir.Imm n ->
          let v = if n = 0 then 1 else 0 in
          fun st ->
            charge st c;
            st.cur_fr.regs.(r) <- v;
            advance st ~next ~ni ~line ~probe)
  | Lir.Binop (r, op, a, b) -> (
      match (op, a, b) with
      (* hand-specialized hot operators: without flambda a shared
         [binop_fn] closure costs an indirect call per ALU op *)
      | Lir.Add, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) + regs.(y);
            advance st ~next ~ni ~line ~probe
      | Lir.Add, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) + n;
            advance st ~next ~ni ~line ~probe
      | Lir.Sub, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) - regs.(y);
            advance st ~next ~ni ~line ~probe
      | Lir.Sub, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) - n;
            advance st ~next ~ni ~line ~probe
      | Lir.Mul, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) * regs.(y);
            advance st ~next ~ni ~line ~probe
      | Lir.Mul, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) * n;
            advance st ~next ~ni ~line ~probe
      | Lir.And, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) land regs.(y);
            advance st ~next ~ni ~line ~probe
      | Lir.And, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) land n;
            advance st ~next ~ni ~line ~probe
      | Lir.Or, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) lor regs.(y);
            advance st ~next ~ni ~line ~probe
      | Lir.Or, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) lor n;
            advance st ~next ~ni ~line ~probe
      | Lir.Xor, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) lxor regs.(y);
            advance st ~next ~ni ~line ~probe
      | Lir.Xor, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) lxor n;
            advance st ~next ~ni ~line ~probe
      | Lir.Lt, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) < regs.(y) then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Lt, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) < n then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Le, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) <= regs.(y) then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Le, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) <= n then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Gt, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) > regs.(y) then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Gt, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) > n then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Ge, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) >= regs.(y) then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Ge, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) >= n then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Eq, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) = regs.(y) then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Eq, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) = n then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Ne, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) <> regs.(y) then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Ne, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) <> n then 1 else 0);
            advance st ~next ~ni ~line ~probe
      | Lir.Shl, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) lsl (regs.(y) land 31);
            advance st ~next ~ni ~line ~probe
      | Lir.Shr, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) asr (regs.(y) land 31);
            advance st ~next ~ni ~line ~probe
      | Lir.Shl, Lir.Reg x, Lir.Imm n ->
          let n = n land 31 in
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) lsl n;
            advance st ~next ~ni ~line ~probe
      | Lir.Shr, Lir.Reg x, Lir.Imm n ->
          let n = n land 31 in
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) asr n;
            advance st ~next ~ni ~line ~probe
      (* a zero divisor faults by tail call, keeping the frame away *)
      | Lir.Div, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            let d = regs.(y) in
            if d = 0 then div_zero ()
            else begin
              regs.(r) <- regs.(x) / d;
              advance st ~next ~ni ~line ~probe
            end
      | Lir.Rem, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            let d = regs.(y) in
            if d = 0 then div_zero ()
            else begin
              regs.(r) <- regs.(x) mod d;
              advance st ~next ~ni ~line ~probe
            end
      | Lir.Div, Lir.Reg x, Lir.Imm n when n <> 0 ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) / n;
            advance st ~next ~ni ~line ~probe
      | Lir.Rem, Lir.Reg x, Lir.Imm n when n <> 0 ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) mod n;
            advance st ~next ~ni ~line ~probe
      (* the rest (a zero immediate divisor, Imm-first shapes) through
         the shared operator table *)
      | _, Lir.Reg x, Lir.Imm n ->
          let f = binop_fn op in
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- f regs.(x) n;
            advance st ~next ~ni ~line ~probe
      | _, Lir.Imm n, Lir.Reg y ->
          let f = binop_fn op in
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- f n regs.(y);
            advance st ~next ~ni ~line ~probe
      | _, Lir.Imm n, Lir.Imm p ->
          let f = binop_fn op in
          fun st ->
            charge st c;
            st.cur_fr.regs.(r) <- f n p;
            advance st ~next ~ni ~line ~probe)
  | Lir.Get_field (r, o, fld) -> (
      match
        Hashtbl.find_opt prog.Program.field_offset (Lir.string_of_field_ref fld)
      with
      | Some off -> (
          match o with
          | Lir.Reg ro ->
              fun st ->
                charge st c;
                let regs = st.cur_fr.regs in
                let obj = regs.(ro) in
                if not (live st obj) then bad_ref obj
                else begin
                  match cell st obj with
                  | Arr _ -> not_obj ()
                  | Obj o ->
                      data_access_cell st obj off;
                      regs.(r) <- o.fields.(off);
                      advance st ~next ~ni ~line ~probe
                end
          | Lir.Imm _ as o ->
              let eo = cop o in
              fun st ->
                charge st c;
                let fr = st.cur_fr in
                let obj = eo fr in
                let fields = obj_fields st obj in
                data_access_cell st obj off;
                fr.regs.(r) <- fields.(off);
                advance st ~next ~ni ~line ~probe)
      | None ->
          let eo = cop o in
          let fstr = Lir.string_of_field_ref fld in
          fun st ->
            charge st c;
            ignore (obj_fields st (eo st.cur_fr) : int array);
            rt_err "unresolved field %s" fstr)
  | Lir.Put_field (o, fld, v) -> (
      let eo = cop o in
      match
        Hashtbl.find_opt prog.Program.field_offset (Lir.string_of_field_ref fld)
      with
      | Some off -> (
          match (o, v) with
          | Lir.Reg ro, Lir.Reg rv ->
              fun st ->
                charge st c;
                let regs = st.cur_fr.regs in
                let obj = regs.(ro) in
                if not (live st obj) then bad_ref obj
                else begin
                  match cell st obj with
                  | Arr _ -> not_obj ()
                  | Obj o ->
                      data_access_cell st obj off;
                      o.fields.(off) <- regs.(rv);
                      advance st ~next ~ni ~line ~probe
                end
          | _ ->
              let ev = cop v in
              fun st ->
                charge st c;
                let fr = st.cur_fr in
                let obj = eo fr in
                let fields = obj_fields st obj in
                data_access_cell st obj off;
                fields.(off) <- ev fr;
                advance st ~next ~ni ~line ~probe)
      | None ->
          let fstr = Lir.string_of_field_ref fld in
          fun st ->
            charge st c;
            ignore (obj_fields st (eo st.cur_fr) : int array);
            rt_err "unresolved field %s" fstr)
  | Lir.Get_static (r, fld) -> (
      match
        Hashtbl.find_opt prog.Program.static_offset
          (Lir.string_of_field_ref fld)
      with
      | Some off ->
          fun st ->
            charge st c;
            data_access st off;
            st.cur_fr.regs.(r) <- st.globals.(off);
            advance st ~next ~ni ~line ~probe
      | None ->
          let fstr = Lir.string_of_field_ref fld in
          fun st ->
            charge st c;
            rt_err "unresolved static field %s" fstr)
  | Lir.Put_static (fld, v) -> (
      match
        Hashtbl.find_opt prog.Program.static_offset
          (Lir.string_of_field_ref fld)
      with
      | Some off -> (
          match v with
          | Lir.Reg rv ->
              fun st ->
                charge st c;
                data_access st off;
                st.globals.(off) <- st.cur_fr.regs.(rv);
                advance st ~next ~ni ~line ~probe
          | Lir.Imm n ->
              fun st ->
                charge st c;
                data_access st off;
                st.globals.(off) <- n;
                advance st ~next ~ni ~line ~probe)
      | None ->
          let fstr = Lir.string_of_field_ref fld in
          fun st ->
            charge st c;
            rt_err "unresolved static field %s" fstr)
  | Lir.New_object (r, cname) -> (
      match Hashtbl.find_opt prog.Program.class_id_of_name cname with
      | Some cid ->
          let n = prog.Program.classes.(cid).Program.n_fields in
          let slots = max n 1 in
          fun st ->
            charge st c;
            st.cur_fr.regs.(r) <-
              alloc st (Obj { cls = cid; fields = Array.make slots 0 });
            advance st ~next ~ni ~line ~probe
      | None -> fun _ -> rt_err "unknown class %s" cname)
  | Lir.Array_load (r, a, i) -> (
      let mstr = Lir.string_of_method_ref m.Program.mref in
      match (a, i) with
      | Lir.Reg ra, Lir.Reg ri ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            let arr = regs.(ra) in
            if not (live st arr) then bad_ref arr
            else begin
              match cell st arr with
              | Obj _ -> not_arr ()
              | Arr cells ->
                  let i = regs.(ri) in
                  if i < 0 || i >= Array.length cells then bad_index i mstr
                  else begin
                    data_access_cell st arr i;
                    regs.(r) <- Array.unsafe_get cells i;
                    advance st ~next ~ni ~line ~probe
                  end
            end
      | _ ->
          let ea = cop a in
          let ei = cop i in
          fun st ->
            charge st c;
            let fr = st.cur_fr in
            let arr = ea fr in
            let cells = arr_cells st arr in
            let i = ei fr in
            if i < 0 || i >= Array.length cells then bad_index i mstr;
            data_access_cell st arr i;
            fr.regs.(r) <- cells.(i);
            advance st ~next ~ni ~line ~probe)
  | Lir.Array_store (a, i, v) -> (
      let mstr = Lir.string_of_method_ref m.Program.mref in
      match (a, i, v) with
      | Lir.Reg ra, Lir.Reg ri, Lir.Reg rv ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            let arr = regs.(ra) in
            if not (live st arr) then bad_ref arr
            else begin
              match cell st arr with
              | Obj _ -> not_arr ()
              | Arr cells ->
                  let i = regs.(ri) in
                  if i < 0 || i >= Array.length cells then bad_index i mstr
                  else begin
                    data_access_cell st arr i;
                    Array.unsafe_set cells i regs.(rv);
                    advance st ~next ~ni ~line ~probe
                  end
            end
      | _ ->
          let ea = cop a in
          let ei = cop i in
          let ev = cop v in
          fun st ->
            charge st c;
            let fr = st.cur_fr in
            let arr = ea fr in
            let cells = arr_cells st arr in
            let i = ei fr in
            if i < 0 || i >= Array.length cells then bad_index i mstr;
            data_access_cell st arr i;
            cells.(i) <- ev fr;
            advance st ~next ~ni ~line ~probe)
  | Lir.Array_length (r, a) ->
      let ea = cop a in
      fun st ->
        charge st c;
        let fr = st.cur_fr in
        fr.regs.(r) <- Array.length (arr_cells st (ea fr));
        advance st ~next ~ni ~line ~probe
  | Lir.Instance_test (r, o, cname) ->
      let eo = cop o in
      let cid =
        match Hashtbl.find_opt prog.Program.class_id_of_name cname with
        | Some cid -> cid
        | None -> -1 (* never matches: class names in the heap are linked *)
      in
      fun st ->
        charge st c;
        let fr = st.cur_fr in
        let v = eo fr in
        fr.regs.(r) <-
          (if v <= 0 || v > st.heap.Ir.Vec.len then 0
           else
             match Array.unsafe_get st.heap.Ir.Vec.data (v - 1) with
             | Obj obj -> if obj.cls = cid then 1 else 0
             | Arr _ -> 0);
        advance st ~next ~ni ~line ~probe
  | Lir.Intrinsic { dst = _; name = "print"; args = [ a ] } ->
      let e = cop a in
      fun st ->
        charge st c;
        Buffer.add_string st.out (string_of_int (e st.cur_fr));
        Buffer.add_char st.out '\n';
        advance st ~next ~ni ~line ~probe
  | Lir.Intrinsic { dst; name = "rand"; args = [ a ] } -> (
      match (a, dst) with
      | Lir.Reg s, Some r ->
          fun st ->
            charge st c;
            let fr = st.cur_fr in
            fr.regs.(r) <- next_rand st fr.regs.(s);
            advance st ~next ~ni ~line ~probe
      | a, Some r ->
          let e = cop a in
          fun st ->
            charge st c;
            let fr = st.cur_fr in
            fr.regs.(r) <- next_rand st (e fr);
            advance st ~next ~ni ~line ~probe
      | a, None ->
          (* the reference advances the RNG even with no destination *)
          let e = cop a in
          fun st ->
            charge st c;
            ignore (next_rand st (e st.cur_fr) : int);
            advance st ~next ~ni ~line ~probe)
  | _ -> invalid_arg "Straight.compile: not a straight-line word"
