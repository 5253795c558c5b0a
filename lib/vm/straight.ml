(* The straight-line word compiler of the Fast engine's per-word chains
   (Engine): the one place, beside the reference [Machine.step], that
   spells out what each straight-line LIR word does and what it costs,
   and the home of the per-word preamble ([advance]) with its inlined
   i-cache probe.  DESIGN.md §5 gives why a chain step is bit-identical
   to a reference step ("Compiling straight-line words") and why the hot
   helpers below are module-local copies ("Word preamble and frame
   layout"). *)

module Lir = Ir.Lir
open Machine

type k = state -> unit

(* Per-word helpers kept local so they inline into every step: under
   dune's default (dev) profile a call into Machine or Icache would be
   out of line.  The reference step keeps its own copies in Machine;
   the differential tests hold the two to the same observables. *)
let[@inline] charge st c = st.cycles <- st.cycles + c

(* [Icache.access] spelled out, charging a miss; the division/modulo
   fallback serves geometries that are not powers of two *)
let[@inline] probe st (c : Icache.t) addr =
  c.Icache.access_count <- c.Icache.access_count + 1;
  let line =
    if c.Icache.shift >= 0 then addr lsr c.Icache.shift
    else addr / c.Icache.line_words
  in
  let tags = c.Icache.tags in
  let i =
    if c.Icache.mask >= 0 then line land c.Icache.mask
    else line mod Array.length tags
  in
  if Array.unsafe_get tags i <> line then begin
    Array.unsafe_set tags i line;
    c.Icache.miss_count <- c.Icache.miss_count + 1;
    charge st st.costs.Costs.icache_miss
  end

let[@inline] icache_access st addr =
  match st.icache with None -> () | Some c -> probe st c addr

let[@inline] data_access st addr =
  match st.dcache with None -> () | Some c -> probe st c addr

(* word [i] of heap cell [r]: the address is only computed when a
   d-cache is present to probe *)
let[@inline] data_access_cell st r i =
  match st.dcache with
  | None -> ()
  | Some c ->
      probe st c (Array.unsafe_get st.heap_addrs.Ir.Vec.data (r - 1) + i)

let[@inline] heap_get st r =
  if r <= 0 then rt_err "null dereference"
  else if r > st.heap.Ir.Vec.len then rt_err "dangling reference %d" r
  else Array.unsafe_get st.heap.Ir.Vec.data (r - 1)

let[@inline] obj_fields st r =
  match heap_get st r with
  | Obj o -> o.fields
  | Arr _ -> rt_err "expected object, found array"

let[@inline] arr_cells st r =
  match heap_get st r with
  | Arr a -> a
  | Obj _ -> rt_err "expected array, found object"

let cop = function
  | Lir.Reg r -> fun (fr : frame) -> fr.regs.(r)
  | Lir.Imm n -> fun (_ : frame) -> n

let binop_fn = function
  | Lir.Add -> ( + )
  | Lir.Sub -> ( - )
  | Lir.Mul -> ( * )
  | Lir.Div -> fun a b -> if b = 0 then rt_err "division by zero" else a / b
  | Lir.Rem -> fun a b -> if b = 0 then rt_err "division by zero" else a mod b
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

(* Cold path of the per-word preamble.  When the reference run loop
   checks fuel before word [ni], its [step] has already advanced
   [fr.idx] to [ni]; writing it here makes an out-of-fuel message name
   the same pc on both engines. *)
let trip_at st ni =
  st.cur_fr.idx <- ni;
  guard_trip st

let[@inline] advance st ~next ~ni ~naddr =
  if st.cycles > st.guard_gate then trip_at st ni;
  st.instructions <- st.instructions + 1;
  icache_access st naddr;
  next st

let compile (costs : Costs.t) (prog : Program.t) (m : Program.meth) ~(next : k)
    ~ni ~naddr (ins : Lir.instr) : k =
  let[@inline] cont st = advance st ~next ~ni ~naddr in
  let c = cost costs prog ins in
  match ins with
  | Lir.Move (r, Lir.Imm n) ->
      fun st ->
        charge st c;
        st.cur_fr.regs.(r) <- n;
        cont st
  | Lir.Move (r, Lir.Reg s) ->
      fun st ->
        charge st c;
        let regs = st.cur_fr.regs in
        regs.(r) <- regs.(s);
        cont st
  | Lir.Unop (r, op, a) -> (
      match (op, a) with
      | Lir.Neg, Lir.Reg s ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- -regs.(s);
            cont st
      | Lir.Not, Lir.Reg s ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(s) = 0 then 1 else 0);
            cont st
      | Lir.Neg, Lir.Imm n ->
          let v = -n in
          fun st ->
            charge st c;
            st.cur_fr.regs.(r) <- v;
            cont st
      | Lir.Not, Lir.Imm n ->
          let v = if n = 0 then 1 else 0 in
          fun st ->
            charge st c;
            st.cur_fr.regs.(r) <- v;
            cont st)
  | Lir.Binop (r, op, a, b) -> (
      match (op, a, b) with
      (* hand-specialized hot operators: without flambda a shared
         [binop_fn] closure costs an indirect call per ALU op *)
      | Lir.Add, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) + regs.(y);
            cont st
      | Lir.Add, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) + n;
            cont st
      | Lir.Sub, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) - regs.(y);
            cont st
      | Lir.Sub, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) - n;
            cont st
      | Lir.Mul, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) * regs.(y);
            cont st
      | Lir.Mul, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) * n;
            cont st
      | Lir.And, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) land regs.(y);
            cont st
      | Lir.And, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) land n;
            cont st
      | Lir.Or, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) lor regs.(y);
            cont st
      | Lir.Or, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) lor n;
            cont st
      | Lir.Xor, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) lxor regs.(y);
            cont st
      | Lir.Xor, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- regs.(x) lxor n;
            cont st
      | Lir.Lt, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) < regs.(y) then 1 else 0);
            cont st
      | Lir.Lt, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) < n then 1 else 0);
            cont st
      | Lir.Le, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) <= regs.(y) then 1 else 0);
            cont st
      | Lir.Le, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) <= n then 1 else 0);
            cont st
      | Lir.Gt, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) > regs.(y) then 1 else 0);
            cont st
      | Lir.Gt, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) > n then 1 else 0);
            cont st
      | Lir.Ge, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) >= regs.(y) then 1 else 0);
            cont st
      | Lir.Ge, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) >= n then 1 else 0);
            cont st
      | Lir.Eq, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) = regs.(y) then 1 else 0);
            cont st
      | Lir.Eq, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) = n then 1 else 0);
            cont st
      | Lir.Ne, Lir.Reg x, Lir.Reg y ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) <> regs.(y) then 1 else 0);
            cont st
      | Lir.Ne, Lir.Reg x, Lir.Imm n ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- (if regs.(x) <> n then 1 else 0);
            cont st
      (* the rest (shifts, division, Imm-first shapes) through the
         shared operator table *)
      | _, Lir.Reg x, Lir.Reg y ->
          let f = binop_fn op in
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- f regs.(x) regs.(y);
            cont st
      | _, Lir.Reg x, Lir.Imm n ->
          let f = binop_fn op in
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- f regs.(x) n;
            cont st
      | _, Lir.Imm n, Lir.Reg y ->
          let f = binop_fn op in
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            regs.(r) <- f n regs.(y);
            cont st
      | _, Lir.Imm n, Lir.Imm p ->
          let f = binop_fn op in
          fun st ->
            charge st c;
            st.cur_fr.regs.(r) <- f n p;
            cont st)
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
                let fields = obj_fields st obj in
                data_access_cell st obj off;
                regs.(r) <- fields.(off);
                cont st
          | Lir.Imm _ as o ->
              let eo = cop o in
              fun st ->
                charge st c;
                let fr = st.cur_fr in
                let obj = eo fr in
                let fields = obj_fields st obj in
                data_access_cell st obj off;
                fr.regs.(r) <- fields.(off);
                cont st)
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
                let fields = obj_fields st obj in
                data_access_cell st obj off;
                fields.(off) <- regs.(rv);
                cont st
          | _ ->
              let ev = cop v in
              fun st ->
                charge st c;
                let fr = st.cur_fr in
                let obj = eo fr in
                let fields = obj_fields st obj in
                data_access_cell st obj off;
                fields.(off) <- ev fr;
                cont st)
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
            cont st
      | None ->
          let fstr = Lir.string_of_field_ref fld in
          fun st ->
            charge st c;
            rt_err "unresolved static field %s" fstr)
  | Lir.Put_static (fld, v) -> (
      let ev = cop v in
      match
        Hashtbl.find_opt prog.Program.static_offset
          (Lir.string_of_field_ref fld)
      with
      | Some off ->
          fun st ->
            charge st c;
            data_access st off;
            st.globals.(off) <- ev st.cur_fr;
            cont st
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
            cont st
      | None -> fun _ -> rt_err "unknown class %s" cname)
  | Lir.Array_load (r, a, i) -> (
      let mstr = Lir.string_of_method_ref m.Program.mref in
      match (a, i) with
      | Lir.Reg ra, Lir.Reg ri ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            let arr = regs.(ra) in
            let cells = arr_cells st arr in
            let i = regs.(ri) in
            if i < 0 || i >= Array.length cells then
              rt_err "array index %d out of bounds (%s)" i mstr;
            data_access_cell st arr i;
            regs.(r) <- cells.(i);
            cont st
      | _ ->
          let ea = cop a in
          let ei = cop i in
          fun st ->
            charge st c;
            let fr = st.cur_fr in
            let arr = ea fr in
            let cells = arr_cells st arr in
            let i = ei fr in
            if i < 0 || i >= Array.length cells then
              rt_err "array index %d out of bounds (%s)" i mstr;
            data_access_cell st arr i;
            fr.regs.(r) <- cells.(i);
            cont st)
  | Lir.Array_store (a, i, v) -> (
      let mstr = Lir.string_of_method_ref m.Program.mref in
      match (a, i, v) with
      | Lir.Reg ra, Lir.Reg ri, Lir.Reg rv ->
          fun st ->
            charge st c;
            let regs = st.cur_fr.regs in
            let arr = regs.(ra) in
            let cells = arr_cells st arr in
            let i = regs.(ri) in
            if i < 0 || i >= Array.length cells then
              rt_err "array index %d out of bounds (%s)" i mstr;
            data_access_cell st arr i;
            cells.(i) <- regs.(rv);
            cont st
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
            if i < 0 || i >= Array.length cells then
              rt_err "array index %d out of bounds (%s)" i mstr;
            data_access_cell st arr i;
            cells.(i) <- ev fr;
            cont st)
  | Lir.Array_length (r, a) ->
      let ea = cop a in
      fun st ->
        charge st c;
        let fr = st.cur_fr in
        fr.regs.(r) <- Array.length (arr_cells st (ea fr));
        cont st
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
        cont st
  | Lir.Intrinsic { dst = _; name = "print"; args = [ a ] } ->
      let e = cop a in
      fun st ->
        charge st c;
        Buffer.add_string st.out (string_of_int (e st.cur_fr));
        Buffer.add_char st.out '\n';
        cont st
  | Lir.Intrinsic { dst; name = "rand"; args = [ a ] } -> (
      match (a, dst) with
      | Lir.Reg s, Some r ->
          fun st ->
            charge st c;
            let fr = st.cur_fr in
            fr.regs.(r) <- next_rand st fr.regs.(s);
            cont st
      | a, Some r ->
          let e = cop a in
          fun st ->
            charge st c;
            let fr = st.cur_fr in
            fr.regs.(r) <- next_rand st (e fr);
            cont st
      | a, None ->
          (* the reference advances the RNG even with no destination *)
          let e = cop a in
          fun st ->
            charge st c;
            ignore (next_rand st (e st.cur_fr) : int);
            cont st)
  | _ -> invalid_arg "Straight.compile: not a straight-line word"
