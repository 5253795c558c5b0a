module Lir = Ir.Lir
module Classfile = Bytecode.Classfile

type meth = {
  id : int;
  mref : Lir.method_ref;
  func : Lir.func;
  n_args : int;
  code_addr : int array;
}

type cls = {
  cid : int;
  cls_name : string;
  super : int option;
  n_fields : int;
  vtable : (string, int) Hashtbl.t;
}

(* Extension point for per-program caches (the compiled-code cache of
   the closure engine lives here, so its lifetime is tied to the linked
   program rather than a global table). *)
type cache_slot = ..

type t = {
  classes : cls array;
  methods : meth array;
  class_id_of_name : (string, int) Hashtbl.t;
  static_method : (string, int) Hashtbl.t;
  field_offset : (string, int) Hashtbl.t;
  static_offset : (string, int) Hashtbl.t;
  n_statics : int;
  total_code_words : int;
  version : int array;
  versions : meth Ir.Vec.t array;
  mutable engine_cache : cache_slot option;
}

exception Link_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Link_error m)) fmt

let code_size_words (f : Lir.func) =
  let n = ref 0 in
  Ir.Vec.iter
    (fun (b : Lir.block) ->
      if b.Lir.role <> Lir.Dead then n := !n + Array.length b.Lir.instrs + 1)
    f.Lir.blocks;
  !n

(* Lay out one function starting at [base]: original and check blocks first
   (the hot path), duplicated blocks after them ("out of the common path",
   paper section 3).  Returns (per-label addresses, next free address). *)
let layout_func (f : Lir.func) base =
  let n = Lir.num_blocks f in
  let addr = Array.make n (-1) in
  let cursor = ref base in
  let place l (b : Lir.block) =
    addr.(l) <- !cursor;
    cursor := !cursor + Array.length b.Lir.instrs + 1
  in
  for l = 0 to n - 1 do
    let b = Lir.block f l in
    match b.Lir.role with
    | Lir.Orig | Lir.Check_block -> place l b
    | Lir.Dup | Lir.Dead -> ()
  done;
  for l = 0 to n - 1 do
    let b = Lir.block f l in
    if b.Lir.role = Lir.Dup then place l b
  done;
  (addr, !cursor)

let apply_layout_override overrides (cf : Classfile.program) =
  match overrides with
  | [] -> cf
  | _ ->
      List.map
        (fun (c : Classfile.cls) ->
          match List.assoc_opt c.Classfile.cname overrides with
          | None -> c
          | Some hot_first ->
              let hot =
                List.filter (fun f -> List.mem f c.Classfile.fields) hot_first
              in
              let rest =
                List.filter (fun f -> not (List.mem f hot)) c.Classfile.fields
              in
              { c with Classfile.fields = hot @ rest })
        cf

let link ?(layout_override = []) (cf : Classfile.program) ~funcs =
  let cf = apply_layout_override layout_override cf in
  (* classes *)
  let class_id_of_name = Hashtbl.create 16 in
  List.iteri
    (fun i (c : Classfile.cls) ->
      if Hashtbl.mem class_id_of_name c.Classfile.cname then
        err "duplicate class %s" c.Classfile.cname;
      Hashtbl.add class_id_of_name c.Classfile.cname i)
    cf;
  (* field layout: instance fields get per-class object offsets; the offset
     of a field is fixed by its declaring class, shared by all subclasses *)
  let field_offset = Hashtbl.create 64 in
  let static_offset = Hashtbl.create 64 in
  let n_statics = ref 0 in
  let n_fields_of = Hashtbl.create 16 in
  List.iter
    (fun (c : Classfile.cls) ->
      let layout = Classfile.instance_layout cf c in
      Hashtbl.replace n_fields_of c.Classfile.cname (List.length layout);
      List.iteri
        (fun i (decl_cls, fname) ->
          let key = decl_cls ^ "." ^ fname in
          match Hashtbl.find_opt field_offset key with
          | Some off ->
              if off <> i then
                err "inconsistent layout for field %s (offsets %d and %d)" key
                  off i
          | None -> Hashtbl.add field_offset key i)
        layout;
      List.iter
        (fun fname ->
          let key = c.Classfile.cname ^ "." ^ fname in
          Hashtbl.add static_offset key !n_statics;
          incr n_statics)
        c.Classfile.static_fields)
    cf;
  (* methods: id per (class, name) as declared; funcs provide the bodies *)
  let func_of = Hashtbl.create 64 in
  List.iter
    (fun (f : Lir.func) ->
      Hashtbl.replace func_of (Lir.string_of_method_ref f.Lir.fname) f)
    funcs;
  let methods = ref [] in
  let static_method = Hashtbl.create 64 in
  let next_meth = ref 0 in
  let cursor = ref 0 in
  List.iter
    (fun (c : Classfile.cls) ->
      List.iter
        (fun (m : Classfile.meth) ->
          let key = c.Classfile.cname ^ "." ^ m.Classfile.mname in
          let func =
            match Hashtbl.find_opt func_of key with
            | Some f -> f
            | None -> err "no LIR body for method %s" key
          in
          let addr, next = layout_func func !cursor in
          cursor := next;
          let n_args =
            m.Classfile.n_args + if m.Classfile.static then 0 else 1
          in
          let id = !next_meth in
          incr next_meth;
          Hashtbl.add static_method key id;
          methods :=
            {
              id;
              mref = { Lir.mclass = c.Classfile.cname; mname = m.Classfile.mname };
              func;
              n_args;
              code_addr = addr;
            }
            :: !methods)
        c.Classfile.methods)
    cf;
  let methods = Array.of_list (List.rev !methods) in
  (* vtables: walk ancestry most-derived first; first definition wins *)
  let classes =
    Array.of_list
      (List.mapi
         (fun i (c : Classfile.cls) ->
           let vtable = Hashtbl.create 8 in
           List.iter
             (fun (a : Classfile.cls) ->
               List.iter
                 (fun (m : Classfile.meth) ->
                   if not (Hashtbl.mem vtable m.Classfile.mname) then
                     Hashtbl.add vtable m.Classfile.mname
                       (Hashtbl.find static_method
                          (a.Classfile.cname ^ "." ^ m.Classfile.mname)))
                 a.Classfile.methods)
             (Classfile.ancestry cf c);
           let super =
             match c.Classfile.super with
             | None -> None
             | Some s -> (
                 match Hashtbl.find_opt class_id_of_name s with
                 | Some id -> Some id
                 | None -> err "unknown superclass %s of %s" s c.Classfile.cname)
           in
           {
             cid = i;
             cls_name = c.Classfile.cname;
             super;
             n_fields = Hashtbl.find n_fields_of c.Classfile.cname;
             vtable;
           })
         cf)
  in
  {
    classes;
    methods;
    class_id_of_name;
    static_method;
    field_offset;
    static_offset;
    n_statics = !n_statics;
    total_code_words = !cursor;
    version = Array.make (Array.length methods) 0;
    versions = Array.map (fun m -> Ir.Vec.of_list [ m ]) methods;
    engine_cache = None;
  }

let version_meth t id v = Ir.Vec.get t.versions.(id) v

(* A re-installed record keeps the number it was first given, so a
   version number names one [meth] record exactly. *)
let install t (m : meth) =
  let id = m.id in
  let vs = t.versions.(id) in
  let rec find v =
    if v >= Ir.Vec.length vs then Ir.Vec.push vs m
    else if Ir.Vec.get vs v == m then v
    else find (v + 1)
  in
  t.version.(id) <- find 0;
  t.methods.(id) <- m

let method_by_ref t (mref : Lir.method_ref) =
  match Hashtbl.find_opt t.static_method (Lir.string_of_method_ref mref) with
  | Some id -> t.methods.(id)
  | None -> err "unresolved method %s" (Lir.string_of_method_ref mref)
