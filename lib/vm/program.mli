(** Linked program: symbolic references resolved to dense ids, virtual
    dispatch tables built, code addresses assigned.

    Linking takes the class metadata plus the (possibly optimized and/or
    instrumented) LIR bodies, so the same classes can be linked against
    different transformed code — exactly how the experiments compare
    baseline vs. instrumented executions of one program. *)

type meth = {
  id : int;
  mref : Ir.Lir.method_ref;
  func : Ir.Lir.func;
  n_args : int; (* receiver included for virtual methods *)
  code_addr : int array; (* per-label start address; -1 for dead blocks *)
}

type cls = {
  cid : int;
  cls_name : string;
  super : int option;
  n_fields : int;
  vtable : (string, int) Hashtbl.t; (* method name -> method id *)
}

type cache_slot = ..
(** Extension point for per-program derived data; {!Vm.Engine} hangs its
    compiled-code cache here so it is dropped with the program. *)

type t = {
  classes : cls array;
  methods : meth array;
  class_id_of_name : (string, int) Hashtbl.t;
  static_method : (string, int) Hashtbl.t; (* "C.m" -> method id *)
  field_offset : (string, int) Hashtbl.t; (* "C.f" -> object slot *)
  static_offset : (string, int) Hashtbl.t; (* "C.f" -> globals slot *)
  n_statics : int;
  total_code_words : int; (* code size after layout, in instruction words *)
  version : int array;
      (* per method id: the version number of [methods.(id)]; 0 is the
         linked one, and {!install} numbers the rest *)
  versions : meth Ir.Vec.t array;
      (* per method id: every version ever installed, by number *)
  mutable engine_cache : cache_slot option; (* see {!cache_slot} *)
}

exception Link_error of string

val link :
  ?layout_override:(string * string list) list ->
  Bytecode.Classfile.program ->
  funcs:Ir.Lir.func list ->
  t
(** Raises {!Link_error} on unresolved references or missing bodies.

    [layout_override] reorders the instance fields a class itself declares
    (e.g. hot-first, from a sampled field-access profile): fields listed
    come first in the given order, the rest keep their declaration order.
    Subclass layouts stay consistent because each class only permutes its
    own segment. *)

val install : t -> meth -> unit
(** Make [m] the current version of method [m.id]: [methods.(m.id)]
    becomes [m], and [version.(m.id)] its version number — a fresh one,
    unless the same record ([==]) was installed before, which keeps its
    number.  A VM frame names the version it runs by this number. *)

val version_meth : t -> int -> int -> meth
(** [version_meth t id v]: version [v] of method [id]. *)

val method_by_ref : t -> Ir.Lir.method_ref -> meth
(** Static lookup ("C.m"); raises {!Link_error} when absent. *)

val code_size_words : Ir.Lir.func -> int
(** Size in instruction words of a single function (live blocks only,
    terminator counted as one word). *)

val layout_func : Ir.Lir.func -> int -> int array * int
(** [layout_func f base]: assign per-label code addresses starting at
    [base] — original and check blocks first, duplicated blocks after
    ("out of the common path"), dead blocks -1.  Returns the address
    array and the next free address.  Exposed for the adaptive tier,
    which lays out recompiled method versions at fresh addresses. *)
