(** Straight-line word compiler of {!Engine}'s per-word chains: one
    closure step for each word that cannot suspend, reschedule or hand
    control to the dispatcher — Move, Unop, Binop, Get/Put_field,
    Get/Put_static, New_object, Array_load/store, Array_length,
    Instance_test and the one-argument [print]/[rand] intrinsics — and
    the per-word preamble every step ends with (DESIGN.md §5). *)

type k = Machine.state -> unit

val is_straight : Ir.Lir.instr -> bool

val cop : Ir.Lir.operand -> Machine.frame -> int
(** Operand evaluator resolved at compile time. *)

val line_of : int -> int
(** The i-cache line of an instruction address under the machine's
    fixed i-cache geometry ({!Icache.default_shift}). *)

val advance :
  Machine.state -> next:k -> ni:int -> line:int -> probe:bool -> unit
(** Continue after a word: perform the dispatcher's per-word preamble
    for word [ni] on i-cache line [line] — fuel check (writing the exact
    pc on its out-of-line cold path, which always probes), instruction
    count, i-cache probe unless [probe] is false — then tail-call
    [next].  [probe = false] is only sound for a fallthrough into a word
    on the line its predecessor was entered on (DESIGN.md §5). *)

val advance_addr : Machine.state -> next:k -> ni:int -> naddr:int -> unit
(** {!advance} for a word at the run-time address [naddr], always
    probing: returns, calls and the dispatcher. *)

val compile :
  Costs.t -> Program.t -> Program.meth -> next:k -> ni:int -> line:int ->
  probe:bool -> Ir.Lir.instr -> k
(** One closure for a straight-line word: its static charge inline, its
    effects in reference order, then {!advance}.  Raises
    [Invalid_argument] on any other word. *)
