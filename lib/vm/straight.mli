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

val advance : Machine.state -> next:k -> ni:int -> naddr:int -> unit
(** Continue after a word: perform the dispatcher's per-word preamble
    for word [ni] at address [naddr] — fuel check (writing the exact pc
    on its cold path), instruction count, i-cache probe — then run
    [next]. *)

val compile :
  Costs.t -> Program.t -> Program.meth -> next:k -> ni:int -> naddr:int ->
  Ir.Lir.instr -> k
(** One closure for a straight-line word: its static charge inline, its
    effects in reference order, then {!advance}.  Raises
    [Invalid_argument] on any other word. *)
