(** Straight-line word compiler shared by {!Engine} (per-word chains and
    fused runs) and {!Trace}: closure steps for the words that cannot
    suspend, reschedule or hand control to the dispatcher — Move, Unop,
    Binop, Get/Put_field, Get/Put_static, New_object, Array_load/store,
    Array_length, Instance_test and the one-argument [print]/[rand]
    intrinsics — plus the single worst-case cycle bound that the fused
    runs' and the traces' entry prechecks sum (DESIGN.md §5). *)

type k = Machine.state -> unit

val is_straight : Ir.Lir.instr -> bool

val cop : Ir.Lir.operand -> Machine.frame -> int
(** Operand evaluator resolved at compile time. *)

val bound : Costs.t -> Program.t -> dcache:bool -> Ir.Lir.instr -> int
(** Worst-case cycles a straight-line word can charge: its static charge
    plus, when it probes the d-cache and [dcache] says one may be
    present, one miss. *)

val advance : Machine.state -> next:k -> ni:int -> naddr:int -> unit
(** Continue after a word.  [ni >= 0]: perform the dispatcher's per-word
    preamble for word [ni] at address [naddr] — fuel check (writing the
    exact pc on its cold path), instruction count, i-cache probe — then
    run [next].  [ni < 0]: run [next] directly (fused runs and traces,
    whose entry precheck covers the elided checks). *)

val probed : addr:int -> k -> k
(** [probed ~addr next] probes the i-cache at [addr] (when the run has
    one), then runs [next]: a fused run's line-head probe. *)

val compile :
  Costs.t -> Program.t -> Program.meth -> next:k -> ni:int -> naddr:int ->
  Ir.Lir.instr -> k
(** One closure for a straight-line word: its static charge inline, its
    effects in reference order, then {!advance}.  Raises
    [Invalid_argument] on any other word. *)
