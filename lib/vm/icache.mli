(** Direct-mapped instruction-cache model.

    Models the indirect cost of code duplication the paper discusses in
    section 3 ("the increase in code size could increase the number of
    instruction cache misses") and the cost of jumping into cold duplicated
    code when a sample is taken. *)

type t

val default_line_words : int
(** Words per line of the instruction cache every {!Machine.state}
    builds; the engine's fused runs probe only line heads of this
    geometry. *)

val create : ?lines:int -> ?line_words:int -> unit -> t
(** Default geometry: 1024 lines of 8 instructions (8K-instruction cache,
    roughly a 32KB L1i with 4-byte instructions). *)

val access : t -> int -> bool
(** [access t addr] touches the line holding instruction address [addr];
    returns [true] on a miss. *)

val misses : t -> int
val accesses : t -> int


val reset : t -> unit
(** Cold caches and zeroed counts. *)

val flush : t -> unit
(** Invalidate every line but keep the miss/access counts — the effect of
    a fault-injected cache flush mid-run. *)
