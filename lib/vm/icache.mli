(** Direct-mapped instruction-cache model.

    Models the indirect cost of code duplication the paper discusses in
    section 3 ("the increase in code size could increase the number of
    instruction cache misses") and the cost of jumping into cold duplicated
    code when a sample is taken. *)

type t = {
  tags : int array;  (** line number held by each set; -1 = empty *)
  shift : int;  (** log2 of the line size in instructions *)
  mask : int;  (** [Array.length tags - 1] *)
  mutable miss_count : int;
}
(** Exposed so the engine's word preamble can inline the probe
    ({!access} spelled out; DESIGN.md §5): under dune's default profile
    a call into this module is out of line. *)

val create : ?lines:int -> ?line_words:int -> unit -> t
(** Default geometry: 1024 lines of 8 instructions (8K-instruction cache,
    roughly a 32KB L1i with 4-byte instructions).  Raises
    [Invalid_argument] unless both are powers of two. *)

val default_lines : int
(** The default number of lines: the Fast engine compiles [default_lines
    - 1] into its i-cache probes as the set mask. *)

val default_shift : int
(** log2 of the default line size: the line shift the Fast engine
    compiles into its i-cache probes. *)

val access : t -> int -> bool
(** [access t addr] touches the line holding instruction address [addr];
    returns [true] on a miss. *)

val misses : t -> int

val flush : t -> unit
(** Invalidate every line but keep the miss count — the effect of a
    fault-injected cache flush mid-run. *)
