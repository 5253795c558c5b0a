(** Minimal growable array (OCaml 5.1 has no [Dynarray] yet).

    Used throughout the IR to store basic blocks indexed by label. *)

type 'a t = private { mutable data : 'a array; mutable len : int }
(** Elements [0, len) of [data] are live.  Readable outside so the VM's
    hot paths can inline heap lookups (under dune's default profile a
    call into this module is out of line); only this module writes. *)

val create : unit -> 'a t
(** Fresh empty vector. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val unsafe_get : 'a t -> int -> 'a
(** No bounds check: only for hot paths that have already validated the
    index against {!length} (the VM heap does). *)

val set : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] when out of bounds. *)

val push : 'a t -> 'a -> int
(** Appends an element and returns its index. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val map_into : ('a -> 'a) -> 'a t -> unit
(** In-place map. *)

val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val copy : 'a t -> 'a t
val exists : ('a -> bool) -> 'a t -> bool
