(** Word-parallel packed cubes: the kernel representation behind {!Cube}.

    A cube over [arity] variables is two packed bit masks — a care mask
    (variable carries a literal) and a polarity mask (that literal is
    positive) — stored {!Mcx_util.Bits.word_bits} variables per native
    word.  Containment, intersection, distance, supercube and tautology
    cofactoring each cost a few AND/XOR/popcount operations per word
    instead of a per-variable match.

    All operations preserve two invariants: polarity bits are zero on
    absent variables, and bits at positions [>= arity] are zero. *)

type t

val arity : t -> int

val words : t -> int
(** Number of words per mask. *)

val universe : int -> t
(** No literals. @raise Invalid_argument on negative arity. *)

val make : arity:int -> f:(int -> Literal.t) -> t

val of_literals : Literal.t array -> t

val to_array : t -> Literal.t array

val get : t -> int -> Literal.t
(** @raise Invalid_argument out of range. *)

val set : t -> int -> Literal.t -> t
(** Functional update (copies the words). *)

val literals : t -> (int * Literal.t) list
(** Non-absent positions in increasing variable order. *)

val num_literals : t -> int
val is_minterm : t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int
(** Shorter arity first, then lexicographic by variable with
    [Literal.compare]'s order (Neg < Pos < Absent). *)

val hash : t -> int
(** Mixes the packed words directly — no per-call allocation. *)

val covers : t -> t -> bool
(** [covers a b]: every minterm of [b] is one of [a]. [false] on arity
    mismatch. *)

val intersect : t -> t -> t option
val distance : t -> t -> int
val supercube : t -> t -> t
val complement_literals : t -> t
val merge_adjacent : t -> t -> t option
val cofactor : t -> var:int -> value:bool -> t option

val cofactor_wrt : t -> t -> t option
(** [cofactor_wrt g c]: [g] with every literal fixed by [c] removed;
    [None] when the cubes conflict (empty cofactor). The inner loop of
    the unate-recursive tautology check. *)

val pack_assignment : bool array -> int array
(** Pack an assignment for repeated {!eval_packed} calls. *)

val eval_packed : t -> int array -> bool
(** Evaluate against a packed assignment of at least the cube's arity. *)

val eval : t -> bool array -> bool
(** @raise Invalid_argument on arity mismatch. *)
