(** Multi-output covers: the PLA-level object the paper maps onto crossbars.

    A multi-output cover is a list of product rows; each row is a cube plus
    the set of outputs that include it. Product sharing across outputs is
    what the benchmark statistics (the P column of Tables I/II) count, so the
    representation keeps rows unique and merges output masks. *)

type t

type row = { cube : Cube.t; outputs : bool array }
(** One product row: [outputs.(k)] is true when output [k] sums this cube. *)

val create : ?share:bool -> n_inputs:int -> n_outputs:int -> row list -> t
(** Rows with equal cubes are merged (masks OR-ed) when [share] is [true]
    (the default); with [share:false] duplicate cubes stay as separate rows
    (e.g. to reproduce the paper's Fig. 8 matrices, whose FM keeps the
    shared product x2 x3 once per output). Rows with an all-false mask are
    dropped either way. @raise Invalid_argument on arity or mask-length
    mismatch, or negative counts. *)

val of_single : Cover.t -> t
(** Wrap a single-output cover. *)

val of_covers : Cover.t list -> t
(** Combine per-output covers over the same inputs, sharing equal cubes.
    @raise Invalid_argument if arities differ or the list is empty. *)

val n_inputs : t -> int
val n_outputs : t -> int
val rows : t -> row list

val product_count : t -> int
(** Number of distinct product rows — the paper's P. *)

val literal_count : t -> int
(** Total NAND-plane switches: sum of cube literal counts. *)

val connection_count : t -> int
(** Total AND-plane switches: sum over rows of included outputs. *)

val output_cover : t -> int -> Cover.t
(** The single-output cover of output [k]. @raise Invalid_argument out of
    range. *)

val eval : t -> bool array -> bool array
(** All outputs on one assignment. *)

val complement : t -> t
(** Output-wise negation. Uses exact truth tables + {!Qm} when the input
    count allows (≤ 14), falling back to algebraic complement + espresso
    otherwise; rows equal across outputs are shared again. This implements
    the paper's "Negation of Circuit". *)

val minimize : t -> t
(** Espresso each output independently, then re-share rows. *)

val permute_vars : t -> perm:int array -> t
(** Relabel input variables: variable [v] of the argument becomes
    variable [perm.(v)] of the result (row order and output masks are
    untouched). @raise Invalid_argument unless [perm] is a permutation
    of [0 .. n_inputs - 1]. *)

val canonical : t -> t * int array * int array
(** [canonical t] is [(c, row_perm, var_perm)]: a normal form under
    product-row reordering and (partially) input relabeling, the basis of
    the serving layer's request-coalescing digest. [c] is [t] with
    variables relabeled by [var_perm] (variable [v] becomes
    [var_perm.(v)]) and product rows sorted; [row_perm.(i)] is the
    canonical index of [t]'s row [i].

    Guarantees: the transform is always sound (a deterministic
    permutation of [t], so results computed on [c] translate back
    through the returned permutations), and two covers that differ only
    by a product-row permutation canonicalize identically. Input
    relabelings additionally coalesce when the per-variable occurrence
    signatures (positive count, negative count) are distinct; tied
    signatures fall back to original variable order, which keeps the
    transform canonical per input but not across all relabelings — a
    deliberate trade against graph-isomorphism-complete refinement. *)

val equal_semantics : t -> t -> bool
(** Truth-table equality on every output (small arities only). *)

val pp : Format.formatter -> t -> unit
