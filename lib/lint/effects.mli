(** Interprocedural effect inference over the {!Callgraph}.

    Each function's transitive effect set is computed as a fixpoint over
    the strongly connected components of the call graph (one forward pass
    over {!Callgraph.sccs}, since components arrive successors-first).
    The effect lattice is four independent booleans:

    - [Nondet] — reaches [Random.*], a wall clock, an environment read or
      [Hashtbl.hash];
    - [Io_out] — writes to stdout;
    - [Mut] — touches top-level mutable state (outside the DLS-guarded
      modules and bindings blessed with
      [[\@\@mcx.lint.allow "domain-toplevel-state"]]);
    - [Raises] — an exception can escape (calls under a catch-all [try]
      are contained; [Fun.protect] is not protective, it re-raises).

    Propagation is masked per rule by {e barriers}: the sanctioned module
    boundaries (Prng/Telemetry/Timing for determinism,
    Telemetry/Checkpoint for replay output) plus any function whose
    definition carries an [[\@mcx.lint.allow "<rule>"]] attribute. The
    four rules built on top ([transitive-nondet], [pool-closure-capture],
    [span-exception-unsafe], [replay-io-divergence]) report the shortest
    source→sink call chain on every finding. *)

type kind = Nondet | Io_out | Mut | Raises

val transitive :
  Callgraph.graph -> ?barrier:(Callgraph.node -> bool) -> kind -> string -> bool
(** [transitive g kind id] — does the function [id] have effect [kind],
    directly or through any call path that avoids [barrier] nodes
    (default: no barriers)? [false] for unknown ids. Exposed for tests;
    {!run} applies the per-rule barrier sets. *)

val run :
  Callgraph.graph ->
  allowed:(rule:string -> file:string -> line:int -> col:int -> bool) ->
  Finding.t list
(** Evaluate the four interprocedural rules. [allowed] answers whether an
    [[\@mcx.lint.allow]] attribute for [rule] covers the definition at
    the given position (the driver implements it over the parsed
    attribute spans and marks consulted spans as used, which is what
    keeps [--check-allows] honest about barrier-only annotations). *)
