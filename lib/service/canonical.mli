(** Canonical form and content digest of one mapping request.

    The mapping algorithms are pure functions of (cover, defect map,
    mapper config), so requests can be memoized — but only if equivalent
    requests key to the same digest. Resolution therefore normalizes the
    problem before digesting: product rows are sorted and input
    variables relabeled by {!Mcx_logic.Mo_cover.canonical}, and the
    defect map's input columns are permuted by the same relabeling
    (positive and complemented literal columns move with their
    variable). A row assignment computed in canonical space is valid in
    the original space verbatim on the column side, and translates on
    the row side through the recorded row permutation —
    {!translate_assignment}. *)

type t = {
  request : Wire.request;
  cover : Mcx_logic.Mo_cover.t;  (** canonical cover *)
  defects : Mcx_crossbar.Defect_map.t;  (** canonical defect map *)
  geometry : Mcx_crossbar.Geometry.t;
      (** optimum geometry — identical for the original and canonical
          problems *)
  row_perm : int array;  (** original product row -> canonical product row *)
  digest : string;
      (** hex MD5 over (canonical PLA, canonical defect digest, mapper
          signature, verify flag) *)
}

val of_request : index:int -> Wire.request -> (t, string) result
(** Parse/locate the cover, materialize the defect map at the cover's
    optimum geometry, canonicalize both, digest. An unknown benchmark,
    malformed PLA text or an explicit defect map that does not fit the
    geometry is an [Error] located like {!Wire.request_of_line}'s:
    ["request N: field \"benchmark\"|\"pla\"|\"defects\": ..."], with
    [index] the request's position in its stream. *)

val resolve : Wire.request -> t
(** {!of_request} for a request known to be valid.
    @raise Invalid_argument with the (unlocated) error message otherwise. *)

val translate_assignment : t -> int array -> int array
(** Rewrite a canonical-space FM row assignment into the request's own
    row order (input-latch and output rows are fixed points; product row
    [i] reads canonical row [row_perm.(i)]). *)
