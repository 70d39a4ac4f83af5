(* Definition site for the hygiene-deprecated fixture: the deprecation
   lives on the [val]. *)

val old_merge : int -> int -> int
[@@deprecated "merging moved to Telemetry"]

val new_merge : int -> int -> int
