(** Crosspoint (memristor junction) modelling.

    Snider Boolean logic polarity is used throughout: the low-resistance
    state R_ON encodes logic 0 and the high-resistance state R_OFF encodes
    logic 1, so an untouched (initialized or disabled) junction reads as
    logic 1 and is neutral for the wired-NAND/AND evaluations. *)

type programming = Active | Disabled
(** Design intent for a junction: [Active] junctions may switch and store a
    value; [Disabled] junctions are programmed to stay at R_OFF. *)

type defect =
  | Functional
  | Stuck_open  (** permanently R_OFF (logic 1): behaves like [Disabled] *)
  | Stuck_closed  (** permanently R_ON (logic 0): poisons its row and column *)

val logic_of_resistance_high : bool
(** [true]: R_OFF is logic 1 in the Snider convention — exposed so tests can
    assert the convention rather than bake it in twice. *)

val store : defect -> bool -> bool
(** [store d v] is the value actually retained by a junction with defect
    status [d] after writing [v]: functional junctions keep [v], stuck-open
    junctions always read 1, stuck-closed always read 0. *)

val reset_value : defect -> bool
(** Junction value right after the INA (initialize-all) state. *)

val defect_equal : defect -> defect -> bool
