(** Blocks of the TRIPS intermediate language.

    A block is a list of predicated instructions followed by a list of
    predicated exits.  Exactly one exit guard holds on any execution of
    the block — the central dataflow invariant every transformation must
    preserve (the interpreter checks it).  A basic block with a
    conditional branch is two exits guarded on the same register with
    opposite senses; an unconditional block is a single unguarded exit.
    This uniform exit representation is what lets if-conversion merge
    exit lists without distinguishing fall-through from branches. *)

type target = Goto of int | Ret of Instr.operand option

type exit_ = { eguard : Instr.guard option; target : target }

type t = { id : int; instrs : Instr.t list; exits : exit_ list }

val make : int -> Instr.t list -> exit_ list -> t

val successors : t -> int list
(** Successor block ids in exit order, duplicates preserved. *)

val distinct_successors : t -> int list
(** Successor ids with duplicates removed, order preserved. *)

val size : t -> int
(** Number of regular instructions (the 128-instruction budget). *)

val num_loads : t -> int
val num_stores : t -> int
val num_load_store : t -> int

val defs : t -> IntSet.t
(** Registers defined anywhere in the block (may-defs). *)

val must_defs : t -> IntSet.t
(** Registers defined by unpredicated instructions only.  A predicated
    definition is conditional: when the guard is false the incoming value
    flows through, so it neither kills the register for liveness nor
    shields later uses. *)

val upward_exposed_uses : t -> IntSet.t
(** Registers used before being unconditionally defined (including exit
    guards and return operands).  A predicated definition of [r] also
    exposes [r], because the block needs [r]'s incoming value when the
    guard is false.  See {!Trips_analysis.Liveness} for the refined,
    implication-aware variant. *)

val exit_uses : t -> IntSet.t
(** Registers read by the exits: guard registers and register return
    operands. *)

val map_targets : (int -> int) -> t -> t
(** Rewrite every [Goto] destination. *)

val pp : Format.formatter -> t -> unit
