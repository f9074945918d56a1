(** Fanout insertion.

    A TRIPS instruction encodes at most {!Trips_ir.Machine.max_targets}
    explicit consumers; a value with more consumers needs a tree of mov
    instructions.  This pass runs after register allocation (paper
    Figure 6) and rewrites surplus intra-block consumers to read fresh
    copies arranged as a balanced tree (logarithmic added latency).
    One backward counting pass per block finds the over-subscribed
    definitions; only those walk their use range.  The inserted movs are
    unguarded, so every consumer observes exactly the value it would
    have read from the original register. *)

open Trips_ir

val consumers : Block.t -> int array
(** The counting pass: for each instruction of the block, in order, the
    number of later instructions that read its definition, up to and
    including the register's next definition (0 for an instruction that
    defines nothing).  An exit read is not counted. *)

val run : Cfg.t -> int
(** Insert fanout movs in every block; returns how many were added. *)
