(** Optimization driver.

    {!optimize_block} is the [Optimize] step from Figure 5 of the paper:
    local value numbering, dead-code elimination and predicate
    optimization iterated to a bounded local fixpoint.  Convergent
    formation calls it after every trial merge; the discrete phase
    orderings call {!optimize_cfg} once as their final "O" phase. *)

open Trips_ir

val optimize_block : Cfg.t -> Block.t -> live_out:IntSet.t -> Block.t
(** Records one [opt-pass] trace event and one
    [opt.<pass>.removed_instrs] metric bump per pass that changed the
    block. *)

val optimize_cfg : Cfg.t -> unit
(** Optimize every reachable block, recomputing liveness between rounds,
    until nothing changes (bounded). *)
