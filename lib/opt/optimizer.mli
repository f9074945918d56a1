(** Optimization driver.

    {!optimize_block} is the [Optimize] step from Figure 5 of the paper:
    local value numbering, dead-code elimination and predicate
    optimization iterated to a bounded local fixpoint.  Convergent
    formation calls it after every trial merge; the discrete phase
    orderings call {!optimize_cfg} once as their final "O" phase. *)

open Trips_ir

val optimize_block :
  ?max_rounds:int ->
  ?report:bool ->
  Cfg.t ->
  Block.t ->
  live_out:IntSet.t ->
  Block.t
(** [report] (default [true]) records one [opt-pass] trace event and one
    [opt.<pass>.removed_instrs] metric bump per pass that changed the
    block.  Formation's test-only audit turns it off for the trials that
    only the audit runs, so auditing leaves traces and metrics
    unchanged. *)

val optimize_cfg : ?max_rounds:int -> Cfg.t -> unit
(** Optimize every reachable block, recomputing liveness between rounds,
    until nothing changes (bounded). *)
