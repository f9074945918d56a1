(** Backward liveness over blocks, predication-refined.

    Classic predication-aware liveness treats every guarded definition as
    exposing its register (the incoming value flows through when the
    guard is false).  That is sound but catastrophically conservative for
    hyperblocks: a temporary whose guarded definition sits in a self-loop
    block becomes live around the loop forever, blocking predicate
    optimization and inflating register pressure.

    This analysis splits each block's exposure into a [hard] set (the
    incoming value is definitely observable) and a [soft] set (a guarded
    definition's flow-through value escapes only if the register is live
    out), using {!Guard_logic} implication: a use whose own guard implies
    the last definition's guard only executes when that definition did.
    The least fixpoint of

    {[ live_in = hard ∪ (soft ∩ live_out) ∪ (live_out − kill) ]}

    certifies exactly that a soft register's stale value can never reach
    an observer. *)

open Trips_ir

type gen_kill = { hard : IntSet.t; soft : IntSet.t; kill : IntSet.t }

val gen_kill : Block.t -> gen_kill
(** Per-block generator/killer sets (see module description). *)

type t

val compute : Cfg.t -> t

val update : t -> Cfg.t -> touched:int list -> t
(** [update t cfg ~touched] re-solves the fixpoint after an edit that
    replaced, added or removed exactly the blocks in [touched] (removed
    blocks are recognized by their absence from [cfg]); every other
    block's successor list and body must be unchanged since [t] was
    computed.  Only the region that can reach an edited block is reset
    and re-solved — the rest keeps its old (still exact) solution — so
    the result is the unique least fixpoint, identical to a full
    {!compute} on the edited graph.  Formation uses this after every
    trial merge, where an edit touches one block and removes at most
    one. *)

val live_in : t -> int -> IntSet.t
val live_out : t -> int -> IntSet.t

val block_inputs : Block.t -> live_out:IntSet.t -> IntSet.t
(** Registers a block must read as inputs given what is live out of it —
    the refined register-read set used by the structural-constraint
    estimator and the bank-budget checker. *)
