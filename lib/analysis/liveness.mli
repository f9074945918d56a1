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
(** A solution: each block's live-in, gen/kill and successor list as
    solved.  [compute], [update] and [live_out_at] are one region solve
    (DESIGN.md §12): they walk a forward cone, take the region of it that
    can reach an edited block, and solve that region from bottom against
    the rest, frozen at its solved values.  Inside the solution and the
    solve, live-ins and each block's [hard] and [kill] are strictly
    increasing [int array]s, merged in linear time (any integer may name
    a register), and the transfer is [hard ∪ (live_out − kill)], exact
    because {!gen_kill} builds [soft] disjoint from [kill].  The
    functions below take and return [IntSet.t], converting once per
    call. *)

val compute : ?gen_kill_of:(int -> gen_kill) -> Cfg.t -> t
(** The least fixpoint over the blocks reachable from the entry; every
    other block reads as empty.  [gen_kill_of], when given, must return
    {!gen_kill} of the block with the given id; it saves recomputing
    gen/kill sets the caller already holds. *)

val update : t -> Cfg.t -> touched:int list -> t
(** [update t cfg ~touched] re-solves the fixpoint after an edit that
    replaced, added or removed exactly the blocks in [touched]; every
    other block's successor list and body must be unchanged since [t]
    was computed.  Only the region that can reach an edited block is
    solved — a block [t] has no solution for (say, one unreachable when
    [t] was computed) counts as edited, and the rest keeps its old (still
    exact) solution — so the result is the unique least fixpoint,
    identical to a full {!compute} on the edited graph, and like it
    covers exactly the blocks reachable from the entry.  Formation folds
    the edits of a whole seed's merges into its cached solution with one
    call, at the start of the next seed. *)

val live_out_at :
  ?gk:gen_kill Lazy.t -> t -> Cfg.t -> dirty:IntSet.t -> int -> IntSet.t * int
(** [live_out_at t cfg ~dirty id] is block [id]'s live-out set in [cfg],
    where [t] was solved before edits to exactly the blocks in [dirty]
    (same contract as [touched] for {!update}), paired with the number of
    blocks it re-solved.  Only the blocks of the successors' forward cone
    that can reach a dirty (or unsolved) block are re-solved, from bottom;
    every other block's live-in is read from [t], where it is still
    exact, so with none to re-solve the answer is read off [t].  [t] is
    left as it was.  [gk], when given, must be [gen_kill] of [id]'s
    current block; it is forced only if [id] itself needs re-solving. *)

val live_in : t -> int -> IntSet.t

val live_out : t -> int -> IntSet.t
(** The union of [live_in] over the block's successors as solved. *)

val solved : t -> int
(** Blocks the {!compute} (every reachable block) or {!update} (the
    re-solved region) that produced [t] solved. *)

val block_inputs : ?gk:gen_kill -> Block.t -> live_out:IntSet.t -> IntSet.t
(** Registers a block must read as inputs given what is live out of it —
    the refined register-read set used by the structural-constraint
    estimator and the bank-budget checker.  [gk], when given, must be the
    block's {!gen_kill}; it saves recomputing it. *)
