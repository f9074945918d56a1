(** Convergent hyperblock formation — the paper's core contribution
    (Figure 5).

    {!expand_block} grows a seed block by repeatedly selecting a
    candidate successor (policy-driven), trial-merging it, optimizing the
    merged block when configured to, and committing only when the TRIPS
    structural constraints still hold.  [MergeBlocks]'s case split:

    - unique predecessor: plain merge, the successor disappears;
    - self back edge: unrolling by head duplication — a copy of the
      {e saved one-iteration body} is merged, so each unroll appends one
      iteration rather than doubling (Section 4.1);
    - loop header over a non-back edge: peeling by head duplication;
    - otherwise: classical tail duplication.

    Candidates that failed only because the block was full are retried
    after later merges and optimizations shrink it — the convergence the
    paper's title refers to. *)

open Trips_ir
open Trips_profile

type stats = {
  mutable merges : int;  (** m: successful merges of any kind *)
  mutable tail_dups : int;  (** t *)
  mutable unrolls : int;  (** u *)
  mutable peels : int;  (** p *)
  mutable attempts : int;
  mutable size_rejections : int;
  mutable combine_failures : int;
      (** structural [Cannot_combine] rejections — never retried *)
  mutable block_splits : int;  (** Section 9 extension, when enabled *)
}

val empty_stats : unit -> stats

val pp_stats : Format.formatter -> stats -> unit
(** Prints the paper's [m/t/u/p] quadruple. *)

val accum : into:stats -> stats -> unit
(** Add every field of the second record into [into]: how a plan folds
    the statistics of each formation run (and of IUPO's unroll/peel
    merges) into one record. *)

type merge_kind = Simple | Unroll | Peel | Tail_dup

type state
(** One formation run over a CFG: its statistics, the per-loop
    unroll/peel bookkeeping and the analyses formation reads around every
    trial merge (liveness, dominator tree, successor and predecessor
    maps), held as one record that a failed trial restores with the
    graph. *)

val make : Policy.config -> Cfg.t -> Profile.t -> state

val stats : state -> stats

val publish_metrics : state -> unit
(** Export the statistics and cache counters into {!Trips_obs.Metrics}
    under [formation.*] names.  Called by {!run}; exposed for drivers
    that invoke {!merge_blocks} directly. *)

val classify : state -> hb_id:int -> s_id:int -> merge_kind option
(** [LegalMerge] plus the Figure 5 case split; [None] rejects the merge. *)

type merge_outcome =
  | Success of Constraints.estimate
  | Structural_failure of string
      (** the combiner raised [Cannot_combine]: the merge can never be
          expressed, so the candidate must not be retried *)
  | Size_rejected of Constraints.estimate
      (** merged block exceeded the TRIPS limits; retryable once later
          merges/optimizations shrink the block *)

val chaos_combine_failure :
  (hb_id:int -> s_id:int -> kind:merge_kind -> bool) option ref
(** Test-only fault injection: when set, a merge for which the hook
    returns [true] fails as if [Combine] raised [Cannot_combine],
    exercising the structural-failure rollback paths.  Reset to [None]
    after use. *)

val audit : bool ref
(** Test-only audit: when set, every cached answer formation uses — the
    hyperblock's live-out set, loop-header and back-edge queries, and
    predecessor lists — is checked against a from-scratch
    {!Trips_analysis.Liveness.compute}, {!Trips_analysis.Loops.compute}
    or {!Cfg.predecessors}, and after every CFG edit the patched
    successor and predecessor maps are compared whole with
    {!Cfg.successors} and {!Cfg.predecessor_map}; a mismatch raises
    [Failure] naming the [hb_id]/[s_id] pair or the edited blocks.
    Reset to [false] after use. *)

val merge_blocks :
  ?depth:int ->
  ?prob:float ->
  state ->
  hb_id:int ->
  s_id:int ->
  kind:merge_kind ->
  merge_outcome
(** [MergeBlocks]: trial-merge, optionally optimize, constraint-check;
    commits on success and rolls back on failure by restoring one
    snapshot — the blocks, the saved one-iteration body, the CFG's
    fresh-id counters and the cached analyses — so a failed attempt
    leaves no hidden state behind.  [depth]/[prob] only annotate the
    trace event. *)

val expand_block : state -> int -> unit
(** [ExpandBlock]: grow the hyperblock seeded at a block until no
    candidate fits. *)

val run : Policy.config -> Cfg.t -> Profile.t -> stats
(** Form hyperblocks over the whole function, hottest seed first
    (profiled execution count), treating formed blocks as final.
    Prunes unreachable blocks and validates the CFG. *)
