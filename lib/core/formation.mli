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

val publish_metrics : stats -> unit
(** Export the counters into {!Trips_obs.Metrics} under
    [formation.*] names.  Called by {!run}; exposed for drivers that
    invoke {!merge_blocks} directly. *)

type merge_kind = Simple | Unroll | Peel | Tail_dup

val kind_name : merge_kind -> string
(** Lower-case stable name used in trace events. *)

type fast_paths = {
  prefilter : bool;  (** constraint lower-bound pre-filter *)
  incr_liveness : bool;  (** [Liveness.update] instead of full compute *)
  loop_reuse : bool;
      (** loop forest / predecessor map keyed by edge version *)
  cand_pool : bool;  (** indexed candidate pool *)
}
(** Which formation fast paths are enabled; each is read at {!make} from
    its own escape hatch in {!hatches} (any non-empty value disables).
    All are output-invariant: traces, stats and the final CFG are
    byte-identical either way. *)

val hatches : string list
(** The fast paths' escape-hatch variables, in {!fast_paths} field
    order: [TRIPS_NO_PREFILTER], [TRIPS_NO_INCR_LIVENESS],
    [TRIPS_NO_LOOP_REUSE], [TRIPS_NO_CAND_POOL].  Setting all of them
    runs the historical slow path, the equivalence oracle. *)

type perf_counters = {
  mutable prefilter_hits : int;
  mutable live_incremental : int;
  mutable loops_reuse : int;
}
(** How often each fast path fired; exported by {!run} as the
    [formation.prefilter.hits], [formation.liveness.incremental] and
    [formation.loops.reuse] metrics. *)

type state = {
  cfg : Cfg.t;
  profile : Profile.t;
  config : Policy.config;
  stats : stats;
  finalized : (int, unit) Hashtbl.t;
  saved_bodies : (int, Block.t) Hashtbl.t;
  peels_done : (int, int) Hashtbl.t;
  unrolls_done : (int, int) Hashtbl.t;
  mutable version : int;  (** bumped on every CFG change *)
  mutable edge_version : int;
      (** bumped only when a successor list may have changed *)
  mutable loops_cache : (int * int * Trips_analysis.Loops.t) option;
  mutable preds_cache : (int * IntSet.t IntMap.t) option;
  mutable live_cache : (int * Trips_analysis.Liveness.t) option;
  mutable live_dirty : IntSet.t;
      (** blocks edited since [live_cache] was solved *)
  live_gk : Trips_analysis.Liveness.gk_cache option;
      (** gen/kill memo reused across liveness recomputations; [None] when
          disabled via the [TRIPS_NO_LIVENESS_MEMO] environment variable *)
  floors : (int, Block.t * Constraints.floor) Hashtbl.t;
  body_floors : (int, Block.t * Constraints.floor) Hashtbl.t;
  fast : fast_paths;
  perf : perf_counters;
}

val make : Policy.config -> Cfg.t -> Profile.t -> state

val classify : ?hb:Block.t -> state -> hb_id:int -> s_id:int -> merge_kind option
(** [LegalMerge] plus the Figure 5 case split; [None] rejects the merge.
    [hb] may pass the already-fetched hyperblock record. *)

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

val prefilter_audit :
  (bound:Constraints.estimate -> est:Constraints.estimate -> unit) option ref
(** Test-only soundness audit: when set, the constraint pre-filter never
    shortcuts; every attempt runs the full trial and the hook receives
    the pre-filter lower bound alongside the true post-optimization
    estimate, so tests can assert [bound <= est] fieldwise for every
    attempted merge.  Reset to [None] after use. *)

val merge_blocks :
  ?depth:int ->
  ?prob:float ->
  ?hb:Block.t ->
  state ->
  hb_id:int ->
  s_id:int ->
  kind:merge_kind ->
  merge_outcome
(** [MergeBlocks]: pre-filter against the additive size lower bound,
    then trial-merge, optionally optimize, constraint-check; commits on
    success and rolls back on failure — including the saved
    one-iteration body and the CFG's fresh-id counters, so a failed
    attempt leaves no hidden state behind.  [depth]/[prob] only annotate
    the trace event; [hb] may pass the already-fetched hyperblock
    record. *)

val expand_block : state -> int -> unit
(** [ExpandBlock]: grow the hyperblock seeded at a block until no
    candidate fits. *)

val run : Policy.config -> Cfg.t -> Profile.t -> stats
(** Form hyperblocks over the whole function, hottest seed first
    (profiled execution count), treating formed blocks as final.
    Prunes unreachable blocks and validates the CFG. *)
