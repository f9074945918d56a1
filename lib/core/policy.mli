(** Block-selection policies for convergent hyperblock formation
    (the paper's [SelectBest], Section 5).

    - breadth-first (the best EDGE heuristic in Table 2) merges
      shallowest candidates first and prefers candidates whose
      predecessors are all already merged, eliminating conditional
      branches without needless duplication;
    - depth-first follows the most frequent path and skips candidates
      rarer than a threshold — which forces the pathological tail
      duplications the paper reports for bzip2_3;
    - the VLIW heuristic (Mahlke et al.) pre-analyzes paths below the
      seed, scoring them by frequency, dependence height and resource
      consumption, and only admits blocks on sufficiently good paths. *)

open Trips_ir
open Trips_profile

type vliw_params = {
  max_paths : int;
  max_path_blocks : int;
  inclusion_ratio : float;  (** admit paths scoring >= ratio * best *)
  dep_height_weight : float;
  resource_weight : float;
}

val default_vliw : vliw_params

type heuristic =
  | Breadth_first
  | Depth_first of { min_merge_prob : float }
  | Vliw of vliw_params

type config = {
  heuristic : heuristic;
  iterate_opt : bool;  (** run scalar optimization inside the merge loop *)
  enable_head_dup : bool;  (** allow peeling and unrolling *)
  enable_tail_dup : bool;
  enable_block_splitting : bool;
      (** Section 9 extension: when a unique-predecessor merge fails only
          on size, split the candidate and merge its first half *)
  max_tail_dup_instrs : int;  (** refuse to duplicate larger blocks *)
  max_unroll : int;  (** iterations appended per loop *)
  max_peel : int;  (** iterations peeled per loop *)
  peel_coverage : float;
      (** peel iteration k only if P(trips >= k) reaches this *)
  slack : int;  (** instruction headroom reserved for spill code *)
  limits : Constraints.limits;
}

val edge_default : config
(** The paper's best-performing EDGE configuration: greedy breadth-first
    merging with head duplication and iterative optimization. *)

type candidate = {
  block_id : int;
  depth : int;  (** merge distance from the seed *)
  prob : float;  (** estimated path probability from the seed *)
}

(** Candidate pool keeping the most promising entry per block id.
    Selector decisions never depend on the pool's order (all comparators
    are strict total orders with a block-id tie-break), so traces are
    identical across [--jobs] settings. *)
module Pool : sig
  type t

  val create : unit -> t

  val add : t -> candidate -> unit
  (** Keep the better of the existing and new entry for the block id:
      strictly shallower, or same depth and strictly more probable,
      replaces; ties keep the incumbent. *)

  val add_list : t -> candidate list -> unit
  val remove : t -> int -> unit

  val fold : t -> ('a -> candidate -> 'a) -> 'a -> 'a

  val to_sorted_list : t -> candidate list
  (** Remaining candidates in ascending block-id order — the canonical
      deterministic drain order for budget-exhaustion trace events. *)
end

type selector = {
  select : Pool.t -> candidate option;
      (** Pick the next candidate to merge, removing it from the pool;
          vetoed candidates are dropped from the pool permanently. *)
}

val make_selector :
  preds:(int -> int list) ->
  config ->
  Cfg.t ->
  Profile.t ->
  seed:int ->
  selector
(** Build the selection function for one ExpandBlock run; the VLIW
    heuristic performs its path analysis here.  [preds] supplies a
    block's predecessor list, with the same contents as
    {!Cfg.predecessors}; formation passes its cached predecessor map,
    dropped on every CFG edit. *)
