(* Block-selection policies for convergent hyperblock formation.

   [ExpandBlock] asks the policy which candidate successor to merge next
   (the paper's [SelectBest], Section 5):

   - breadth-first (the best EDGE heuristic in Table 2) merges shallowest
     candidates first, eliminating conditional branches at the cost of
     including some useless instructions;
   - depth-first follows the most frequent path, skipping candidates
     rarer than a threshold — which is what forces the pathological tail
     duplications the paper reports for bzip2_3;
   - the VLIW heuristic (Mahlke et al.) runs a pre-pass that enumerates
     paths through the acyclic region below the seed, scores them by
     frequency, dependence height and resource consumption, and only
     admits blocks on sufficiently good paths. *)

open Trips_ir
open Trips_profile

type vliw_params = {
  max_paths : int;  (* bound on enumerated paths *)
  max_path_blocks : int;  (* bound on path length *)
  inclusion_ratio : float;  (* admit paths scoring >= ratio * best *)
  dep_height_weight : float;  (* penalty exponent for schedule height *)
  resource_weight : float;  (* penalty exponent for instruction count *)
}

let default_vliw =
  {
    max_paths = 64;
    max_path_blocks = 12;
    inclusion_ratio = 0.25;
    dep_height_weight = 1.0;
    resource_weight = 0.25;
  }

type heuristic =
  | Breadth_first
  | Depth_first of { min_merge_prob : float }
  | Vliw of vliw_params

type config = {
  heuristic : heuristic;
  iterate_opt : bool;  (* run scalar optimizations inside the merge loop *)
  enable_head_dup : bool;  (* allow peeling and unrolling via head dup *)
  enable_tail_dup : bool;
  enable_block_splitting : bool;
      (* Section 9 extension: when a unique-predecessor merge fails only
         on size, split the candidate and merge its first half *)
  max_tail_dup_instrs : int;  (* refuse to duplicate larger blocks *)
  max_unroll : int;  (* iterations appended per loop *)
  max_peel : int;  (* iterations peeled per loop *)
  peel_coverage : float;  (* peel iteration k only if P(trips >= k) >= this *)
  slack : int;  (* instruction headroom reserved for spill code *)
  limits : Constraints.limits;
}

(** The paper's best-performing EDGE configuration: greedy breadth-first
    merging with head duplication and iterative optimization. *)
let edge_default =
  {
    heuristic = Breadth_first;
    iterate_opt = true;
    enable_head_dup = true;
    enable_tail_dup = true;
    enable_block_splitting = false;
    max_tail_dup_instrs = 48;
    max_unroll = 8;
    max_peel = 4;
    peel_coverage = 0.4;
    slack = 8;
    limits = Constraints.trips_limits;
  }

type candidate = {
  block_id : int;
  depth : int;  (* merge distance from the seed *)
  prob : float;  (* estimated path probability from the seed *)
}

(* ---- VLIW path pre-pass ---------------------------------------------- *)

type vliw_prepass = {
  included : IntSet.t;
  rank : float IntMap.t;  (* best path score a block appears on *)
}

let vliw_prepass params cfg profile ~seed =
  let paths = ref [] in
  let num_paths = ref 0 in
  (* Enumerate acyclic paths by probability-weighted DFS. *)
  let rec walk path prob visited id len =
    if !num_paths >= params.max_paths then ()
    else if IntSet.mem id visited || len > params.max_path_blocks then begin
      incr num_paths;
      paths := (List.rev path, prob) :: !paths
    end
    else begin
      let path = id :: path in
      let visited = IntSet.add id visited in
      let succs = Cfg.successors cfg id in
      match succs with
      | [] ->
        incr num_paths;
        paths := (List.rev path, prob) :: !paths
      | _ ->
        List.iter
          (fun s ->
            let p = Profile.edge_prob profile ~src:id ~dst:s in
            walk path (prob *. Float.max p 0.01) visited s (len + 1))
          succs
    end
  in
  walk [] 1.0 IntSet.empty seed 0;
  let measure ids =
    List.fold_left
      (fun (h, s) id ->
        match Cfg.block_opt cfg id with
        | Some b -> (h + Latency.dependence_height b, s + Block.size b)
        | None -> (h, s))
      (0, 0) ids
  in
  let scored =
    List.map
      (fun (ids, prob) ->
        let h, s = measure ids in
        (ids, prob, max 1 h, max 1 s))
      !paths
  in
  match scored with
  | [] -> { included = IntSet.singleton seed; rank = IntMap.empty }
  | _ ->
    let h_min =
      List.fold_left (fun acc (_, _, h, _) -> min acc h) max_int scored
    in
    let s_min =
      List.fold_left (fun acc (_, _, _, s) -> min acc s) max_int scored
    in
    let score (_, prob, h, s) =
      prob
      *. ((float_of_int h_min /. float_of_int h) ** params.dep_height_weight)
      *. ((float_of_int s_min /. float_of_int s) ** params.resource_weight)
    in
    let best =
      List.fold_left (fun acc p -> Float.max acc (score p)) 0.0 scored
    in
    List.fold_left
      (fun acc ((ids, _, _, _) as p) ->
        let sc = score p in
        if sc >= params.inclusion_ratio *. best then
          List.fold_left
            (fun acc id ->
              {
                included = IntSet.add id acc.included;
                rank =
                  (let old = IntMap.find_or ~default:0.0 id acc.rank in
                   IntMap.add id (Float.max old sc) acc.rank);
              })
            acc ids
        else acc)
      { included = IntSet.empty; rank = IntMap.empty }
      scored

(* ---- candidate pool --------------------------------------------------- *)

module Pool = struct
  (* The candidate pool keeps the most promising entry per block id.
     Selection never depends on the list's order: every selector
     comparator is a strict total order (block-id tie-break), so the
     fold-based maximum — and therefore traces — are independent of
     insertion order and of [--jobs] settings. *)
  type t = candidate list ref

  let create () : t = ref []

  (* Keep-best rule: strictly shallower, or same depth and strictly more
     probable, replaces; ties keep the incumbent. *)
  let better_entry (c : candidate) (old : candidate) =
    c.depth < old.depth || (c.depth = old.depth && c.prob > old.prob)

  let add t (c : candidate) =
    match List.find_opt (fun x -> x.block_id = c.block_id) !t with
    | None -> t := c :: !t
    | Some old ->
      if better_entry c old then
        t := c :: List.filter (fun x -> x.block_id <> c.block_id) !t

  let add_list t cs = List.iter (add t) cs
  let remove t id = t := List.filter (fun x -> x.block_id <> id) !t

  (** Drop every candidate failing [p] (selector vetoes are permanent). *)
  let retain t p = t := List.filter p !t

  let fold t f acc = List.fold_left f acc !t

  (** Remaining candidates in ascending block-id order — the canonical
      deterministic drain order for budget-exhaustion trace events. *)
  let to_sorted_list t =
    fold t (fun acc c -> c :: acc) []
    |> List.sort (fun a b -> compare a.block_id b.block_id)
end

(* ---- selection -------------------------------------------------------- *)

type selector = {
  (* Pick the next candidate to merge, removing it from the pool; also
     drops vetoed candidates from the pool permanently. *)
  select : Pool.t -> candidate option;
}

(* Maximum of the pool under a *strict total order* [better]: with the
   block-id tie-break the result is independent of fold order. *)
let pick_best better pool =
  Pool.fold pool
    (fun acc c ->
      match acc with
      | None -> Some c
      | Some best -> if better c best then Some c else acc)
    None

(* Deterministic lexicographic comparisons. *)
let bf_better a b =
  a.depth < b.depth
  || (a.depth = b.depth
     && (a.prob > b.prob || (a.prob = b.prob && a.block_id < b.block_id)))

let df_better a b =
  a.depth > b.depth
  || (a.depth = b.depth
     && (a.prob > b.prob || (a.prob = b.prob && a.block_id < b.block_id)))

let take better pool =
  match pick_best better pool with
  | Some c ->
    Pool.remove pool c.block_id;
    Some c
  | None -> None

(** Build the selection function for one [ExpandBlock] run rooted at
    [seed].  The VLIW heuristic performs its path analysis here.
    [preds] supplies a block's predecessor list (same contents as
    {!Cfg.predecessors}); formation passes its cached predecessor map,
    dropped on every CFG edit, so the breadth-first duplication check
    does not rebuild the full predecessor map per candidate. *)
let make_selector ~preds config cfg profile ~seed : selector =
  match config.heuristic with
  | Breadth_first ->
    (* Breadth-first "merges all paths": among same-depth candidates it
       first takes those whose predecessors are all already inside the
       hyperblock (no duplication needed), so a merge point is merged
       *after* the arms that reach it and needs no tail duplication —
       and its entry predicate collapses to constant true. *)
    let needs_dup (c : candidate) =
      c.block_id = seed || preds c.block_id <> [ seed ]
    in
    let bf_dup_better a b =
      let da = needs_dup a and db = needs_dup b in
      if da <> db then db  (* the no-duplication candidate wins *)
      else bf_better a b
    in
    { select = (fun pool -> take bf_dup_better pool) }
  | Depth_first { min_merge_prob } ->
    {
      select =
        (fun pool ->
          Pool.retain pool (fun c -> c.prob >= min_merge_prob);
          take df_better pool);
    }
  | Vliw params ->
    let pre = vliw_prepass params cfg profile ~seed in
    let rank c = IntMap.find_or ~default:0.0 c.block_id pre.rank in
    let vliw_better a b =
      rank a > rank b
      || (rank a = rank b && bf_better a b)
    in
    {
      select =
        (fun pool ->
          Pool.retain pool (fun c -> IntSet.mem c.block_id pre.included);
          take vliw_better pool);
    }
