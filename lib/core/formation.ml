(* Convergent hyperblock formation (Figure 5 of the paper).

   [expand_block] grows a seed block by repeatedly selecting a candidate
   successor (policy-driven), trial-merging it, optimizing the merged
   block when the configuration says to, and committing only when the
   TRIPS structural constraints still hold.  [MergeBlocks]'s case split is
   implemented in [classify]:

   - unique predecessor: plain merge, the successor block disappears;
   - [HB -> S] is a self back edge ([HB = S]): unrolling by head
     duplication — a copy of the *saved one-iteration body* is merged, so
     each unroll appends one iteration rather than doubling (Section 4.1);
   - S is a loop header reached over a non-back edge: peeling by head
     duplication;
   - otherwise: classical tail duplication.

   All three duplication flavors go through the single [Combine] merge
   primitive applied to a fresh copy of S whose exits still name the
   original targets; the copy never exists as a separate CFG block, so
   the CFG never grows and termination is easy to see.

   Instead of the paper's scratch-space trial, we install the merged
   block, recompute liveness, optimize and constraint-check, and roll the
   installation back on failure — observably identical, but it gives the
   optimizer and the size estimator exact liveness information.

   Convergence: candidates that failed only because the block was too
   full are retried after further merges and optimizations shrink the
   block ("repeatedly applies scalar optimizations until it cannot add
   any block"). *)

open Trips_ir
open Trips_analysis
open Trips_profile
open Trips_transform

type stats = {
  mutable merges : int;  (* m: successful merges of any kind *)
  mutable tail_dups : int;  (* t *)
  mutable unrolls : int;  (* u *)
  mutable peels : int;  (* p *)
  mutable attempts : int;
  mutable size_rejections : int;
  mutable combine_failures : int;  (* structural Cannot_combine rejections *)
  mutable block_splits : int;  (* Section 9 extension, when enabled *)
}

let empty_stats () =
  {
    merges = 0;
    tail_dups = 0;
    unrolls = 0;
    peels = 0;
    attempts = 0;
    size_rejections = 0;
    combine_failures = 0;
    block_splits = 0;
  }

let pp_stats fmt s =
  Fmt.pf fmt "%d/%d/%d/%d" s.merges s.tail_dups s.unrolls s.peels

type merge_kind = Simple | Unroll | Peel | Tail_dup

let kind_name = function
  | Simple -> "simple"
  | Unroll -> "unroll"
  | Peel -> "peel"
  | Tail_dup -> "tail_dup"

type state = {
  cfg : Cfg.t;
  profile : Profile.t;
  config : Policy.config;
  stats : stats;
  finalized : (int, unit) Hashtbl.t;
  saved_bodies : (int, Block.t) Hashtbl.t;  (* loop block -> 1-iteration body *)
  peels_done : (int, int) Hashtbl.t;  (* header -> peeled iterations *)
  unrolls_done : (int, int) Hashtbl.t;  (* loop block -> appended iterations *)
  mutable version : int;  (* bumped on every CFG change *)
  mutable edge_version : int;
      (* bumped only when a successor list may have changed; body-only
         rewrites (the optimizer shrinking a block in place) keep it, so
         edge-keyed caches survive them *)
  mutable loops_cache : (int * int * Loops.t) option;
      (* (edge_version, version) at which the forest was last validated *)
  mutable preds_cache : (int * IntSet.t IntMap.t) option;
      (* predecessor map keyed by edge_version *)
  mutable live_cache : (int * Liveness.t) option;
  mutable live_dirty : IntSet.t;
      (* blocks edited (or removed) since [live_cache] was solved; the
         seeds for the next incremental [Liveness.update] *)
  (* how often each cache answered; published as the
     [formation.liveness.incremental] / [formation.loops.reuse] metrics *)
  mutable live_incremental : int;
  mutable loops_reuse : int;
}

let make config cfg profile =
  {
    cfg;
    profile;
    config;
    stats = empty_stats ();
    finalized = Hashtbl.create 64;
    saved_bodies = Hashtbl.create 8;
    peels_done = Hashtbl.create 8;
    unrolls_done = Hashtbl.create 8;
    version = 0;
    edge_version = 0;
    loops_cache = None;
    preds_cache = None;
    live_cache = None;
    live_dirty = IntSet.empty;
    live_incremental = 0;
    loops_reuse = 0;
  }

let stats st = st.stats

let publish_metrics st =
  let open Trips_obs in
  let s = st.stats in
  Metrics.incr ~by:s.merges "formation.merges";
  Metrics.incr ~by:s.tail_dups "formation.tail_dups";
  Metrics.incr ~by:s.unrolls "formation.unrolls";
  Metrics.incr ~by:s.peels "formation.peels";
  Metrics.incr ~by:s.attempts "formation.attempts";
  Metrics.incr ~by:s.size_rejections "formation.reject.size";
  Metrics.incr ~by:s.combine_failures "formation.reject.structural";
  Metrics.incr ~by:s.block_splits "formation.block_splits";
  Metrics.incr ~by:st.live_incremental "formation.liveness.incremental";
  Metrics.incr ~by:st.loops_reuse "formation.loops.reuse"

(* Test-only fault injection: when set, a combine for which the function
   returns [true] fails as if [Combine.Cannot_combine] had been raised.
   Lets the chaos/property tests exercise the structural-failure paths
   (rollback, retry-pool exclusion) on demand. *)
let chaos_combine_failure :
    (hb_id:int -> s_id:int -> kind:merge_kind -> bool) option ref =
  ref None

(* Test-only audit: when set, every cached liveness, loop forest and
   predecessor answer formation uses is checked against a from-scratch
   solve, and a mismatch raises [Failure]. *)
let audit = ref false

let audit_check ~hb_id ~s_id what ok =
  if not ok then
    failwith
      (Printf.sprintf
         "formation audit: cached %s differs from a fresh solve (hb_id %d, \
          s_id %d)"
         what hb_id s_id)

(* Record a CFG edit that cannot have changed any successor list. *)
let touch_body st ids =
  st.version <- st.version + 1;
  st.live_dirty <- List.fold_left (fun s id -> IntSet.add id s) st.live_dirty ids

(* Record a CFG edit that may have rewired edges. *)
let touch_edges st ids =
  touch_body st ids;
  st.edge_version <- st.edge_version + 1

(* The loop forest, keyed by [edge_version] so body-only touches
   revalidate it for free. *)
let loops st =
  match st.loops_cache with
  | Some (k, v, l) when k = st.edge_version ->
    if v <> st.version then begin
      (* a forest revalidated across a body-only edit *)
      st.loops_reuse <- st.loops_reuse + 1;
      st.loops_cache <- Some (k, st.version, l)
    end;
    l
  | _ ->
    let l = Loops.compute st.cfg in
    st.loops_cache <- Some (st.edge_version, st.version, l);
    l

(* Predecessor list of [s_id], same contents as [Cfg.predecessors] but
   served from an edge-versioned cached map instead of rebuilding the
   whole map per query (classify and the breadth-first selector both ask
   per candidate).  [hb_id] only names the asking hyperblock in an audit
   failure. *)
let preds st ~hb_id s_id =
  let map =
    match st.preds_cache with
    | Some (k, m) when k = st.edge_version -> m
    | _ ->
      let m = Cfg.predecessor_map st.cfg in
      st.preds_cache <- Some (st.edge_version, m);
      m
  in
  let ps = IntMap.find_or ~default:IntSet.empty s_id map in
  if !audit then
    audit_check ~hb_id ~s_id "predecessors"
      (IntSet.equal ps (IntSet.of_list (Cfg.predecessors st.cfg s_id)));
  IntSet.elements ps

let liveness st =
  match st.live_cache with
  | Some (v, l) when v = st.version -> l
  | Some (_, l) ->
    (* re-solve only from the blocks edited since the last solution *)
    let touched = IntSet.elements st.live_dirty in
    let l = Liveness.update l st.cfg ~touched in
    st.live_incremental <- st.live_incremental + 1;
    st.live_dirty <- IntSet.empty;
    st.live_cache <- Some (st.version, l);
    l
  | None ->
    let l = Liveness.compute st.cfg in
    st.live_dirty <- IntSet.empty;
    st.live_cache <- Some (st.version, l);
    l

exception Dirty_reachable

(* Exact live-out of [hb_id] without re-solving any fixpoint.
   [live_out hb = ∪ live_in succ], and a successor's live_in depends
   only on its forward cone — so when no successor can reach a block
   edited since the cached solution was solved (the dirty set, which
   after a trial install includes the hyperblock itself), the cached
   values are still exact and the union can be read off directly.  The
   reachability check is a forward DFS with a small node budget; on a
   hit or budget exhaustion we return [None] and the caller falls back
   to the incremental update.  This skips the whole ancestors-reset
   re-solve on the common straight-line merge trial, where successors
   sit strictly downstream; self-loops (unrolling) fail the check
   immediately and pay the full update as before. *)
let live_out_local st hb_id =
  match st.live_cache with
  | Some (_, l) ->
    let succs = Block.distinct_successors (Cfg.block st.cfg hb_id) in
    let target = IntSet.add hb_id st.live_dirty in
    let budget = ref 64 in
    let visited = Hashtbl.create 16 in
    let rec dfs id =
      if not (Hashtbl.mem visited id) then begin
        decr budget;
        if !budget < 0 || IntSet.mem id target then raise Dirty_reachable;
        Hashtbl.replace visited id ();
        List.iter dfs (Cfg.successors st.cfg id)
      end
    in
    (try
       List.iter dfs succs;
       st.live_incremental <- st.live_incremental + 1;
       Some
         (List.fold_left
            (fun acc s -> IntSet.union acc (Liveness.live_in l s))
            IntSet.empty succs)
     with Dirty_reachable -> None)
  | None -> None

let counter tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)
let bump_counter tbl key = Hashtbl.replace tbl key (counter tbl key + 1)

(* ---- LegalMerge -------------------------------------------------------- *)

(* Classify the merge of successor [s_id] into [hb_id], or reject it.
   Mirrors lines 7-15 of MergeBlocks plus the policy's legality gates.
   [hb] may pass the already-fetched hyperblock record (the expansion
   loop holds it across attempts on an unchanged block). *)
let classify ?hb st ~hb_id ~s_id : merge_kind option =
  let cfg = st.cfg in
  let config = st.config in
  match Cfg.block_opt cfg s_id with
  | None -> None
  | Some s_blk ->
    if Hashtbl.mem st.finalized s_id && s_id <> hb_id then None
    else begin
      let hb = match hb with Some b -> b | None -> Cfg.block cfg hb_id in
      if not (List.mem s_id (Block.distinct_successors hb)) then None
      else if s_id = hb_id then
        (* self back edge: unrolling *)
        if
          config.Policy.enable_head_dup
          && counter st.unrolls_done hb_id < config.Policy.max_unroll
        then Some Unroll
        else None
      else begin
        let s_preds = preds st ~hb_id s_id in
        let lp = loops st in
        let is_header = Loops.is_loop_header lp s_id in
        let back_edge = Loops.is_back_edge lp ~src:hb_id ~dst:s_id in
        if !audit then begin
          let fresh = Loops.compute cfg in
          audit_check ~hb_id ~s_id "loop header"
            (is_header = Loops.is_loop_header fresh s_id);
          audit_check ~hb_id ~s_id "back edge"
            (back_edge = Loops.is_back_edge fresh ~src:hb_id ~dst:s_id)
        end;
        if s_preds = [ hb_id ] && s_id <> cfg.Cfg.entry then Some Simple
        else if is_header && not back_edge then
          if
            config.Policy.enable_head_dup
            && counter st.peels_done s_id < config.Policy.max_peel
            &&
            (* trip-count-histogram gate: peel iteration k only when enough
               entries run at least k iterations *)
            (match Profile.trip_histogram st.profile s_id with
            | [] -> true
            | _ ->
              Profile.trip_count_at_least st.profile s_id
                (counter st.peels_done s_id + 1)
              >= config.Policy.peel_coverage)
          then Some Peel
          else None
        else if
          config.Policy.enable_tail_dup
          && Block.size s_blk <= config.Policy.max_tail_dup_instrs
        then Some Tail_dup
        else None
      end
    end

(* ---- MergeBlocks ------------------------------------------------------- *)

(* Is the saved body still usable — every target either the loop block
   itself or still present? *)
let saved_body_valid st hb_id (b : Block.t) =
  List.for_all (fun t -> t = hb_id || Cfg.mem st.cfg t) (Block.successors b)

(* The saved one-iteration body for unrolling [hb_id]; re-saved if stale
   (a target of the saved body has since been merged away). *)
let body_for_unroll st hb_id =
  let current = Cfg.block st.cfg hb_id in
  match Hashtbl.find_opt st.saved_bodies hb_id with
  | Some b when saved_body_valid st hb_id b -> b
  | Some _ | None ->
    Hashtbl.replace st.saved_bodies hb_id current;
    current

type merge_outcome =
  | Success of Constraints.estimate
  | Structural_failure of string
  | Size_rejected of Constraints.estimate

let zero_estimate =
  { Constraints.instrs = 0; loads_stores = 0; reads = 0; writes = 0 }

(* One trace event per merge attempt — the replayable decision log the
   convergence argument needs.  [outcome] is "success" or the reject
   reason ("structural" | "size" | "policy" | "budget"). *)
let emit_attempt st ~hb_id ~s_id ~depth ~prob ~classify ~outcome ~est ~msg =
  if Trips_obs.Trace.is_enabled () then begin
    let open Trips_obs.Trace in
    let l = st.config.Policy.limits in
    record "merge-attempt"
      [
        ("seed", Int hb_id);
        ("cand", Int s_id);
        ("depth", Int depth);
        ("prob", Float prob);
        ("classify", Str classify);
        ("outcome", Str outcome);
        ("est_instrs", Int est.Constraints.instrs);
        ("est_loads_stores", Int est.Constraints.loads_stores);
        ("est_reads", Int est.Constraints.reads);
        ("est_writes", Int est.Constraints.writes);
        ("max_instrs", Int l.Constraints.max_instrs);
        ("max_loads_stores", Int l.Constraints.max_load_store);
        ("max_reads", Int l.Constraints.max_reads);
        ("max_writes", Int l.Constraints.max_writes);
        ("slack", Int st.config.Policy.slack);
        ("msg", Str msg);
      ]
  end

let merge_blocks ?(depth = 0) ?(prob = 1.0) ?hb st ~hb_id ~s_id ~kind :
    merge_outcome =
  let cfg = st.cfg in
  let config = st.config in
  st.stats.attempts <- st.stats.attempts + 1;
  let hb = match hb with Some b -> b | None -> Cfg.block cfg hb_id in
  let emit = emit_attempt st ~hb_id ~s_id ~depth ~prob ~classify:(kind_name kind) in
  (* Snapshot everything a failed attempt must not leak: the saved unroll
     body (body_for_unroll may re-save it below), the fresh-id counters
     (the trial allocates instruction/register/block ids that die with
     the rollback; restoring the counters keeps a failed attempt
     bit-for-bit invisible to later merges), and the edge version (a
     rolled-back trial restores the exact pre-trial graph, so edge-keyed
     caches stay valid across it). *)
  let saved_body_before =
    if kind = Unroll then Hashtbl.find_opt st.saved_bodies hb_id else None
  in
  let next_block0 = cfg.Cfg.next_block
  and next_instr0 = cfg.Cfg.next_instr
  and next_reg0 = cfg.Cfg.next_reg in
  let edge_version0 = st.edge_version in
  let live_cache0 = st.live_cache and live_dirty0 = st.live_dirty in
  let rollback_hidden_state () =
    if kind = Unroll then
      (match saved_body_before with
      | Some b -> Hashtbl.replace st.saved_bodies hb_id b
      | None -> Hashtbl.remove st.saved_bodies hb_id);
    cfg.Cfg.next_block <- next_block0;
    cfg.Cfg.next_instr <- next_instr0;
    cfg.Cfg.next_reg <- next_reg0
  in
  let restore_edge_version () =
    st.edge_version <- edge_version0;
    (* a forest or map computed *during* the trial must not be
       revalidated at a reused version number *)
    (match st.loops_cache with
    | Some (k, _, _) when k > st.edge_version -> st.loops_cache <- None
    | _ -> ());
    match st.preds_cache with
    | Some (k, _) when k > st.edge_version -> st.preds_cache <- None
    | _ -> ()
  in
  let s_for_merge, s_label =
    match kind with
    | Simple -> (Cfg.block cfg s_id, s_id)
    | Tail_dup | Peel ->
      (Cfg.refresh_instr_ids cfg (Cfg.block cfg s_id), s_id)
    | Unroll -> (Cfg.refresh_instr_ids cfg (body_for_unroll st hb_id), hb_id)
  in
  (* Provenance: the copy (or moved block) about to enter the hyperblock
     is re-placed by this merge; origins are preserved, the latest
     placing transform wins.  The retagged copy dies with the rollback,
     so lineage never leaks from a failed trial. *)
  let lineage_step = List.length (Cfg.decisions cfg hb_id) + 1 in
  let s_for_merge =
    let placed =
      match kind with
      | Simple -> Lineage.If_conv lineage_step
      | Tail_dup -> Lineage.Tail_dup lineage_step
      | Unroll ->
        Lineage.Unroll (lineage_step, counter st.unrolls_done hb_id + 1)
      | Peel -> Lineage.Peel (lineage_step, counter st.peels_done s_id + 1)
    in
    let instrs =
      List.map
        (fun (i : Instr.t) ->
          Instr.with_lineage { i.Instr.lineage with Lineage.placed } i)
        s_for_merge.Block.instrs
    in
    { s_for_merge with Block.instrs }
  in
  let combined_result =
    let injected =
      match !chaos_combine_failure with
      | Some f -> f ~hb_id ~s_id ~kind
      | None -> false
    in
    if injected then Error "chaos-injected Cannot_combine"
    else
      match Combine.combine cfg ~hb ~s:s_for_merge ~s_label with
      | combined, _ -> Ok combined
      | exception Combine.Cannot_combine msg -> Error msg
  in
  match combined_result with
  | Error msg ->
    (* structural failure: nothing was installed, but the id counters
       (and possibly the saved body) already moved — restore them *)
    st.stats.combine_failures <- st.stats.combine_failures + 1;
    rollback_hidden_state ();
    emit ~outcome:"structural" ~est:zero_estimate ~msg;
    Structural_failure msg
  | Ok combined ->
    (* install tentatively; saved state allows rollback.  The merge
       rewires the hyperblock's exits, and a Simple merge removes [s]. *)
    let old_s = if kind = Simple then Cfg.block_opt cfg s_id else None in
    Cfg.set_block cfg combined;
    if kind = Simple then begin
      Cfg.remove_block cfg s_id;
      touch_edges st [ hb_id; s_id ]
    end
    else touch_edges st [ hb_id ];
    let trial_live_out () =
      let lo =
        match live_out_local st hb_id with
        | Some lo -> lo
        | None -> Liveness.live_out (liveness st) hb_id
      in
      if !audit then
        audit_check ~hb_id ~s_id "live-out"
          (IntSet.equal lo
             (Liveness.live_out (Liveness.compute cfg) hb_id));
      lo
    in
    let live_out = trial_live_out () in
    let final =
      if config.Policy.iterate_opt then begin
        let b = Trips_opt.Optimizer.optimize_block cfg combined ~live_out in
        if b != combined then begin
          Cfg.set_block cfg b;
          (* the exit simplifier may have pruned exits *)
          if
            Block.distinct_successors b
            = Block.distinct_successors combined
          then touch_body st [ hb_id ]
          else touch_edges st [ hb_id ]
        end;
        b
      end
      else combined
    in
    let live_out = trial_live_out () in
    let est = Constraints.estimate final ~live_out in
    if Constraints.legal ~slack:config.Policy.slack config.Policy.limits est
    then begin
      st.stats.merges <- st.stats.merges + 1;
      (match kind with
      | Simple -> ()
      | Tail_dup -> st.stats.tail_dups <- st.stats.tail_dups + 1
      | Unroll ->
        st.stats.unrolls <- st.stats.unrolls + 1;
        bump_counter st.unrolls_done hb_id
      | Peel ->
        st.stats.peels <- st.stats.peels + 1;
        bump_counter st.peels_done s_id);
      Cfg.record_decision cfg hb_id
        (Lineage.decision ~step:lineage_step ~kind:(kind_name kind) ~src:s_id);
      emit ~outcome:"success" ~est ~msg:"";
      Success est
    end
    else begin
      (* rollback: restore the exact pre-trial graph *)
      st.stats.size_rejections <- st.stats.size_rejections + 1;
      Cfg.set_block cfg hb;
      (match old_s with Some b -> Cfg.set_block cfg b | None -> ());
      rollback_hidden_state ();
      (* the rolled-back graph is bit-identical to the pre-trial one, so
         the pre-trial liveness solution and dirty set are exact again;
         re-key them at a fresh version (a solution computed against the
         trial graph must never be served) instead of dirtying, so a
         failed trial costs no liveness work later *)
      st.version <- st.version + 1;
      st.live_cache <- Option.map (fun (_, l) -> (st.version, l)) live_cache0;
      st.live_dirty <- live_dirty0;
      restore_edge_version ();
      emit ~outcome:"size" ~est:zero_estimate ~msg:"";
      Size_rejected est
    end

(* ---- ExpandBlock ------------------------------------------------------- *)

(* Candidates reached through block [src] (whose successors are
   [targets]), with path probabilities extended using the original edge
   profile. *)
let make_candidates st ~src ~targets ~depth ~prob =
  List.map
    (fun t ->
      {
        Policy.block_id = t;
        depth;
        prob = prob *. Profile.edge_prob st.profile ~src ~dst:t;
      })
    targets

(** Grow the hyperblock seeded at [seed] until no candidate fits. *)
let expand_block st seed =
  if Cfg.mem st.cfg seed then begin
    let selector =
      Policy.make_selector ~preds:(preds st ~hb_id:seed) st.config st.cfg
        st.profile ~seed
    in
    let pool = Policy.Pool.create () in
    let merge_budget = ref (4 * Cfg.num_blocks st.cfg + 64) in
    (* candidates rejected *only on size*, retried after later shrinks;
       structural (Cannot_combine) failures never enter this pool — a
       merge the combiner cannot express will not become expressible
       because the block shrank, and retrying it would melt the budget *)
    let retry = ref [] in
    (* the seed's current block record, held across attempts: a failed
       merge rolls the block back bit-for-bit, so only a success or a
       split forces a refetch *)
    let hb_cache = ref None in
    let current_hb () =
      match !hb_cache with
      | Some b -> b
      | None ->
        let b = Cfg.block st.cfg seed in
        hb_cache := Some b;
        b
    in
    let emit_reject (c : Policy.candidate) ~classify ~outcome =
      emit_attempt st ~hb_id:seed ~s_id:c.Policy.block_id
        ~depth:c.Policy.depth ~prob:c.Policy.prob ~classify ~outcome
        ~est:zero_estimate ~msg:""
    in
    (* Budget exhaustion: every candidate still waiting — the one just
       selected, the remaining pool (canonical block-id order) and the
       size-retry list (chronological) — gets its own [budget] event, so
       the trace stays a complete account of every candidacy and the
       trace==stats identity holds when the budget trips. *)
    let drain_budget c =
      emit_reject c ~classify:"none" ~outcome:"budget";
      List.iter
        (fun c -> emit_reject c ~classify:"none" ~outcome:"budget")
        (Policy.Pool.to_sorted_list pool);
      List.iter
        (fun c -> emit_reject c ~classify:"none" ~outcome:"budget")
        (List.rev !retry);
      retry := []
    in
    let rec drain ~progress =
      match selector.Policy.select pool with
      | None ->
        (* convergence retry: size-failed candidates get another chance
           once something else was merged (the block may have shrunk) *)
        if progress && !retry <> [] then begin
          Policy.Pool.add_list pool !retry;
          retry := [];
          drain ~progress:false
        end
      | Some c ->
        (* watchdog: one poll per drained candidate — the convergent
           loop's unit of work.  A pathological input that makes the
           retry pool churn for seconds trips the stage deadline (or
           fuel budget) here and surfaces as a structured [Timed_out]
           cell failure instead of a hung sweep. *)
        Trips_obs.Watchdog.check ();
        if !merge_budget <= 0 then drain_budget c
        else begin
          decr merge_budget;
          let s_id = c.Policy.block_id in
          match classify ~hb:(current_hb ()) st ~hb_id:seed ~s_id with
          | None ->
            emit_reject c ~classify:"none" ~outcome:"policy";
            drain ~progress
          | Some kind -> (
            (* snapshot the merged-in block's own successors before the
               merge folds them into the seed's exit list *)
            let merged_succs =
              Block.distinct_successors (Cfg.block st.cfg s_id)
            in
            match
              merge_blocks ~depth:c.Policy.depth ~prob:c.Policy.prob
                ~hb:(current_hb ()) st ~hb_id:seed ~s_id ~kind
            with
            | Success _ ->
              hb_cache := None;
              make_candidates st ~src:s_id ~targets:merged_succs
                ~depth:(c.Policy.depth + 1) ~prob:c.Policy.prob
              |> Policy.Pool.add_list pool;
              drain ~progress:true
            | Structural_failure _ ->
              (* dropped: not retried, not split *)
              drain ~progress
            | Size_rejected _ ->
              (* Section 9 extension: a unique-predecessor candidate that
                 only failed on size can be split so its first half still
                 merges; the second half becomes a later candidate *)
              if
                st.config.Policy.enable_block_splitting
                && kind = Simple
                && Block.size (Cfg.block st.cfg s_id) >= 8
              then begin
                match Trips_transform.Split.split_block st.cfg s_id with
                | Some new_id ->
                  st.stats.block_splits <- st.stats.block_splits + 1;
                  touch_edges st [ s_id; new_id ];
                  Policy.Pool.add pool c;
                  drain ~progress:true
                | None ->
                  retry := c :: !retry;
                  drain ~progress
              end
              else begin
                retry := c :: !retry;
                drain ~progress
              end)
        end
    in
    make_candidates st ~src:seed
      ~targets:(Block.distinct_successors (Cfg.block st.cfg seed))
      ~depth:1 ~prob:1.0
    |> Policy.Pool.add_list pool;
    drain ~progress:false
  end

(** Run hyperblock formation over the whole function: expand every block,
    hottest seed first (profiled execution count, reverse postorder as
    tie-break), treating newly formed hyperblocks as final.  Seeding by
    frequency lets the hot loop header absorb its body while the body
    blocks still have unique predecessors; seeding in plain textual order
    would let a cold predecessor (e.g. the function entry) peel and
    tail-duplicate the loop first and fragment it.  Returns merge
    statistics (the paper's m/t/u/p). *)
let run config cfg profile : stats =
  let st = make config cfg profile in
  let rec loop () =
    (* seed boundary: pruning can delete arbitrarily many blocks.  The
       caches carry across seeds by touching exactly the pruned blocks —
       in the common case nothing is pruned and every cache stays
       valid. *)
    let before = Cfg.block_ids cfg in
    Order.prune_unreachable cfg;
    (match List.filter (fun id -> not (Cfg.mem cfg id)) before with
    | [] -> ()
    | removed -> touch_edges st removed);
    let rpo = Order.reverse_postorder cfg in
    let order =
      List.mapi (fun idx id -> (id, idx)) rpo
      |> List.sort (fun (a, ia) (b, ib) ->
             match
               compare (Profile.block_count profile b)
                 (Profile.block_count profile a)
             with
             | 0 -> compare ia ib
             | c -> c)
      |> List.map fst
    in
    match List.find_opt (fun id -> not (Hashtbl.mem st.finalized id)) order with
    | Some seed ->
      Trips_obs.Watchdog.check ();
      expand_block st seed;
      Hashtbl.replace st.finalized seed ();
      loop ()
    | None -> ()
  in
  loop ();
  Order.prune_unreachable cfg;
  Cfg.validate cfg;
  publish_metrics st;
  st.stats
