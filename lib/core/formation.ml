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
   block, solve its live-out on demand, optimize and constraint-check,
   and roll the installation back on failure — observably identical, but
   it gives the optimizer and the size estimator exact liveness
   information.

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

let accum ~into s =
  into.merges <- into.merges + s.merges;
  into.tail_dups <- into.tail_dups + s.tail_dups;
  into.unrolls <- into.unrolls + s.unrolls;
  into.peels <- into.peels + s.peels;
  into.attempts <- into.attempts + s.attempts;
  into.size_rejections <- into.size_rejections + s.size_rejections;
  into.combine_failures <- into.combine_failures + s.combine_failures;
  into.block_splits <- into.block_splits + s.block_splits

type merge_kind = Simple | Unroll | Peel | Tail_dup

(* lower-case stable name used in trace events *)
let kind_name = function
  | Simple -> "simple"
  | Unroll -> "unroll"
  | Peel -> "peel"
  | Tail_dup -> "tail_dup"

(* Formation's cached analyses, one immutable record so a trial can
   snapshot and restore them as a unit.  [succs] (each block's distinct
   successors) and [preds] are always exact for the current graph:
   [touch] patches them per edit.  [dom] is valid for the current graph
   when present; [live] was solved before edits to exactly the blocks in
   [dirty] (edited or removed since), which a trial's region solve reads
   around and the next seed folds in. *)
type analyses = {
  dom : Dominators.t option;
  succs : int list IntMap.t;
  preds : IntSet.t IntMap.t;
  live : Liveness.t option;
  dirty : IntSet.t;
}

type state = {
  cfg : Cfg.t;
  profile : Profile.t;
  config : Policy.config;
  stats : stats;
  finalized : (int, unit) Hashtbl.t;
  saved_bodies : (int, Block.t) Hashtbl.t;  (* loop block -> 1-iteration body *)
  peels_done : (int, int) Hashtbl.t;  (* header -> peeled iterations *)
  unrolls_done : (int, int) Hashtbl.t;  (* loop block -> appended iterations *)
  mutable cache : analyses;
  (* published as [formation.liveness.incremental] (trial live-outs read
     off the cached solution), [formation.liveness.solved_blocks] (blocks
     re-solved by trial region solves and seed folds) and
     [formation.loops.reuse] (dominator-tree lookups served from the
     cache; the name is from when the cache held the loop forest) *)
  mutable live_incremental : int;
  mutable live_solved : int;
  mutable dom_reuse : int;
}

let successor_map cfg =
  List.fold_left
    (fun m id -> IntMap.add id (Cfg.successors cfg id) m)
    IntMap.empty (Cfg.block_ids cfg)

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
    cache =
      {
        dom = None;
        succs = successor_map cfg;
        preds = Cfg.predecessor_map cfg;
        live = None;
        dirty = IntSet.empty;
      };
    live_incremental = 0;
    live_solved = 0;
    dom_reuse = 0;
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
  Metrics.incr ~by:st.live_solved "formation.liveness.solved_blocks";
  Metrics.incr ~by:st.dom_reuse "formation.loops.reuse"

(* Test-only fault injection: when set, a combine for which the function
   returns [true] fails as if [Combine.Cannot_combine] had been raised.
   Lets the chaos/property tests exercise the structural-failure paths
   (rollback, retry-pool exclusion) on demand. *)
let chaos_combine_failure :
    (hb_id:int -> s_id:int -> kind:merge_kind -> bool) option ref =
  ref None

(* Test-only audit: when set, every cached liveness and predecessor
   answer formation uses is checked against a from-scratch solve, every
   patched successor and predecessor map against a fresh build of the
   whole map, every loop-header and back-edge answer against a fresh
   [Loops.compute], and a mismatch raises [Failure]. *)
let audit = ref false

let audit_check ~hb_id ~s_id what ok =
  if not ok then
    failwith
      (Printf.sprintf
         "formation audit: cached %s differs from a fresh solve (hb_id %d, \
          s_id %d)"
         what hb_id s_id)

(* Record a CFG edit of blocks [ids] (replaced, added or removed): each
   id leaves its old successors' predecessor sets and joins its current
   ones', the dominator tree goes, and [ids] join the blocks the
   liveness solution predates. *)
let touch st ids =
  let patch (succs, preds) id =
    let unlink preds s =
      let ps = IntSet.remove id (IntMap.find_or ~default:IntSet.empty s preds) in
      if IntSet.is_empty ps then IntMap.remove s preds else IntMap.add s ps preds
    and link preds s =
      IntMap.add s (IntSet.add id (IntMap.find_or ~default:IntSet.empty s preds)) preds
    in
    let preds =
      List.fold_left unlink preds (IntMap.find_or ~default:[] id succs)
    in
    match Cfg.block_opt st.cfg id with
    | None -> (IntMap.remove id succs, preds)
    | Some b ->
      let ss = Block.distinct_successors b in
      (IntMap.add id ss succs, List.fold_left link preds ss)
  in
  let succs, preds = List.fold_left patch (st.cache.succs, st.cache.preds) ids in
  if !audit then begin
    let check what ok =
      if not ok then
        failwith
          (Printf.sprintf
             "formation audit: patched %s differs from a fresh build \
              (touched %s)"
             what
             (String.concat " " (List.map string_of_int ids)))
    in
    check "successor map" (IntMap.equal ( = ) succs (successor_map st.cfg));
    check "predecessor map"
      (IntMap.equal IntSet.equal preds (Cfg.predecessor_map st.cfg))
  end;
  let dirty = IntSet.union st.cache.dirty (IntSet.of_list ids) in
  st.cache <- { st.cache with dom = None; succs; preds; dirty }

let dominators st =
  match st.cache.dom with
  | Some d ->
    st.dom_reuse <- st.dom_reuse + 1;
    d
  | None ->
    let d = Dominators.compute st.cfg in
    st.cache <- { st.cache with dom = Some d };
    d

(* Predecessor list of [s_id], same contents as [Cfg.predecessors] but
   read off the patched map instead of rebuilding the whole map per
   query (classify and the breadth-first selector both ask per
   candidate).  [hb_id] only names the asking hyperblock in an audit
   failure. *)
let preds st ~hb_id s_id =
  let ps = IntMap.find_or ~default:IntSet.empty s_id st.cache.preds in
  if !audit then
    audit_check ~hb_id ~s_id "predecessors"
      (IntSet.equal ps (IntSet.of_list (Cfg.predecessors st.cfg s_id)));
  IntSet.elements ps

(* Make the cached liveness solution exact for the current graph: one
   incremental re-solve over everything edited since it was solved.
   [expand_block] calls it once per seed, so the merges a seed commits
   cost one re-solve, not one per trial. *)
let fold_liveness st =
  let solve l =
    st.live_solved <- st.live_solved + Liveness.solved l;
    st.cache <- { st.cache with live = Some l; dirty = IntSet.empty }
  in
  match st.cache.live with
  | Some _ when IntSet.is_empty st.cache.dirty -> ()
  | Some l -> solve (Liveness.update l st.cfg ~touched:(IntSet.elements st.cache.dirty))
  | None -> solve (Liveness.compute st.cfg)

let counter tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)
let bump_counter tbl key = Hashtbl.replace tbl key (counter tbl key + 1)

(* ---- LegalMerge -------------------------------------------------------- *)

(* Classify the merge of successor [s_id] into [hb_id], or reject it.
   Mirrors lines 7-15 of MergeBlocks plus the policy's legality gates. *)
let classify st ~hb_id ~s_id : merge_kind option =
  let cfg = st.cfg in
  let config = st.config in
  match Cfg.block_opt cfg s_id with
  | None -> None
  | Some s_blk ->
    if Hashtbl.mem st.finalized s_id && s_id <> hb_id then None
    else begin
      let hb = Cfg.block cfg hb_id in
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
        (* A unique predecessor needs no loop question: every path to [s]
           then passes through [hb], so [s] dominating [hb] as well would
           make them equal, and [s] heads no loop. *)
        if s_preds = [ hb_id ] && s_id <> cfg.Cfg.entry then begin
          if !audit then
            audit_check ~hb_id ~s_id "loop header"
              (not (Loops.is_loop_header (Loops.compute cfg) s_id));
          Some Simple
        end
        else
          (* [s] heads a natural loop iff it dominates one of its
             predecessors (the source of a back edge); the edge
             [hb -> s], present as checked above, is a back edge iff [s]
             dominates [hb]. *)
          let dom = dominators st in
          let is_header =
            List.exists (fun p -> Dominators.dominates dom s_id p) s_preds
          in
          let back_edge = Dominators.dominates dom s_id hb_id in
          if !audit then begin
            let fresh = Loops.compute cfg in
            audit_check ~hb_id ~s_id "loop header"
              (is_header = Loops.is_loop_header fresh s_id);
            audit_check ~hb_id ~s_id "back edge"
              (back_edge = Loops.is_back_edge fresh ~src:hb_id ~dst:s_id)
          end;
          if is_header && not back_edge then
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
  {
    Constraints.instrs = 0;
    loads_stores = 0;
    reads = 0;
    writes = 0;
    inputs = IntSet.empty;
    outputs = IntSet.empty;
  }

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

(* Everything a failed trial must leave as it found it: the hyperblock,
   the block a Simple merge removes, the saved unroll body
   ([body_for_unroll] may re-save it), the fresh-id counters (the trial
   allocates instruction/register/block ids that die with it, so a failed
   attempt stays bit-for-bit invisible to later merges) and the cached
   analyses, which are exact again for the restored graph. *)
type snapshot = {
  hb : Block.t;
  s : Block.t option;
  saved_body : Block.t option;
  ids : int * int * int;  (* next_block, next_instr, next_reg *)
  cache : analyses;
}

let snapshot st ~hb_id ~s_id ~kind =
  let cfg = st.cfg in
  {
    hb = Cfg.block cfg hb_id;
    s = (if kind = Simple then Cfg.block_opt cfg s_id else None);
    saved_body = Hashtbl.find_opt st.saved_bodies hb_id;
    ids = (cfg.Cfg.next_block, cfg.Cfg.next_instr, cfg.Cfg.next_reg);
    cache = st.cache;
  }

let restore st snap =
  let cfg = st.cfg and hb_id = snap.hb.Block.id in
  Cfg.set_block cfg snap.hb;
  Option.iter (Cfg.set_block cfg) snap.s;
  (match snap.saved_body with
  | Some b -> Hashtbl.replace st.saved_bodies hb_id b
  | None -> Hashtbl.remove st.saved_bodies hb_id);
  let next_block, next_instr, next_reg = snap.ids in
  cfg.Cfg.next_block <- next_block;
  cfg.Cfg.next_instr <- next_instr;
  cfg.Cfg.next_reg <- next_reg;
  st.cache <- snap.cache

let merge_blocks ?(depth = 0) ?(prob = 1.0) st ~hb_id ~s_id ~kind :
    merge_outcome =
  let cfg = st.cfg in
  let config = st.config in
  st.stats.attempts <- st.stats.attempts + 1;
  let emit = emit_attempt st ~hb_id ~s_id ~depth ~prob ~classify:(kind_name kind) in
  (* a trial reads around the cached solution, so there must be one *)
  if Option.is_none st.cache.live then fold_liveness st;
  let snap = snapshot st ~hb_id ~s_id ~kind in
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
      match Combine.combine cfg ~hb:snap.hb ~s:s_for_merge ~s_label with
      | combined, _ -> Ok combined
      | exception Combine.Cannot_combine msg -> Error msg
  in
  match combined_result with
  | Error msg ->
    (* structural failure: nothing was installed, but the id counters
       (and possibly the saved body) already moved *)
    st.stats.combine_failures <- st.stats.combine_failures + 1;
    restore st snap;
    emit ~outcome:"structural" ~est:zero_estimate ~msg;
    Structural_failure msg
  | Ok combined ->
    (* install tentatively; the snapshot allows rollback.  The merge
       rewires the hyperblock's exits, and a Simple merge removes [s]. *)
    Cfg.set_block cfg combined;
    if kind = Simple then begin
      Cfg.remove_block cfg s_id;
      touch st [ hb_id; s_id ]
    end
    else touch st [ hb_id ];
    (* The hyperblock's live-out in the trial graph, re-solving only the
       part of its successors' cone that reaches an edit; [gk] is the
       installed block's gen/kill, shared with the estimate below. *)
    let trial_live_out gk =
      let lo, solved =
        Liveness.live_out_at ~gk (Option.get st.cache.live) cfg
          ~dirty:st.cache.dirty hb_id
      in
      if solved = 0 then st.live_incremental <- st.live_incremental + 1
      else st.live_solved <- st.live_solved + solved;
      if !audit then
        audit_check ~hb_id ~s_id "live-out"
          (IntSet.equal lo
             (Liveness.live_out (Liveness.compute cfg) hb_id));
      lo
    in
    let gk = lazy (Liveness.gen_kill combined) in
    let live_out = trial_live_out gk in
    (* an optimizer that returns the block unchanged (as a value: its
       passes rebuild the record either way) leaves the graph, and so the
       live-out, as they were *)
    let final, gk, live_out =
      let b =
        if config.Policy.iterate_opt then
          Trips_opt.Optimizer.optimize_block cfg combined ~live_out
        else combined
      in
      if b == combined || b = combined then (combined, gk, live_out)
      else begin
        Cfg.set_block cfg b;
        touch st [ hb_id ];
        let gk = lazy (Liveness.gen_kill b) in
        (b, gk, trial_live_out gk)
      end
    in
    let est = Constraints.estimate ~gk:(Lazy.force gk) final ~live_out in
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
      (* rollback: the exact pre-trial graph, and with it the pre-trial
         analyses, so a failed trial costs no analysis work later *)
      st.stats.size_rejections <- st.stats.size_rejections + 1;
      restore st snap;
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
    fold_liveness st;
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
          match classify st ~hb_id:seed ~s_id with
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
                st ~hb_id:seed ~s_id ~kind
            with
            | Success _ ->
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
                  touch st [ s_id; new_id ];
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
    (* seed boundary: one walk from the entry prunes what a merge
       stranded and picks the seed.  The caches carry across seeds by
       touching exactly the pruned blocks — in the common case nothing is
       pruned and every cache stays valid. *)
    let post = Order.postorder cfg in
    if List.length post < Cfg.num_blocks cfg then begin
      let reached = Hashtbl.create 64 in
      List.iter (fun id -> Hashtbl.replace reached id ()) post;
      let removed =
        List.filter (fun id -> not (Hashtbl.mem reached id)) (Cfg.block_ids cfg)
      in
      List.iter (Cfg.remove_block cfg) removed;
      touch st removed
    end;
    (* the hottest unfinalized block; scanning in postorder, a tie goes
       to the later block, the earlier in reverse postorder *)
    let pick best id =
      if Hashtbl.mem st.finalized id then best
      else
        let n = Profile.block_count profile id in
        match best with
        | Some (_, m) when m > n -> best
        | _ -> Some (id, n)
    in
    match List.fold_left pick None post with
    | Some (seed, _) ->
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
