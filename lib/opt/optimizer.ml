(* Optimization driver.

   [optimize_block] is the [Optimize] step from Figure 5 of the paper: it
   runs local value numbering, dead-code elimination and predicate
   optimization to a local fixpoint on one block.  Convergent formation
   calls it after every trial merge; the discrete phase orderings call
   [optimize_cfg] — dominator-based global value numbering followed by
   the per-block passes — as their whole-function "O" phase. *)

open Trips_ir
open Trips_analysis

(* The fixpoint measure counts guards too, so a predicate-optimization
   round that only drops guards still triggers another value-numbering
   round (dropped guards unlock chain folding). *)
let block_measure (b : Block.t) =
  let guards =
    List.length (List.filter (fun i -> i.Instr.guard <> None) b.Block.instrs)
  in
  (Block.size b, List.length b.Block.exits, guards)

(* Per-pass instruction-delta reporting: one trace event and one metric
   bump per pass application that changed the block.  The metric name is
   [opt.<pass>.removed_instrs]; a negative delta (a pass that grew the
   block) subtracts, keeping the counter an honest net. *)
let report_pass ~block name (before : Block.t) (after : Block.t) =
  let nb = Block.size before and na = Block.size after in
  if nb <> na then begin
    Trips_obs.Metrics.incr ~by:(nb - na)
      (Printf.sprintf "opt.%s.removed_instrs" name);
    if Trips_obs.Trace.is_enabled () then
      Trips_obs.Trace.record "opt-pass"
        [
          ("block", Trips_obs.Trace.Int block);
          ("pass", Trips_obs.Trace.Str name);
          ("before", Trips_obs.Trace.Int nb);
          ("after", Trips_obs.Trace.Int na);
        ]
  end;
  after

(** Optimize one block to a fixpoint (bounded), given the registers that
    are live when it exits. *)
let optimize_block ?(max_rounds = 6) ?(report = true) cfg (b : Block.t)
    ~live_out : Block.t =
  let block = b.Block.id in
  let report_pass ~block name before after =
    if report then report_pass ~block name before after else after
  in
  let rec go b rounds =
    if rounds = 0 then b
    else begin
      let before = block_measure b in
      let b = report_pass ~block "local_vn" b (Local_vn.run cfg b) in
      let b = report_pass ~block "dce" b (Dce.run b ~live_out) in
      let b = report_pass ~block "predicate_opt" b (Predicate_opt.run b ~live_out) in
      if block_measure b = before then b else go b (rounds - 1)
    end
  in
  go b max_rounds

(** Live-out set of block [id] under liveness information [live]. *)
let live_out_of live id = Liveness.live_out live id

(** Optimize every reachable block of the CFG, recomputing liveness
    between rounds, until nothing changes (bounded). *)
let optimize_cfg ?(max_rounds = 4) cfg : unit =
  let rec go rounds =
    if rounds > 0 then begin
      let global_hits = Gvn.run cfg in
      if global_hits > 0 then Trips_obs.Metrics.incr ~by:global_hits "opt.gvn.hits";
      let live = Liveness.compute cfg in
      let changed = ref false in
      List.iter
        (fun id ->
          let b = Cfg.block cfg id in
          let b' = optimize_block cfg b ~live_out:(live_out_of live id) in
          if b' <> b then begin
            changed := true;
            Cfg.set_block cfg b'
          end)
        (Cfg.block_ids cfg);
      if !changed || global_hits > 0 then go (rounds - 1)
    end
  in
  go max_rounds
