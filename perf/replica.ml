(* The traced replica: every cell of a sweep (or every compile a serve
   request runs) re-executed from the benchmark through the layers'
   public functions, each call inside a span named for its layer:

     store.content_key  Stage.content_key
     lang               Stage.lower
     profile            Stage.profile
     harness.instantiate Stage.instantiate
     opt / formation / formation.unroll_peel   Chf.Phases.plan steps
     regalloc           Trips_regalloc.Backend.run
     sim.func / sim.cycle   Func_sim.run / Cycle_sim.run

   Each replica cell must reproduce its measured cell exactly (cycles,
   blocks, checksum, m/t/u/p); [mismatches] counts the ones that do not. *)

open Trips_workloads
open Trips_harness
module Func_sim = Trips_sim.Func_sim
module Cycle_sim = Trips_sim.Cycle_sim

let layers =
  [
    "store.content_key"; "lang"; "profile"; "harness.instantiate"; "opt";
    "formation"; "formation.unroll_peel"; "regalloc"; "sim.func"; "sim.cycle";
    "harness.render";
  ]

(* Work counters that turn layer busy time into rates. *)
type tally = {
  mutable cells : int;
  mutable mismatches : int;
  mutable degraded : int;
  mutable rounds : int;
  mutable content_keys : int;
  mutable instrs : int;  (** functional-sim instructions executed *)
  mutable cycles : int;  (** cycle-sim cycles simulated *)
}

let tally =
  { cells = 0; mismatches = 0; degraded = 0; rounds = 0; content_keys = 0;
    instrs = 0; cycles = 0 }

let reset () =
  Span.reset ();
  tally.cells <- 0;
  tally.mismatches <- 0;
  tally.degraded <- 0;
  tally.rounds <- 0;
  tally.content_keys <- 0;
  tally.instrs <- 0;
  tally.cycles <- 0

let span = Span.with_span

let check ok what =
  if not ok then begin
    tally.mismatches <- tally.mismatches + 1;
    Printf.eprintf "replica mismatch: %s\n%!" what
  end

let content_key w =
  tally.content_keys <- tally.content_keys + 1;
  span ~layer:"store.content_key" "content_key" (fun () -> Stage.content_key w)

let prefix (w : Workload.t) : Stage.prefix =
  let key = content_key w in
  let master = span ~layer:"lang" "lower" (fun () -> Stage.lower w) in
  let profiled = span ~layer:"profile" "profile" (fun () -> Stage.profile w master) in
  { Stage.pre_workload = w; pre_key = key; pre_master = master;
    pre_profiled = profiled }

type compiled = {
  cfg : Trips_ir.Cfg.t;
  registers : (int * int) list;
  stats : Chf.Formation.stats;
}

let step_layer = function
  | "optimize" | "final-optimize" -> "opt"
  | "unroll+peel" -> "formation.unroll_peel"
  | _ -> "formation"

(* A fresh copy of the prefix's lowering, formed by the plan's steps. *)
let form ~config ordering (pre : Stage.prefix) =
  let low = span ~layer:"harness.instantiate" "instantiate" (fun () -> Stage.instantiate pre) in
  let stats, steps =
    Chf.Phases.plan ~config ordering low.Stage.low_cfg pre.Stage.pre_profiled.Stage.prof_profile
  in
  List.iter (fun s -> span ~layer:(step_layer s.Chf.Phases.step_name) s.step_name s.step_run) steps;
  (low, stats)

(* Pipeline.compile's repair before its back-end retry: split every
   block over the TRIPS budget until none is or no split progresses. *)
let split_over_budget ~config cfg =
  let rec go round =
    let offenders =
      List.filter_map
        (function Trips_verify.Cfg_verify.Over_budget { block; _ } -> Some block | _ -> None)
        (Trips_verify.Cfg_verify.check ~allow_unreachable:true ~limits:config.Chf.Policy.limits
           cfg)
    in
    let progressed =
      List.fold_left
        (fun acc id -> Option.is_some (Trips_transform.Split.split_block cfg id) || acc)
        false offenders
    in
    if progressed && round < 16 then go (round + 1)
  in
  go 1

let backend (low : Stage.lowered) =
  let report =
    span ~layer:"regalloc" "backend" (fun () -> Trips_regalloc.Backend.run low.Stage.low_cfg)
  in
  tally.rounds <- tally.rounds + report.Trips_regalloc.Backend.rounds;
  List.map
    (fun (r, v) -> (Trips_ir.IntMap.find_or ~default:r r report.Trips_regalloc.Backend.mapping, v))
    low.Stage.low_registers

(* One Pipeline.compile, layer by layer.  Like Pipeline.compile, every
   compile looks its prefix up by content key first, and when the back
   end rejects the formed CFG it forms again, splits over-budget blocks
   and retries, then forms once more without the back end; the retries
   run under a "degraded" span, each call still in its layer's span.  A
   watchdog timeout is not retried. *)
let compile ~config ~backend:with_backend ordering (pre : Stage.prefix) : compiled =
  ignore (content_key pre.Stage.pre_workload);
  let low, stats = form ~config ordering pre in
  let result (low : Stage.lowered) stats registers = { cfg = low.Stage.low_cfg; registers; stats } in
  if not with_backend then result low stats low.Stage.low_registers
  else
    match backend low with
    | registers -> result low stats registers
    | exception (Trips_obs.Watchdog.Timed_out _ as e) -> raise e
    | exception _ ->
      tally.degraded <- tally.degraded + 1;
      span "degraded" (fun () ->
          let low, stats = form ~config ordering pre in
          span ~layer:"formation" "split-over-budget" (fun () ->
              split_over_budget ~config low.Stage.low_cfg);
          match backend low with
          | registers -> result low stats registers
          | exception (Trips_obs.Watchdog.Timed_out _ as e) -> raise e
          | exception _ ->
            let low, stats = form ~config ordering pre in
            result low stats low.Stage.low_registers)

let func w c =
  let r =
    span ~layer:"sim.func" "func_sim" (fun () ->
        Func_sim.run ~registers:c.registers ~memory:(Workload.memory w) c.cfg)
  in
  tally.instrs <- tally.instrs + r.Func_sim.instrs_executed;
  r

let cycle w c =
  let r =
    span ~layer:"sim.cycle" "cycle_sim" (fun () ->
        Cycle_sim.run ~registers:c.registers ~memory:(Workload.memory w) c.cfg)
  in
  tally.cycles <- tally.cycles + r.Cycle_sim.cycles;
  r

let mtup s = Fmt.str "%a/%d" Chf.Formation.pp_stats s s.Chf.Formation.attempts

let cell name f =
  tally.cells <- tally.cells + 1;
  span name f

(* ---- sweep rows ------------------------------------------------------------ *)

let edge = Chf.Policy.edge_default

(* A Table 1 row against its measured row. *)
let table1_row pre (row : Table1.row) =
  let w = pre.Stage.pre_workload in
  let name = w.Workload.name in
  cell ("table1 " ^ name) (fun () ->
      let bb = compile ~config:edge ~backend:true Chf.Phases.Basic_blocks pre in
      let bbf = func w bb and bbc = cycle w bb in
      check (bbc.Cycle_sim.cycles = row.Table1.bb_cycles) (name ^ " BB cycles");
      check (bbc.Cycle_sim.blocks = row.Table1.bb_blocks) (name ^ " BB blocks");
      List.iter
        (fun (m : Table1.cell) ->
          cell
            (Chf.Phases.name m.Table1.ordering)
            (fun () ->
              let c = compile ~config:edge ~backend:true m.Table1.ordering pre in
              let f = func w c and r = cycle w c in
              let what = name ^ " " ^ Chf.Phases.name m.Table1.ordering in
              check (f.Func_sim.checksum = bbf.Func_sim.checksum) (what ^ " checksum");
              check (r.Cycle_sim.cycles = m.Table1.cycles) (what ^ " cycles");
              check (r.Cycle_sim.blocks = m.Table1.dyn_blocks) (what ^ " blocks");
              check (mtup c.stats = mtup m.Table1.stats) (what ^ " m/t/u/p")))
        row.Table1.cells)

let table2_row pre (row : Table2.row) =
  let w = pre.Stage.pre_workload in
  let name = w.Workload.name in
  cell ("table2 " ^ name) (fun () ->
      let bb = compile ~config:edge ~backend:true Chf.Phases.Basic_blocks pre in
      let bbf = func w bb and bbc = cycle w bb in
      check (bbc.Cycle_sim.cycles = row.Table2.bb_cycles) (name ^ " BB cycles");
      List.iter
        (fun (m : Table2.cell) ->
          let col =
            List.find (fun (c : Table2.column) -> c.Table2.label = m.Table2.label)
              Table2.columns
          in
          cell m.Table2.label (fun () ->
              let c = compile ~config:col.Table2.config ~backend:true col.Table2.ordering pre in
              let f = func w c and r = cycle w c in
              let what = name ^ " " ^ m.Table2.label in
              check (f.Func_sim.checksum = bbf.Func_sim.checksum) (what ^ " checksum");
              check (r.Cycle_sim.cycles = m.Table2.cycles) (what ^ " cycles");
              check
                (r.Cycle_sim.mispredictions = m.Table2.mispredictions)
                (what ^ " mispredictions");
              check (mtup c.stats = mtup m.Table2.stats) (what ^ " m/t/u/p")))
        row.Table2.cells)

let table3_row pre (row : Table3.row) =
  let w = pre.Stage.pre_workload in
  let name = w.Workload.name in
  cell ("table3 " ^ name) (fun () ->
      let bb = compile ~config:edge ~backend:false Chf.Phases.Basic_blocks pre in
      let bbf = func w bb in
      check (bbf.Func_sim.blocks_executed = row.Table3.bb_blocks) (name ^ " BB blocks");
      List.iter
        (fun (m : Table3.cell) ->
          cell
            (Chf.Phases.name m.Table3.ordering)
            (fun () ->
              let c = compile ~config:edge ~backend:false m.Table3.ordering pre in
              let f = func w c in
              let what = name ^ " " ^ Chf.Phases.name m.Table3.ordering in
              check (f.Func_sim.checksum = bbf.Func_sim.checksum) (what ^ " checksum");
              check (f.Func_sim.blocks_executed = m.Table3.dyn_blocks) (what ^ " blocks")))
        row.Table3.cells)

(* ---- one served compile ------------------------------------------------------ *)

(* The numbers a `chfc compile` report prints, from the replica. *)
type report_numbers = {
  rn_mtup : string;  (** "m/t/u/p" as printed *)
  rn_blocks : int;
  rn_cycles : int;
  rn_bb_cycles : int;
}

(* Worker.compile_report's layer calls: BB baseline compile and both
   simulations, then the requested configuration, verified and timed.
   Returns the numbers and the seconds spent on the BB baseline. *)
let compile_report ~ordering ~config pre =
  let w = pre.Stage.pre_workload in
  tally.cells <- tally.cells + 1;
  span ("compile " ^ w.Workload.name) (fun () ->
      ignore (content_key w);
      let t0 = Proc.now () in
      let bbf, bbc =
        span "bb-baseline" (fun () ->
            let bb = compile ~config ~backend:true Chf.Phases.Basic_blocks pre in
            (func w bb, cycle w bb))
      in
      let bb_s = Proc.now () -. t0 in
      let c = compile ~config ~backend:true ordering pre in
      let f = func w c in
      check (f.Func_sim.checksum = bbf.Func_sim.checksum) (w.Workload.name ^ " checksum");
      let r = cycle w c in
      ( {
          rn_mtup = Fmt.str "%a" Chf.Formation.pp_stats c.stats;
          rn_blocks = f.Func_sim.blocks_executed;
          rn_cycles = r.Cycle_sim.cycles;
          rn_bb_cycles = bbc.Cycle_sim.cycles;
        },
        bb_s ))

(* The same numbers parsed back out of a served report. *)
let numbers_of_report text =
  let find prefix =
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.starts_with ~prefix line ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  try
    let mtup = Option.get (find "merges m/t/u/p") in
    let blocks =
      Scanf.sscanf (Option.get (find "functional")) "ret=%_s@, %d blocks" Fun.id
    in
    let cycles, bb_cycles =
      Scanf.sscanf (Option.get (find "cycles")) "%d (basic blocks: %d" (fun a b -> (a, b))
    in
    Some { rn_mtup = mtup; rn_blocks = blocks; rn_cycles = cycles; rn_bb_cycles = bb_cycles }
  with _ -> None

(* ---- per-layer summary -------------------------------------------------------- *)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Layer shares of the replica wall, allocation in Mwords, and the
   derived rates, as per-layer metric values. *)
let layer_metrics ~replica_s =
  let table = Span.by_layer () in
  let busy l =
    Option.value ~default:{ Span.b_s = 0.0; b_words = 0.0 } (List.assoc_opt l table)
  in
  let share l = (busy l).Span.b_s /. replica_s in
  let mwords l = (busy l).Span.b_words /. 1e6 in
  let rate count layer = ratio (float_of_int count) (busy layer).Span.b_s /. 1e6 in
  let covered = List.fold_left (fun acc l -> acc +. (busy l).Span.b_s) 0.0 layers in
  [
    ("lang.lower_share", share "lang");
    ("opt.share", share "opt");
    ("opt.mwords", mwords "opt");
    ("profile.share", share "profile");
    ("profile.mwords", mwords "profile");
    ("formation.share", share "formation");
    ("formation.mwords", mwords "formation");
    ("formation.unroll_peel_share", share "formation.unroll_peel");
    ("regalloc.share", share "regalloc");
    ("regalloc.mwords", mwords "regalloc");
    ("regalloc.rounds", float_of_int tally.rounds);
    ("regalloc.degraded", float_of_int tally.degraded);
    ("sim.func_share", share "sim.func");
    ("sim.func_mwords", mwords "sim.func");
    ("sim.func_minstr_per_s", rate tally.instrs "sim.func");
    ("sim.cycle_share", share "sim.cycle");
    ("sim.cycle_mwords", mwords "sim.cycle");
    ("sim.cycle_mcycles_per_s", rate tally.cycles "sim.cycle");
    ("harness.instantiate_share", share "harness.instantiate");
    ("harness.render_share", share "harness.render");
    ( "store.content_key_us",
      ratio (busy "store.content_key").Span.b_s (float_of_int tally.content_keys) *. 1e6 );
    ("trace.replica_s", replica_s);
    ("trace.coverage", covered /. replica_s);
    ("trace.replica_cells", float_of_int tally.cells);
  ]

(* Per-layer counts read from the program's own counters: the Metrics
   registry after a sweep, or the summed counter deltas of a daemon's
   request span trees. *)
let counter_metrics (counter : string -> float) =
  [
    ("formation.attempts", counter "formation.attempts");
    ("formation.reject_size", counter "formation.reject.size");
    ("formation.reject_structural", counter "formation.reject.structural");
    ("formation.prefilter_hits", counter "formation.prefilter.hits");
    ("formation.liveness_incremental", counter "formation.liveness.incremental");
    ("formation.loops_reuse", counter "formation.loops.reuse");
    ("formation.merge_ratio", ratio (counter "formation.merges") (counter "formation.attempts"));
    ( "sim.cycle_memo_hit_ratio",
      ratio (counter "sim.cycle.memo.hits")
        (counter "sim.cycle.memo.hits" +. counter "sim.cycle.memo.misses") );
  ]

let write_trace file events =
  let oc = open_out_bin file in
  output_string oc (Json.to_string (Json.Arr events));
  close_out oc

(* run_profiled over plain Func_sim.run on each prefix's lowered CFG,
   minus 1 (outside the replica's timed span). *)
let record_overhead (prefixes : Stage.prefix list) =
  let profiled = ref 0.0 and plain = ref 0.0 in
  List.iter
    (fun (p : Stage.prefix) ->
      let w = p.Stage.pre_workload in
      let l = p.Stage.pre_master in
      let loops = Trips_analysis.Loops.compute l.Stage.low_cfg in
      let dp, _ =
        Proc.time (fun () ->
            Func_sim.run_profiled ~registers:l.Stage.low_registers ~loops
              ~memory:(Workload.memory w) l.Stage.low_cfg)
      in
      let dr, _ =
        Proc.time (fun () ->
            Func_sim.run ~registers:l.Stage.low_registers ~memory:(Workload.memory w)
              l.Stage.low_cfg)
      in
      profiled := !profiled +. dp;
      plain := !plain +. dr)
    prefixes;
  if !plain > 0.0 then (!profiled /. !plain) -. 1.0 else 0.0

(* ---- traced-run outcome ----------------------------------------------------- *)

type outcome = { layer : (string * float) list; attempted : int; failed : int }

(* Failed checks are reported on stderr and each counts one failure, on
   top of every mismatching replica cell. *)
let finish ~layer ~attempted checks =
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  List.iter (fun (what, _) -> Printf.eprintf "check failed: %s\n%!" what) failed;
  { layer; attempted; failed = List.length failed + tally.mismatches }
