(* The [chfc report] harness: a one-column sweep whose cell is the
   measured configuration's attributed cycle run, assembled into the
   per-function utilization reports ({!Trips_obs.Report}).  Sweep
   checksum-verifies every cell against the BB baseline first.

   Determinism across [--jobs]: each report depends only on its own
   workload (the compile is deterministic, the cycle model has no wall
   clock, and attribution rows come out sorted), and Sweep merges rows in
   workload order — so the assembled report list is byte-identical at any
   parallelism (make report-check). *)

open Trips_ir
open Trips_sim
open Trips_workloads
open Trips_obs

type outcome = {
  reports : Report.func_report list;  (* workload order *)
  failures : Pipeline.failure list;
}

(* One measured cell -> one report: the final CFG provides static sizes
   and formation decisions, the attributed cycle run the dynamic counts. *)
let report_of (m : Pipeline.measured) : Report.func_report =
  let c = m.Pipeline.compiled in
  let dyn = Attribution.rows (Option.get m.Pipeline.attribution) in
  let dyn_of id =
    List.find_opt (fun (row : Attribution.row) -> row.Attribution.r_block = id) dyn
  in
  let blocks =
    List.map
      (fun (b : Block.t) ->
        let id = b.Block.id in
        let execs, fetched, fired, cycles, flushes, classes =
          match dyn_of id with
          | None -> (0, 0, 0, 0, 0, [])
          | Some row ->
            ( row.Attribution.r_execs,
              row.Attribution.r_fetched,
              row.Attribution.r_fired,
              row.Attribution.r_cycles,
              row.Attribution.r_flushes,
              List.map
                (fun (cls, cc_fetched, cc_fired) ->
                  { Report.cls; cc_fetched; cc_fired })
                row.Attribution.r_classes )
        in
        {
          Report.block = id;
          static_size = Block.size b;
          execs;
          fetched;
          fired;
          cycles;
          flushes;
          classes;
          decisions =
            List.map Lineage.describe_decision (Cfg.decisions c.Pipeline.cfg id);
        })
      (Cfg.blocks c.Pipeline.cfg)
  in
  {
    Report.fn = c.Pipeline.workload.Workload.name;
    capacity = Machine.max_instrs;
    total_cycles = (Option.get m.Pipeline.cycles).Cycle_sim.cycles;
    blocks;
  }

(** Build reports for [workloads] (default: the 24 microbenchmarks)
    under [ordering] (default: merged convergent formation, the paper's
    headline configuration).  Failures are collected, not raised. *)
let run ?(config = Chf.Policy.edge_default) ?(cache = Stage.create ()) ?jobs
    ?(ordering = Chf.Phases.Iupo_merged) ?(workloads = Micro.all) () : outcome =
  let spec =
    {
      Sweep.columns = [ ordering ];
      configure = (fun ordering -> (ordering, config));
      (* Tables 1-2's baseline key, so a shared cache reuses baselines *)
      backend = true;
      cycles = true;
      attribution = true;
      cell = (fun _ _ m -> report_of m);
    }
  in
  let o = Sweep.run ~cache ?jobs spec workloads in
  {
    reports = List.concat_map (fun r -> r.Sweep.row_cells) o.Sweep.rows;
    failures = o.Sweep.failures;
  }

let render fmt (o : outcome) =
  Report.render fmt o.reports;
  Pipeline.pp_failures fmt o.failures
