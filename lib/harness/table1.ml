(* Table 1: cycle-count improvement of the four phase orderings over the
   basic-block baseline on the 24 microbenchmarks, with m/t/u/p merge
   statistics, under the greedy breadth-first EDGE policy.

   Expressed as a declarative sweep spec (axes + cell function +
   renderer) over the shared engine: Sweep owns baseline handling,
   prefix caching, parallelism and failure collection.  A workload or
   configuration that fails to compile (or miscompiles) is recorded as a
   structured failure and the sweep continues; the rendered table marks
   the missing cells and lists the failures. *)

open Trips_workloads

type cell = {
  ordering : Chf.Phases.ordering;
  cycles : int;
  dyn_blocks : int;  (* dynamic blocks executed *)
  stats : Chf.Formation.stats;
  improvement : float;  (* % cycles saved vs BB *)
}

type row = {
  workload : string;
  bb_cycles : int;
  bb_blocks : int;
  cells : cell list;  (* successful configurations only *)
}

type outcome = { rows : row list; failures : Pipeline.failure list }

let orderings = Chf.Phases.table_orderings

let spec : (Chf.Phases.ordering, cell) Sweep.spec =
  {
    Sweep.columns = orderings;
    configure = (fun ordering -> (ordering, Chf.Policy.edge_default));
    backend = true;
    cycles = true;
    attribution = false;
    cell =
      (fun baseline ordering m ->
        let bb = Option.get baseline.Sweep.base_cycles in
        let r = Option.get m.Pipeline.cycles in
        {
          ordering;
          cycles = r.Trips_sim.Cycle_sim.cycles;
          dyn_blocks = r.Trips_sim.Cycle_sim.blocks;
          stats = m.Pipeline.compiled.Pipeline.stats;
          improvement =
            Stats.percent_improvement ~base:bb.Trips_sim.Cycle_sim.cycles
              ~v:r.Trips_sim.Cycle_sim.cycles;
        });
  }

(** Run the Table 1 experiment.  [workloads] defaults to all 24
    microbenchmarks; failures are reported, not raised, so the sweep
    always completes.  [jobs] parallelizes rows over the engine's domain
    pool; [cache] (fresh per run by default) shares the lower+profile
    prefix across the five compiles of every workload. *)
let run ?(cache = Stage.create ()) ?jobs ?(workloads = Micro.all) () : outcome =
  let o = Sweep.run ~cache ?jobs spec workloads in
  {
    rows =
      List.map
        (fun (r : cell Sweep.row) ->
          let bb = Option.get r.Sweep.row_baseline.Sweep.base_cycles in
          {
            workload = r.Sweep.row_workload;
            bb_cycles = bb.Trips_sim.Cycle_sim.cycles;
            bb_blocks = bb.Trips_sim.Cycle_sim.blocks;
            cells = r.Sweep.row_cells;
          })
        o.Sweep.rows;
    failures = o.Sweep.failures;
  }

let average rows ordering =
  Stats.mean
    (List.filter_map
       (fun r ->
         List.find_opt (fun c -> c.ordering = ordering) r.cells
         |> Option.map (fun c -> c.improvement))
       rows)

let render fmt { rows; failures } =
  Fmt.pf fmt "Table 1: %% cycle improvement over BB and m/t/u/p statistics@.";
  Fmt.pf fmt "%-16s %10s" "benchmark" "BB cycles";
  List.iter
    (fun o -> Fmt.pf fmt " | %-12s %6s" (Chf.Phases.name o) "%")
    orderings;
  Fmt.pf fmt "@.";
  List.iter
    (fun r ->
      Fmt.pf fmt "%-16s %10d" r.workload r.bb_cycles;
      List.iter
        (fun o ->
          match List.find_opt (fun c -> c.ordering = o) r.cells with
          | Some c ->
            Fmt.pf fmt " | %-12s %6.1f"
              (Fmt.str "%a" Chf.Formation.pp_stats c.stats)
              c.improvement
          | None -> Fmt.pf fmt " | %-12s %6s" "failed" "-")
        orderings;
      Fmt.pf fmt "@.")
    rows;
  Fmt.pf fmt "%-16s %10s" "Average" "";
  List.iter
    (fun o -> Fmt.pf fmt " | %-12s %6.1f" "" (average rows o))
    orderings;
  Fmt.pf fmt "@.";
  Pipeline.pp_failures fmt failures
