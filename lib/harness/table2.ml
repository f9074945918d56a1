(* Table 2: VLIW, convergent-VLIW, depth-first and breadth-first block
   selection heuristics, all inside convergent hyperblock formation, on
   the 24 microbenchmarks — a sweep spec whose columns carry a policy as
   well as an ordering. *)

open Trips_workloads

type column = { label : string; config : Chf.Policy.config; ordering : Chf.Phases.ordering }

let columns =
  let base = Chf.Policy.edge_default in
  [
    (* Mahlke-style path-based selection, discrete final optimization *)
    {
      label = "VLIW";
      config = { base with Chf.Policy.heuristic = Chf.Policy.Vliw Chf.Policy.default_vliw };
      ordering = Chf.Phases.Iup_o;
    };
    (* the same heuristic with iterative optimization inside the loop *)
    {
      label = "ConvVLIW";
      config = { base with Chf.Policy.heuristic = Chf.Policy.Vliw Chf.Policy.default_vliw };
      ordering = Chf.Phases.Iupo_merged;
    };
    {
      label = "DF";
      config =
        { base with Chf.Policy.heuristic = Chf.Policy.Depth_first { min_merge_prob = 0.12 } };
      ordering = Chf.Phases.Iupo_merged;
    };
    { label = "BF"; config = base; ordering = Chf.Phases.Iupo_merged };
  ]

type cell = {
  label : string;
  cycles : int;
  improvement : float;
  mispredictions : int;
  stats : Chf.Formation.stats;
}

type row = { workload : string; bb_cycles : int; cells : cell list }

type outcome = { rows : row list; failures : Pipeline.failure list }

let spec : (column, cell) Sweep.spec =
  {
    Sweep.columns;
    configure = (fun col -> (col.ordering, col.config));
    backend = true;
    cycles = true;
    attribution = false;
    cell =
      (fun baseline col m ->
        let bb = Option.get baseline.Sweep.base_cycles in
        let r = Option.get m.Pipeline.cycles in
        {
          label = col.label;
          cycles = r.Trips_sim.Cycle_sim.cycles;
          improvement =
            Stats.percent_improvement ~base:bb.Trips_sim.Cycle_sim.cycles
              ~v:r.Trips_sim.Cycle_sim.cycles;
          mispredictions = r.Trips_sim.Cycle_sim.mispredictions;
          stats = m.Pipeline.compiled.Pipeline.stats;
        });
  }

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
            cells = r.Sweep.row_cells;
          })
        o.Sweep.rows;
    failures = o.Sweep.failures;
  }

let average rows label =
  Stats.mean
    (List.filter_map
       (fun r ->
         List.find_opt (fun c -> c.label = label) r.cells
         |> Option.map (fun c -> c.improvement))
       rows)

let render fmt { rows; failures } =
  Fmt.pf fmt
    "Table 2: %% cycle improvement over BB by block-selection heuristic@.";
  Fmt.pf fmt "%-16s %10s" "benchmark" "BB cycles";
  List.iter (fun (col : column) -> Fmt.pf fmt " | %8s" col.label) columns;
  Fmt.pf fmt "@.";
  List.iter
    (fun r ->
      Fmt.pf fmt "%-16s %10d" r.workload r.bb_cycles;
      List.iter
        (fun (col : column) ->
          match List.find_opt (fun c -> c.label = col.label) r.cells with
          | Some c -> Fmt.pf fmt " | %8.1f" c.improvement
          | None -> Fmt.pf fmt " | %8s" "failed")
        columns;
      Fmt.pf fmt "@.")
    rows;
  Fmt.pf fmt "%-16s %10s" "Average" "";
  List.iter
    (fun (col : column) -> Fmt.pf fmt " | %8.1f" (average rows col.label))
    columns;
  Fmt.pf fmt "@.";
  Pipeline.pp_failures fmt failures
