(* Table 3: percent improvement in executed-block counts over basic
   blocks on the 19 SPEC-like workloads, under the fast functional
   simulator (the paper's argument: block counts correlate with cycles,
   and full programs are too slow for cycle-level simulation).

   A sweep spec with no back end and no cycle simulation: the cell
   measurement is the checksum-verification run itself. *)

open Trips_workloads

type cell = {
  ordering : Chf.Phases.ordering;
  dyn_blocks : int;
  improvement : float;
}

type row = { workload : string; bb_blocks : int; cells : cell list }

type outcome = { rows : row list; failures : Pipeline.failure list }

let orderings = Chf.Phases.table_orderings

let spec : (Chf.Phases.ordering, cell) Sweep.spec =
  {
    Sweep.columns = orderings;
    configure = (fun ordering -> (ordering, Chf.Policy.edge_default));
    (* no back end: Table 3 uses the functional simulator only *)
    backend = false;
    cycles = false;
    attribution = false;
    cell =
      (fun baseline ordering m ->
        let blocks (r : Trips_sim.Func_sim.result) = r.Trips_sim.Func_sim.blocks_executed in
        {
          ordering;
          dyn_blocks = blocks m.Pipeline.functional;
          improvement =
            Stats.percent_improvement
              ~base:(blocks baseline.Sweep.base_functional)
              ~v:(blocks m.Pipeline.functional);
        });
  }

let run ?(cache = Stage.create ()) ?jobs ?(workloads = Spec_like.all) () :
    outcome =
  let o = Sweep.run ~cache ?jobs spec workloads in
  {
    rows =
      List.map
        (fun (r : cell Sweep.row) ->
          {
            workload = r.Sweep.row_workload;
            bb_blocks =
              r.Sweep.row_baseline.Sweep.base_functional
                .Trips_sim.Func_sim.blocks_executed;
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
  Fmt.pf fmt "Table 3: %% improvement in executed blocks over BB (SPEC-like)@.";
  Fmt.pf fmt "%-10s %12s" "benchmark" "BB blocks";
  List.iter (fun o -> Fmt.pf fmt " | %7s" (Chf.Phases.name o)) orderings;
  Fmt.pf fmt "@.";
  List.iter
    (fun r ->
      Fmt.pf fmt "%-10s %12d" r.workload r.bb_blocks;
      List.iter
        (fun o ->
          match List.find_opt (fun c -> c.ordering = o) r.cells with
          | Some c -> Fmt.pf fmt " | %7.1f" c.improvement
          | None -> Fmt.pf fmt " | %7s" "failed")
        orderings;
      Fmt.pf fmt "@.")
    rows;
  Fmt.pf fmt "%-10s %12s" "Average" "";
  List.iter (fun o -> Fmt.pf fmt " | %7.1f" (average rows o)) orderings;
  Fmt.pf fmt "@.";
  Pipeline.pp_failures fmt failures
