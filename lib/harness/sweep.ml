(* Declarative experiment sweeps over the shared engine.

   Every table of the evaluation, the report and the two studies are a
   cross-product of workloads (rows) and configurations (columns): take
   the basic-block baseline for the row (Pipeline.baseline, memoized per
   source), then Pipeline.measure one cell per column against it.  This
   module owns that skeleton once — the per-experiment modules supply
   axes, a cell extractor and a renderer — so the sweep machinery
   (prefix caching, domain-pool parallelism, graceful failure
   collection, deterministic merge order) is written in exactly one
   place.

   Rows are the unit of parallelism: each row's baseline and cells run
   sequentially on one domain, rows are distributed over the Engine
   pool, and results merge in workload order.  A row or cell that fails
   becomes a structured [Pipeline.failure] in sweep order and never
   disturbs its siblings. *)

open Trips_sim
open Trips_workloads

type baseline = Stage.baseline = {
  base_functional : Func_sim.result;
  base_cycles : Cycle_sim.result option;
}

type ('col, 'cell) spec = {
  columns : 'col list;
  configure : 'col -> Chf.Phases.ordering * Chf.Policy.config;
  backend : bool;
  cycles : bool;
  attribution : bool;
  cell : baseline -> 'col -> Pipeline.measured -> 'cell;
}

type 'cell row = {
  row_workload : string;
  row_baseline : baseline;
  row_cells : 'cell list;  (* successful columns only, in column order *)
}

type 'cell outcome = {
  rows : 'cell row list;
  failures : Pipeline.failure list;
}

(* One row: BB baseline (shared through the cache with every other
   sweep of the same source), then every column measured against it. *)
let run_row ~cache spec (w : Workload.t) :
    ('cell row, Pipeline.failure) result * Pipeline.failure list =
  let fail ordering e = Pipeline.failure_of_exn ~workload:w ~ordering:(Some ordering) e in
  match Pipeline.baseline ?cache ~backend:spec.backend ~cycles:spec.cycles w with
  | exception e -> (Error (fail Chf.Phases.Basic_blocks e), [])
  | baseline ->
    let cells, failures =
      List.fold_left
        (fun (cells, failures) col ->
          let ordering, config = spec.configure col in
          let attribution =
            if spec.attribution then Some (Attribution.create ()) else None
          in
          match
            spec.cell baseline col
              (Pipeline.measure ?cache ~config ~backend:spec.backend
                 ?attribution ~cycles:spec.cycles ~baseline ordering w)
          with
          | c -> (c :: cells, failures)
          | exception e -> (cells, fail ordering e :: failures))
        ([], []) spec.columns
    in
    ( Ok
        {
          row_workload = w.Workload.name;
          row_baseline = baseline;
          row_cells = List.rev cells;
        },
      List.rev failures )

let run ?cache ?jobs (spec : ('col, 'cell) spec)
    (workloads : Workload.t list) : 'cell outcome =
  let results = Engine.map ?jobs (run_row ~cache spec) workloads in
  let rows, failures =
    List.fold_left2
      (fun (rows, failures) w result ->
        match result with
        | Ok (Ok r, fs) -> (r :: rows, List.rev_append fs failures)
        | Ok (Error f, fs) -> (rows, List.rev_append fs (f :: failures))
        | Error e ->
          (* the engine itself failed on this row; classify, keep sweeping *)
          (rows, Pipeline.failure_of_exn ~workload:w ~ordering:None e :: failures))
      ([], []) workloads results
  in
  { rows = List.rev rows; failures = List.rev failures }
