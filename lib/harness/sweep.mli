(** Declarative experiment sweeps over the shared engine.

    A sweep is a cross-product of workloads (rows) and configurations
    (columns): per row, take the basic-block baseline
    ({!Pipeline.baseline}, memoized per source), then compile,
    checksum-verify and measure one cell per column.  The per-experiment
    modules (Tables 1–3, Figure 7) supply only axes, a cell function and
    a renderer; prefix caching ({!Stage}), domain-pool parallelism
    ({!Engine}), graceful failure collection and the deterministic merge
    order live here, once.

    Rows are the unit of parallelism; results always merge in workload
    order (then column order within a row), so [~jobs:N] output is
    byte-identical to [~jobs:1]. *)

open Trips_sim
open Trips_workloads

type baseline = Stage.baseline = {
  base_functional : Func_sim.result;
  base_cycles : Cycle_sim.result option;
      (** present when the spec asked for a cycle-simulated baseline *)
}
(** The row's {!Pipeline.baseline}, shared through the cache with every
    sweep of the same source. *)

type ('col, 'cell) spec = {
  columns : 'col list;
  baseline_backend : bool;
      (** compile the BB baseline through the back end *)
  baseline_cycles : bool;  (** cycle-simulate the BB baseline *)
  cell :
    cache:Stage.cache option ->
    baseline ->
    Workload.t ->
    'col ->
    ('cell, Pipeline.failure) result;
      (** compile and measure one configuration; pass [?cache] through
          to {!Pipeline.compile_checked} *)
}

type 'cell row = {
  row_workload : string;
  row_baseline : baseline;
  row_cells : 'cell list;  (** successful columns only, in column order *)
}

type 'cell outcome = {
  rows : 'cell row list;
  failures : Pipeline.failure list;  (** in sweep order *)
}

val run :
  ?cache:Stage.cache ->
  ?jobs:int ->
  ('col, 'cell) spec ->
  Workload.t list ->
  'cell outcome
(** Sweep every workload over every column.  A failed baseline drops the
    row; a failed cell drops the cell; either is recorded as a
    structured failure and the sweep always completes.  [cache] is
    shared across all rows (and safely across domains). *)
