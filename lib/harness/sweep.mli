(** Declarative experiment sweeps over the shared engine.

    A sweep is a cross-product of workloads (rows) and configurations
    (columns): per row, take the basic-block baseline
    ({!Pipeline.baseline}, memoized per source), then {!Pipeline.measure}
    one cell per column against it.  Every table, Figure 7, the two
    studies of the experiment registry and [chfc report] supply only
    axes, a cell extractor and a renderer; prefix caching ({!Stage}),
    domain-pool parallelism ({!Engine}), graceful failure collection and
    the deterministic merge order live here, once.

    Rows are the unit of parallelism; results always merge in workload
    order (then column order within a row), so [~jobs:N] output is
    byte-identical to [~jobs:1]. *)

open Trips_sim
open Trips_workloads

type baseline = Stage.baseline = {
  base_functional : Func_sim.result;
  base_cycles : Cycle_sim.result option;
      (** present when the spec asked for cycles *)
}
(** The row's {!Pipeline.baseline}, shared through the cache with every
    sweep of the same source. *)

type ('col, 'cell) spec = {
  columns : 'col list;
  configure : 'col -> Chf.Phases.ordering * Chf.Policy.config;
      (** the configuration a column measures *)
  backend : bool;  (** compile the baseline and every cell through the back end *)
  cycles : bool;  (** cycle-simulate the baseline and every cell *)
  attribution : bool;
      (** collect per-block attribution on every cell's cycle run *)
  cell : baseline -> 'col -> Pipeline.measured -> 'cell;
      (** extract a column's result from its measured cell; may run
          more simulations of [compiled], and may raise *)
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
    structured failure ({!Pipeline.failure_of_exn}, naming the
    column's ordering) and the sweep always completes.  [cache] is
    shared across all rows (and safely across domains). *)
