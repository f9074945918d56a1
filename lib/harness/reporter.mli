(** The [chfc report] harness: a one-column {!Sweep} whose cells are
    checksum-verified, attributed cycle runs ({!Pipeline.measure}),
    assembled into {!Trips_obs.Report} utilization reports.

    Byte-identical output at any [--jobs] setting: each report depends
    only on its own workload and {!Sweep.run} merges in input order. *)

open Trips_workloads
open Trips_obs

type outcome = {
  reports : Report.func_report list;  (** workload order *)
  failures : Pipeline.failure list;
}

val run :
  ?config:Chf.Policy.config ->
  ?cache:Stage.cache ->
  ?jobs:int ->
  ?ordering:Chf.Phases.ordering ->
  ?workloads:Workload.t list ->
  unit ->
  outcome
(** Reports for [workloads] (default: the 24 microbenchmarks) under
    [ordering] (default: merged convergent formation).  Failures are
    collected, not raised. *)

val render : Format.formatter -> outcome -> unit
