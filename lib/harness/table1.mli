(** Table 1: cycle-count improvement of the four phase orderings over
    basic blocks on the 24 microbenchmarks, with the paper's m/t/u/p
    merge statistics, under the greedy breadth-first EDGE policy.  Every
    configuration is checksum-verified before timing; failures are
    recorded and reported, never raised, so a bad workload cannot abort
    the sweep. *)

open Trips_workloads

type cell = {
  ordering : Chf.Phases.ordering;
  cycles : int;
  dyn_blocks : int;  (** dynamic blocks executed *)
  stats : Chf.Formation.stats;
  improvement : float;  (** % cycles saved vs BB *)
}

type row = {
  workload : string;
  bb_cycles : int;
  bb_blocks : int;
  cells : cell list;  (** successful configurations only *)
}

type outcome = { rows : row list; failures : Pipeline.failure list }

val orderings : Chf.Phases.ordering list
(** = {!Chf.Phases.table_orderings}. *)

val spec : (Chf.Phases.ordering, cell) Sweep.spec
(** The declarative sweep spec (axes + cell extractor) behind {!run}. *)

val run :
  ?cache:Stage.cache ->
  ?jobs:int ->
  ?workloads:Workload.t list ->
  unit ->
  outcome
(** [jobs] parallelizes rows over the engine's domain
    pool (output is identical for any [jobs]); [cache] (fresh per run by
    default) shares the lower+profile prefix across the row's compiles
    and may be shared across experiments. *)

val average : row list -> Chf.Phases.ordering -> float
val render : Format.formatter -> outcome -> unit
