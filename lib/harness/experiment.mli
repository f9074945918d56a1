(** The experiment registry: every table EXPERIMENTS.md quotes, declared
    once.

    The paper's evaluation (Tables 1–3, Figure 7) plus two studies of our
    own: an ablation of the (IUPO) design knobs and a placement study.
    The [chfc] CLI builds one command per entry and the daemon serves a
    sweep cell for any entry, so the two cannot disagree on names,
    default workloads or rendering. *)

open Trips_workloads

type t = {
  name : string;  (** the command / [--table] name, e.g. ["table1"] *)
  doc : string;  (** one line, shown by [chfc --help] *)
  defaults : Workload.t list;  (** the workloads when no [-w] is given *)
  render :
    cache:Stage.cache -> jobs:int -> Workload.t list ->
    string * Pipeline.failure list;
      (** run the experiment over the workloads: its rendered table
          (ending in the failure footer, if any) and the failures;
          [jobs] parallelizes rows and never changes the text *)
}

val all : t list
(** [table1], [table2], [table3], [figure7], [ablation], [placement]. *)

val round_robin : Trips_sim.Cycle_sim.timing
(** The [placement] study's unoptimized-placement timing: the default
    timing on a 4x4 ALU grid, instructions placed round-robin. *)

val find : string -> (t, [ `Msg of string ]) result
(** Look an experiment up by name; an unknown name is an error naming
    the registered ones. *)
