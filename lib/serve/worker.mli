(** The worker: execute serve jobs against shared artifact stores.

    One {!t} is shared by every worker domain of the daemon: it carries
    one {!Trips_harness.Stage.cache} (the lower+profile prefix and the
    basic-block baseline of each source) and a store of rendered
    outputs keyed by (workload content digest, job kind, configuration).
    Repeated requests for the same source under the same configuration
    are served from the store; every stored artifact is immutable and
    produced deterministically, so a stored reply is byte-identical to a
    recomputed one.

    The compile text is rendered by {!compile_report}, which the one-shot
    [chfc compile] prints verbatim — served output equals CLI output by
    construction, not by parallel maintenance of two printers. *)

open Trips_workloads
open Trips_harness

(** {1 Name resolution (shared with the [chfc] CLI)} *)

val find_workload : string -> (Workload.t, [ `Msg of string ]) result

val select_workloads :
  default:Workload.t list ->
  string list ->
  (Workload.t list, [ `Msg of string ]) result
(** The workloads a [-w NAME ...] list selects, in order: each name
    resolves through {!find_workload} (micro or SPEC-like) and an unknown
    one is an error.  No names selects [default] — the only part that
    differs between the tables, the report and the daemon's sweep cells. *)

val ordering_of_name : string -> (Chf.Phases.ordering, [ `Msg of string ]) result
val policy_of_name : string -> (Chf.Policy.config, [ `Msg of string ]) result

(** {1 The one-shot compile report} *)

val compile_report :
  ?cache:Stage.cache ->
  ordering:Chf.Phases.ordering ->
  config:Chf.Policy.config ->
  backend:bool ->
  verify:bool ->
  Workload.t ->
  (Pipeline.compiled * string, Pipeline.failure) result
(** Compile a workload and render the [chfc compile] report text
    (workload/ordering/merges/static/back end/functional/cycles/
    mispredictions/verified lines, one per line, exactly as the CLI
    prints them).  The basic-block baseline comes from
    {!Pipeline.baseline}, so with a [cache] a second ordering or policy
    of the same source reuses it.  [Error] is {!Pipeline.failure_of_exn}
    of any exception but {!Trips_obs.Watchdog.Timed_out}, which is
    re-raised for the scheduler. *)

(** {1 The worker} *)

type t

val create :
  ?cache:Stage.cache -> ?output_store:string Trips_store.Store.t -> unit -> t
(** Fresh stores by default ([serve.prefix], [serve.baseline],
    [serve.output]); the daemon passes its own. *)

val cache : t -> Stage.cache
val output_store : t -> string Trips_store.Store.t

val run : t -> Protocol.output Protocol.request -> Protocol.output
(** Answer one job: a [Compile], [Report] or [Sweep_cell] request — the
    requests whose reply is an {!Protocol.output}.  Bad names and
    failed compiles (the {!Pipeline.pp_failure} line) are structured
    {!Protocol.served_error}s; a render listing failed cells is answered
    but not stored; an expired request deadline raises
    {!Trips_obs.Watchdog.Timed_out}; a chaos-poisoned compile
    ([cs_chaos_seed]) raises after fault injection — deliberately, to
    exercise the scheduler's per-job crash isolation end to end. *)
