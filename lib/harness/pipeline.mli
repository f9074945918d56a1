(** The full compiler pipeline of the paper's Figure 6, driven per
    workload: front end (for-loop unrolling, lowering) -> profiling run
    -> hyperblock formation under a phase ordering and policy -> register
    allocation / reverse if-conversion / fanout insertion -> functional
    and cycle-level simulation.

    Every measured configuration ({!measure}) is checked against the
    basic-block baseline's functional checksum, so a miscompilation can never silently pollute experiment results; with
    [verify], structure and behavior are additionally re-checked after
    {e every} formation phase via {!Trips_verify.Diff_check}, naming the
    first transform that broke.

    A compile has one failure path: the back end
    ({!Trips_regalloc.Backend.run}) either returns a CFG that fits the
    TRIPS budgets, its own reverse if-conversion being the repair, or
    raises; {!failure_of_exn} turns that, like any other escaping
    exception, into a structured per-workload {!failure} report.  No
    cell is retried or measured without the back end it asked for. *)

open Trips_ir
open Trips_sim
open Trips_workloads

type divergence = {
  div_workload : string;
  div_ordering : Chf.Phases.ordering;
  div_phase : string option;
      (** first diverging phase ("formation", "optimize", "backend", ...)
          when localizable *)
  div_got : int;
  div_expected : int;
}

exception Miscompiled of divergence

exception
  Verify_failed of {
    vf_workload : string;
    vf_ordering : Chf.Phases.ordering;
    vf_failure : Trips_verify.Diff_check.failure;
  }
(** Raised by [compile ~verify:true] when a phase breaks a structural
    invariant or changes observable behavior. *)

type failure_kind =
  | Crash  (** an exception classified by phase (the historical kind) *)
  | Timed_out of {
      to_stage : string;  (** the watchdog scope that expired *)
      to_reason : Trips_obs.Watchdog.reason;
      to_spent_s : float;
    }
      (** a per-stage watchdog budget expired: the cell was slow or
          hung, not wrong — siblings in the sweep are unaffected *)

type failure = {
  fail_workload : string;
  fail_ordering : Chf.Phases.ordering option;
  fail_phase : string;  (** "lower", "formation", "verify", "backend", ... *)
  fail_reason : string;
  fail_kind : failure_kind;
}
(** A structured per-workload failure report; sweeps record these and
    continue instead of aborting. *)

val pp_divergence : Format.formatter -> divergence -> unit
val pp_failure : Format.formatter -> failure -> unit

val pp_failures : Format.formatter -> failure list -> unit
(** The failure footer every table and report ends with: nothing when
    the list is empty, else a blank line, ["N failure(s):"] and one
    indented {!pp_failure} line each. *)

type compiled = {
  workload : Workload.t;
  ordering : Chf.Phases.ordering;
  config : Chf.Policy.config;
  cfg : Cfg.t;
  registers : (int * int) list;  (** post-allocation parameter registers *)
  stats : Chf.Formation.stats;
  backend : Trips_regalloc.Backend.report option;
  static_blocks : int;
  static_instrs : int;
}

val lower_workload : Workload.t -> Cfg.t * (int * int) list
(** Front-end unroll + lowering; returns parameter register bindings.
    Thin wrapper over {!Stage.lower}. *)

val profile_workload : Workload.t -> Trips_profile.Profile.t * Func_sim.result
(** Profile at the basic-block level (edges, blocks, trip counts). *)

val compile :
  ?cache:Stage.cache ->
  ?config:Chf.Policy.config ->
  ?backend:bool ->
  ?verify:bool ->
  Chf.Phases.ordering ->
  Workload.t ->
  compiled
(** Compile under a phase ordering (and policy), through the back end
    when [backend] (default true).  [verify] (default false) runs the
    per-phase differential verifier during formation.  [cache] memoizes
    the workload-invariant lower+profile prefix ({!Stage.prefix}), which
    every ordering and policy of the same workload content shares.
    @raise Verify_failed when [verify] and a phase breaks.
    @raise Failure when [backend] and the back end cannot fit the TRIPS
    budgets; a watchdog timeout and any other exception propagate too. *)

val failure_of_exn :
  workload:Workload.t -> ordering:Chf.Phases.ordering option -> exn -> failure
(** Classify an exception escaping the pipeline into a {!failure} (used
    by {!Sweep.run} around every {!measure}). *)

val run_functional : compiled -> Func_sim.result

val run_cycles :
  ?timing:Cycle_sim.timing ->
  ?attribution:Attribution.t ->
  compiled ->
  Cycle_sim.result
(** Run the compiled workload under the cycle-level timing model
    ({!Trips_sim.Cycle_sim.run}).  [attribution] collects per-block
    lineage attribution ({!Trips_sim.Attribution}) without affecting
    timing. *)

val baseline :
  ?cache:Stage.cache -> backend:bool -> cycles:bool -> Workload.t -> Stage.baseline
(** The basic-block baseline every formed configuration is checked and
    measured against: [Basic_blocks] compiled under
    {!Chf.Policy.edge_default} (through the back end when [backend]) and
    run once — at cycle level when [cycles], whose run also gives
    [base_functional], else functionally.  It depends on
    the workload's content alone — BB formation reads no policy field
    but the block limits, which every policy shares — so [cache]
    memoizes it per source ({!Stage.baseline}) and a second ordering or
    policy reuses it.  Exceptions propagate; nothing is then stored. *)

val verify_against :
  ?cache:Stage.cache -> baseline:Func_sim.result -> compiled -> Func_sim.result
(** @raise Miscompiled unless the compiled workload reproduces the
    baseline checksum; the payload names workload, ordering and — when
    localizable by re-running the phases under {!Trips_verify.Diff_check}
    on a copy of the [cache]d lowering — the first diverging phase. *)

type measured = {
  compiled : compiled;
  functional : Func_sim.result;
      (** the checksum-verified run: the cycle run's functional counts
          when cycles were asked for *)
  cycles : Cycle_sim.result option;  (** present when cycles were asked for *)
  attribution : Attribution.t option;
      (** the collector the cycle run filled, when one was given *)
}

val measure :
  ?cache:Stage.cache ->
  ?config:Chf.Policy.config ->
  ?backend:bool ->
  ?verify:bool ->
  ?attribution:Attribution.t ->
  cycles:bool ->
  baseline:Stage.baseline ->
  Chf.Phases.ordering ->
  Workload.t ->
  measured
(** The one measured cell, and the only code that orders compile ->
    simulate -> verify: {!compile}, then one simulation whose checksum
    is checked against the baseline's.  When [cycles] that is
    {!run_cycles} with [attribution], and [functional] is read from the
    same run (it equals {!run_functional} field for field); otherwise it
    is {!verify_against}, whose functional run is the measurement.
    Every table, report and served compile measures through here.
    Exceptions propagate; {!Sweep.run} classifies them with
    {!failure_of_exn}. *)
