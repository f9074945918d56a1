(* The full compiler pipeline of Figure 6, driven per workload:

   front end (for-loop unrolling, lowering) -> profiling run ->
   hyperblock formation under a phase ordering and policy ->
   register allocation / reverse if-conversion / fanout insertion ->
   functional and cycle-level simulation.

   Every compiled configuration is checked against the basic-block
   baseline's functional checksum, so a miscompilation can never silently
   pollute experiment results; with [verify], the structural invariants
   and the functional behavior are additionally re-checked after every
   formation phase, naming the first transform that broke.

   A compile has one failure path: the back end either returns a CFG
   that fits the TRIPS budgets (its own reverse if-conversion is the
   repair) or raises, and [failure_of_exn] turns that, like any other
   escaping exception, into a structured per-workload failure report. *)

open Trips_ir
open Trips_sim
open Trips_workloads

type divergence = {
  div_workload : string;
  div_ordering : Chf.Phases.ordering;
  div_phase : string option;  (* first diverging phase, when localized *)
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

type failure_kind =
  | Crash
  | Timed_out of {
      to_stage : string;
      to_reason : Trips_obs.Watchdog.reason;
      to_spent_s : float;
    }

type failure = {
  fail_workload : string;
  fail_ordering : Chf.Phases.ordering option;
  fail_phase : string;
  fail_reason : string;
  fail_kind : failure_kind;
}

let pp_divergence fmt d =
  Fmt.pf fmt "%s under %s%a: checksum %d, baseline %d" d.div_workload
    (Chf.Phases.name d.div_ordering)
    Fmt.(option (fmt " (diverged in phase %s)"))
    d.div_phase d.div_got d.div_expected

let pp_failure fmt f =
  let verb =
    match f.fail_kind with Crash -> "failed" | Timed_out _ -> "timed out"
  in
  Fmt.pf fmt "%s%a %s in %s: %s" f.fail_workload
    Fmt.(option (using Chf.Phases.name (fmt " under %s")))
    f.fail_ordering verb f.fail_phase f.fail_reason

let pp_failures fmt = function
  | [] -> ()
  | failures ->
    Fmt.pf fmt "@.%d failure(s):@." (List.length failures);
    List.iter (fun f -> Fmt.pf fmt "  %a@." pp_failure f) failures

type compiled = {
  workload : Workload.t;
  ordering : Chf.Phases.ordering;
  config : Chf.Policy.config;
  cfg : Cfg.t;
  registers : (int * int) list;  (* post-allocation parameter registers *)
  stats : Chf.Formation.stats;
  backend : Trips_regalloc.Backend.report option;
  static_blocks : int;
  static_instrs : int;
}

(* Lower the workload (with its front-end unroll factor) and bind the
   parameter registers.  Thin wrapper over the [Stage] front end. *)
let lower_workload (w : Workload.t) =
  let l = Stage.lower w in
  (l.Stage.low_cfg, l.Stage.low_registers)

(** Profile the workload at the basic-block level (edge counts, block
    counts, trip-count histograms). *)
let profile_workload (w : Workload.t) =
  let p = Stage.profile w (Stage.lower w) in
  (p.Stage.prof_profile, p.Stage.prof_result)

(* Run the phase ordering; with [verify], interleave structural and
   differential checks after every phase and raise [Verify_failed] naming
   the first phase that broke an invariant or changed behavior. *)
let form ~verify ~config ordering (w : Workload.t) cfg registers profile =
  Stage.time Stage.Formation (fun () ->
      if not verify then Chf.Phases.apply ~config ordering cfg profile
      else
        match
          Trips_verify.Diff_check.run ~config ~registers
            ~fresh_memory:(fun () -> Workload.memory w)
            ordering cfg profile
        with
        | Ok stats -> stats
        | Error f ->
          raise
            (Verify_failed
               { vf_workload = w.Workload.name; vf_ordering = ordering; vf_failure = f }))

let run_backend cfg = Stage.time Stage.Backend (fun () -> Trips_regalloc.Backend.run cfg)

(** Compile [w] under phase ordering [ordering] (and policy [config]),
    through the back end when [backend] is set.  [verify] re-checks
    invariants and behavior after every formation phase.  [cache]
    memoizes the workload-invariant lower+profile prefix across
    compiles (any ordering/policy of the same content shares it). *)
let compile ?cache ?(config = Chf.Policy.edge_default) ?(backend = true)
    ?(verify = false) ordering (w : Workload.t) : compiled =
  let prefix = Stage.prefix ?cache w in
  (* the compile mutates its own deep copy of the cached master lowering;
     lowering is deterministic, so the copy matches a fresh lowering *)
  let { Stage.low_cfg = cfg; low_registers = registers } =
    Stage.instantiate prefix
  in
  let stats =
    form ~verify ~config ordering w cfg registers
      prefix.Stage.pre_profiled.Stage.prof_profile
  in
  let backend_report = if backend then Some (run_backend cfg) else None in
  let registers =
    match backend_report with
    | Some r ->
      List.map
        (fun (reg, value) ->
          (IntMap.find_or ~default:reg reg r.Trips_regalloc.Backend.mapping, value))
        registers
    | None -> registers
  in
  {
    workload = w;
    ordering;
    config;
    cfg;
    registers;
    stats;
    backend = backend_report;
    static_blocks = Cfg.num_blocks cfg;
    static_instrs = Cfg.total_instrs cfg;
  }

(** Run the compiled workload functionally. *)
let run_functional (c : compiled) : Func_sim.result =
  Stage.time Stage.Sim (fun () ->
      let memory = Workload.memory c.workload in
      Func_sim.run ~registers:c.registers ~memory c.cfg)

(** Run the compiled workload under the cycle-level timing model.
    [attribution] collects per-block lineage attribution ({!Attribution})
    without affecting timing. *)
let run_cycles ?timing ?attribution (c : compiled) : Cycle_sim.result =
  Stage.time Stage.Sim (fun () ->
      let memory = Workload.memory c.workload in
      Cycle_sim.run ?timing ?attribution ~registers:c.registers ~memory c.cfg)

(* The functional record of a cycle run: [Cycle_sim.run] is
   functionally identical to [Func_sim.run] and counts the same blocks,
   fired and fetched instructions. *)
let functional_of (r : Cycle_sim.result) : Func_sim.result =
  {
    Func_sim.ret = r.Cycle_sim.ret;
    blocks_executed = r.Cycle_sim.blocks;
    instrs_executed = r.Cycle_sim.instrs_fired;
    instrs_fetched = r.Cycle_sim.instrs_fetched;
    checksum = r.Cycle_sim.checksum;
  }

(** The basic-block baseline of [w]: the BB compile under the default
    policy (the baseline reads nothing else of a policy) and one run of
    it — at cycle level when [cycles], which also yields the functional
    result, else functional.  Memoized in [cache] under the workload's
    content; an exception propagates and nothing is stored. *)
let baseline ?cache ~backend ~cycles (w : Workload.t) : Stage.baseline =
  Stage.baseline ?cache ~backend ~cycles w (fun () ->
      let bb = compile ?cache ~backend Chf.Phases.Basic_blocks w in
      if cycles then
        let r = run_cycles bb in
        { Stage.base_functional = functional_of r; base_cycles = Some r }
      else { Stage.base_functional = run_functional bb; base_cycles = None })

(* On a checksum mismatch, re-run the formation phases with differential
   checking on a fresh copy of the cached lowering to name the first phase
   that diverged; if they all pass, the divergence came from the back end. *)
let localize_divergence ?cache (c : compiled) =
  match
    let prefix = Stage.prefix ?cache c.workload in
    let { Stage.low_cfg; low_registers } = Stage.instantiate prefix in
    Trips_verify.Diff_check.run ~config:c.config ~registers:low_registers
      ~fresh_memory:(fun () -> Workload.memory c.workload)
      c.ordering low_cfg prefix.Stage.pre_profiled.Stage.prof_profile
  with
  | Error f -> Some f.Trips_verify.Diff_check.phase
  | Ok _ -> if c.backend <> None then Some "backend" else None
  | exception _ -> None

(* Raise [Miscompiled] unless [r], a run of [c], reproduces the
   basic-block baseline's checksum. *)
let check_against ?cache ~(baseline : Func_sim.result) (c : compiled)
    (r : Func_sim.result) =
  if r.Func_sim.checksum <> baseline.Func_sim.checksum then
    raise
      (Miscompiled
         {
           div_workload = c.workload.Workload.name;
           div_ordering = c.ordering;
           div_phase = localize_divergence ?cache c;
           div_got = r.Func_sim.checksum;
           div_expected = baseline.Func_sim.checksum;
         });
  r

(** Raise [Miscompiled] unless [c] produces the same functional checksum
    as the basic-block baseline result [baseline]; the payload names the
    workload, ordering and (when localizable) the diverging phase. *)
let verify_against ?cache ~baseline (c : compiled) =
  check_against ?cache ~baseline c (run_functional c)

type measured = {
  compiled : compiled;
  functional : Func_sim.result;
  cycles : Cycle_sim.result option;
  attribution : Attribution.t option;
}

(** The one measured cell: compile, then simulate once — at cycle level
    when [cycles], else functionally — and check that run's checksum
    against the BB baseline. *)
let measure ?cache ?config ?backend ?verify ?attribution ~cycles
    ~(baseline : Stage.baseline) ordering (w : Workload.t) : measured =
  let compiled = compile ?cache ?config ?backend ?verify ordering w in
  let baseline = baseline.Stage.base_functional in
  if cycles then
    let r = run_cycles ?attribution compiled in
    let functional = check_against ?cache ~baseline compiled (functional_of r) in
    { compiled; functional; cycles = Some r; attribution }
  else
    let functional = verify_against ?cache ~baseline compiled in
    { compiled; functional; cycles = None; attribution }

(** Structured failure report for an exception escaping the pipeline. *)
let failure_of_exn ~(workload : Workload.t) ~ordering exn =
  let kind =
    match exn with
    | Trips_obs.Watchdog.Timed_out { wd_stage; wd_reason; wd_spent_s } ->
      Timed_out
        { to_stage = wd_stage; to_reason = wd_reason; to_spent_s = wd_spent_s }
    | _ -> Crash
  in
  let phase, reason =
    match exn with
    | Trips_obs.Watchdog.Timed_out { wd_stage; wd_reason; wd_spent_s } ->
      ( wd_stage,
        Fmt.str "%a" Trips_obs.Watchdog.pp_timed_out
          (wd_stage, wd_reason, wd_spent_s) )
    | Verify_failed { vf_failure; _ } ->
      ( vf_failure.Trips_verify.Diff_check.phase,
        Fmt.str "%a" Trips_verify.Diff_check.pp_failure vf_failure )
    | Miscompiled d -> ("verify", Fmt.str "%a" pp_divergence d)
    | Cfg.Ill_formed m -> ("formation", m)
    | Trips_verify.Cfg_verify.Invalid (name, viols) ->
      ( "verify",
        Fmt.str "%s: %a" name
          Fmt.(list ~sep:(any "; ") Trips_verify.Cfg_verify.pp_violation)
          viols )
    | Func_sim.Out_of_fuel m | Func_sim.Exit_invariant_violated m ->
      ("simulate", m)
    | Invalid_argument m -> ("lower", m)
    | Failure m -> ("compile", m)
    | e -> ("compile", Printexc.to_string e)
  in
  {
    fail_workload = workload.Workload.name;
    fail_ordering = ordering;
    fail_phase = phase;
    fail_reason = reason;
    fail_kind = kind;
  }
