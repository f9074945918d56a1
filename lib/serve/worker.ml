(* The worker: execute serve jobs against shared artifact stores.

   Three stores back every worker domain:

   - the two stores of one Stage.cache, shared by every request: the
     lower+profile prefix of each source, so concurrent requests for the
     same source share the expensive front half of the pipeline, and its
     basic-block baseline (functional checksum and cycles), so a second
     ordering or policy of a source skips the BB compile and both of its
     simulations;

   - a rendered-output store keyed by (workload content digest, job
     kind, configuration): a repeated request is answered from the store
     without compiling at all.  Outputs are deterministic, so a stored
     reply is byte-identical to a recomputed one — the same argument that
     makes the stage cache sound.

   The compile report text lives here (not in bin/chfc.ml) and the CLI
   prints it verbatim, so "served output = one-shot output" holds by
   construction. *)

open Trips_workloads
open Trips_harness
module Store = Trips_store.Store
module Trace = Trips_obs.Trace

(* ---- name resolution (shared with the chfc CLI) ------------------------ *)

let find_workload name =
  match Micro.by_name name with
  | Some w -> Ok w
  | None -> (
    match Spec_like.by_name name with
    | Some w -> Ok w
    | None ->
      Error (`Msg (Fmt.str "unknown workload %S; try `chfc list`" name)))

let ordering_of_name = function
  | "bb" -> Ok Chf.Phases.Basic_blocks
  | "upio" -> Ok Chf.Phases.Upio
  | "iupo" -> Ok Chf.Phases.Iupo
  | "iup-o" -> Ok Chf.Phases.Iup_o
  | "iupo-merged" | "convergent" -> Ok Chf.Phases.Iupo_merged
  | s -> Error (`Msg (Fmt.str "unknown ordering %S" s))

(* A [-w] selection: every name resolves through [find_workload] and an
   unknown one is an error; no names selects [default], the only part
   that differs between tables. *)
let select_workloads ~default = function
  | [] -> Ok default
  | names ->
    List.fold_left
      (fun acc name ->
        Result.bind acc (fun ws ->
            Result.map (fun w -> w :: ws) (find_workload name)))
      (Ok []) names
    |> Result.map List.rev

let policy_of_name = function
  | "bf" -> Ok Chf.Policy.edge_default
  | "df" ->
    Ok
      {
        Chf.Policy.edge_default with
        Chf.Policy.heuristic = Chf.Policy.Depth_first { min_merge_prob = 0.12 };
      }
  | "vliw" ->
    Ok
      {
        Chf.Policy.edge_default with
        Chf.Policy.heuristic = Chf.Policy.Vliw Chf.Policy.default_vliw;
      }
  | s -> Error (`Msg (Fmt.str "unknown policy %S (bf|df|vliw)" s))

(* ---- the one-shot compile report --------------------------------------- *)

(* The exact report the CLI has always printed, rendered to a string.
   Line for line the format strings match the historical [Fmt.pr] calls;
   none contains a break hint, so rendering through a buffer formatter
   cannot re-flow them and the bytes are identical.  A failure is
   classified by [Pipeline.failure_of_exn], the one classifier every
   door shares; only a watchdog expiry escapes, so that the scheduler
   answers a job past its deadline as timed out. *)
let compile_report ?cache ~ordering ~config ~backend ~verify w =
  try
    let baseline = Pipeline.baseline ?cache ~backend ~cycles:true w in
    let bb_cycles = Option.get baseline.Stage.base_cycles in
    let { Pipeline.compiled = c; functional = r; cycles; _ } =
      Pipeline.measure ?cache ~config ~backend ~verify ~cycles:true ~baseline
        ordering w
    in
    let cycles = Option.get cycles in
    (* report rendering under its own span, so a request's latency
       breakdown separates compute from formatting *)
    Trace.span "render" (fun () ->
    let buf = Buffer.create 512 in
    let fmt = Format.formatter_of_buffer buf in
    Fmt.pf fmt "workload        : %s (%s)@." w.Workload.name
      w.Workload.description;
    Fmt.pf fmt "ordering        : %s@." (Chf.Phases.name ordering);
    Fmt.pf fmt "merges m/t/u/p  : %a@." Chf.Formation.pp_stats c.Pipeline.stats;
    Fmt.pf fmt "static          : %d blocks, %d instructions@."
      c.Pipeline.static_blocks c.Pipeline.static_instrs;
    (match c.Pipeline.backend with
    | Some rep ->
      Fmt.pf fmt
        "back end        : %d cross-block values, %d fanout movs, %d splits@."
        rep.Trips_regalloc.Backend.cross_block_values
        rep.Trips_regalloc.Backend.fanout_movs rep.Trips_regalloc.Backend.splits
    | None -> ());
    Fmt.pf fmt "functional      : ret=%a, %d blocks, %d instructions executed@."
      Fmt.(option int)
      r.Trips_sim.Func_sim.ret r.Trips_sim.Func_sim.blocks_executed
      r.Trips_sim.Func_sim.instrs_executed;
    Fmt.pf fmt "cycles          : %d (basic blocks: %d, %+.1f%%)@."
      cycles.Trips_sim.Cycle_sim.cycles bb_cycles.Trips_sim.Cycle_sim.cycles
      (Stats.percent_improvement ~base:bb_cycles.Trips_sim.Cycle_sim.cycles
         ~v:cycles.Trips_sim.Cycle_sim.cycles);
    Fmt.pf fmt
      "mispredictions  : %d (accuracy %.1f%%), D-cache miss rate %.1f%%@."
      cycles.Trips_sim.Cycle_sim.mispredictions
      (100.0 *. cycles.Trips_sim.Cycle_sim.predictor_accuracy)
      (100.0 *. cycles.Trips_sim.Cycle_sim.cache_miss_rate);
    Fmt.pf fmt
      "verified        : functional checksum matches basic-block baseline@.";
    if verify then
      Fmt.pf fmt "per-phase       : structural + differential checks passed@.";
    Format.pp_print_flush fmt ();
    Ok (c, Buffer.contents buf))
  with
  | Trips_obs.Watchdog.Timed_out _ as e -> raise e
  | e -> Error (Pipeline.failure_of_exn ~workload:w ~ordering:(Some ordering) e)

(* ---- the worker --------------------------------------------------------- *)

type t = {
  cache : Stage.cache;
  outputs : string Store.t;
}

let create ?cache ?output_store () =
  {
    cache =
      (match cache with Some c -> c | None -> Stage.create ~name:"serve" ());
    outputs =
      (match output_store with
      | Some s -> s
      | None -> Store.create ~name:"serve.output" ());
  }

let cache t = t.cache
let output_store t = t.outputs

(* A chaos-poisoned compile: inject the Strip_exits fault into a copy of
   the compiled CFG, confirm the structural verifier sees the damage,
   and raise.  The raise is the point — the request must surface as a
   crash outcome confined to its own job. *)
let poison ~seed cfg =
  let rng = Random.State.make [| seed |] in
  let rec attempt k =
    if k = 0 then failwith (Fmt.str "chaos(seed %d): no injection site" seed)
    else
      match Trips_verify.Chaos.inject rng Trips_verify.Chaos.Strip_exits cfg with
      | Some inj -> inj
      | None -> attempt (k - 1)
  in
  let inj = attempt 8 in
  match Trips_verify.Cfg_verify.check inj.Trips_verify.Chaos.cfg with
  | [] ->
    failwith
      (Fmt.str "chaos(seed %d): injection escaped the structural verifier"
         seed)
  | v :: _ ->
    failwith
      (Fmt.str "chaos(seed %d): %s: %a" seed inj.Trips_verify.Chaos.note
         Trips_verify.Cfg_verify.pp_violation v)

let bad_request msg = Error (Protocol.Bad_request msg)

(* Rendered outputs are cached under (content digest, kind, config).
   [compute] answers the text and the failures it lists.  A report or
   table renders the cells an expired request deadline stopped as
   failures, so one watchdog poll after [compute], on the job's domain,
   ends such a job timed out instead.  Only a render that lists no
   failure is stored.  Chaos-poisoned requests bypass the store
   entirely: they raise. *)
let with_output_cache t ~src ~kind ~config compute =
  let key = { Store.src; stage = "output." ^ kind; config } in
  match Store.find t.outputs key with
  | Some text ->
    if Trace.is_enabled () then
      Trace.record "store"
        [
          ("store", Trace.Str "serve.output");
          ("kind", Trace.Str kind);
          ("hit", Trace.Bool true);
        ];
    Ok text
  | None -> (
    match compute () with
    | Ok (text, failures) ->
      Trips_obs.Watchdog.check ();
      if failures = [] then Store.add t.outputs key text;
      Ok text
    | Error e -> Error e)

let compile t (s : Protocol.compile_spec) : Protocol.output =
  match
    ( find_workload s.Protocol.cs_workload,
      ordering_of_name s.Protocol.cs_ordering,
      policy_of_name s.Protocol.cs_policy )
  with
  | Error (`Msg m), _, _ | _, Error (`Msg m), _ | _, _, Error (`Msg m) ->
    bad_request m
  | Ok w, Ok ordering, Ok config -> (
    let compiled () =
      compile_report ~cache:t.cache ~ordering ~config
        ~backend:s.Protocol.cs_backend ~verify:s.Protocol.cs_verify w
      |> Result.map_error (fun f ->
             Protocol.Compile_failed (Fmt.str "%a" Pipeline.pp_failure f))
    in
    match s.Protocol.cs_chaos_seed with
    | Some seed -> (
      (* poisoned: compile, inject, raise — never cached *)
      match compiled () with
      | Error _ as e -> e
      | Ok (c, _) -> poison ~seed c.Pipeline.cfg)
    | None ->
      let config_key =
        Fmt.str "%s/%s/backend=%b/verify=%b" s.Protocol.cs_ordering
          s.Protocol.cs_policy s.Protocol.cs_backend s.Protocol.cs_verify
      in
      with_output_cache t ~src:(Stage.content_key w) ~kind:"compile"
        ~config:config_key (fun () ->
          Result.map (fun (_, text) -> (text, [])) (compiled ())))

(* one digest covering the whole workload selection, in order *)
let selection_key ws =
  Digest.to_hex (Digest.string (String.concat ";" (List.map Stage.content_key ws)))

let report t (s : Protocol.report_spec) : Protocol.output =
  match
    ( select_workloads ~default:Micro.all s.Protocol.rs_workloads,
      ordering_of_name s.Protocol.rs_ordering,
      policy_of_name s.Protocol.rs_policy )
  with
  | Error (`Msg m), _, _ | _, Error (`Msg m), _ | _, _, Error (`Msg m) ->
    bad_request m
  | Ok workloads, Ok ordering, Ok config ->
    let config_key =
      Fmt.str "%s/%s" s.Protocol.rs_ordering s.Protocol.rs_policy
    in
    with_output_cache t ~src:(selection_key workloads) ~kind:"report"
      ~config:config_key (fun () ->
        let o = Reporter.run ~config ~cache:t.cache ~jobs:1 ~ordering ~workloads () in
        Ok
          ( Trace.span "render" (fun () -> Fmt.str "%a" Reporter.render o),
            o.Reporter.failures ))

let sweep_cell t (s : Protocol.sweep_spec) : Protocol.output =
  match
    Result.bind (Experiment.find s.Protocol.ss_table) (fun e ->
        Result.map
          (fun ws -> (e, ws))
          (select_workloads ~default:e.Experiment.defaults s.Protocol.ss_workloads))
  with
  | Error (`Msg m) -> bad_request m
  | Ok (e, ws) ->
    with_output_cache t ~src:(selection_key ws) ~kind:"sweep"
      ~config:s.Protocol.ss_table (fun () ->
        Ok (e.Experiment.render ~cache:t.cache ~jobs:1 ws))

(* One arm per job constructor: [output request] admits exactly these
   three, so a new one fails to compile here. *)
let run t : Protocol.output Protocol.request -> Protocol.output = function
  | Protocol.Compile s -> compile t s
  | Protocol.Report s -> report t s
  | Protocol.Sweep_cell s -> sweep_cell t s
