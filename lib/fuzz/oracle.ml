(* The differential oracle.  Each step that can implicate the pipeline
   is caught and bucketed; only generator bugs (invalid or diverging
   inputs) use the "input" stages, which the test suite asserts never
   fire. *)

open Trips_ir
open Trips_sim
open Trips_verify

type verdict =
  | Pass
  | Fail of { stage : string; bucket : string; reason : string }

let fail stage bucket reason = Fail { stage; bucket; reason }

let orderings =
  [ Chf.Phases.Upio; Chf.Phases.Iupo; Chf.Phases.Iup_o; Chf.Phases.Iupo_merged ]

let ordering_for ~seed = List.nth orderings (abs seed mod List.length orderings)

let config_for ~seed =
  if abs seed mod 5 = 3 then
    { Chf.Policy.edge_default with
      Chf.Policy.heuristic = Chf.Policy.Depth_first { min_merge_prob = 0.05 } }
  else Chf.Policy.edge_default

(* Formation's caches against their specification: with
   [Formation.audit] set, every cached liveness, loop-forest and
   predecessor answer is checked against a from-scratch solve (a mismatch
   raises, and lands in an [equiv] bucket); the final CFG and statistics
   must equal an unaudited run.
   Compared on a canonical rendering of the graph (entry + blocks in id
   order). *)
let formation_snapshot ~config cfg profile ~audited =
  if audited then Chf.Formation.audit := true;
  Fun.protect ~finally:(fun () -> Chf.Formation.audit := false) @@ fun () ->
  let cfg = Cfg.copy cfg in
  let stats = Chf.Formation.run config cfg profile in
  let blocks = List.map (Cfg.block cfg) (List.sort compare (Cfg.block_ids cfg)) in
  ((cfg.Cfg.entry, blocks), stats)

let check_equiv ~config cfg profile =
  match
    let plain = formation_snapshot ~config cfg profile ~audited:false in
    let audited = formation_snapshot ~config cfg profile ~audited:true in
    (plain, audited)
  with
  | exception e -> Some (fail "equiv" (Triage.of_exn ~stage:"equiv" e) (Printexc.to_string e))
  | plain, audited ->
    if plain = audited then None
    else
      Some
        (fail "equiv" "equiv:audit-divergence"
           "audited formation differs from unaudited formation")

(* ---- raw CFG cases ----------------------------------------------------- *)

let check_cfg_case ~fuel ~seed ~cfg ~registers ~mem_words =
  let fresh_memory () = Gen.memory_of ~mem_words in
  let params = IntSet.of_list (List.map fst registers) in
  let config = config_for ~seed in
  let ordering = ordering_for ~seed in
  let limits = config.Chf.Policy.limits in
  (* 1. the input must verify cleanly: anything else is a generator bug *)
  match Cfg_verify.check ~allow_unreachable:false ~params cfg with
  | _ :: _ as viols ->
    fail "input-verify"
      ("input:" ^ Triage.of_violations viols)
      (Fmt.str "%a" Fmt.(list ~sep:(any "; ") Cfg_verify.pp_violation) viols)
  | [] -> (
    (* Budgets are enforced on the FINAL output, after the back end: the
       pipeline's contract lets formation exceed limits transiently (a
       later merge can grow an already-formed block's live-out estimate)
       and repairs by reverse if-conversion during allocation.  Enforced
       only when the input itself fits, so a case built over the caps
       reports only regressions. *)
    let limits_opt =
      match Cfg_verify.check ~allow_unreachable:false ~params ~limits cfg with
      | [] -> Some limits
      | _ :: _ -> None
    in
    match Func_sim.run ~fuel ~registers ~memory:(fresh_memory ()) cfg with
    | exception e ->
      fail "input-sim" ("input:" ^ Triage.of_exn ~stage:"sim" e) (Printexc.to_string e)
    | baseline -> (
      match
        Func_sim.run_profiled ~fuel ~registers ~memory:(fresh_memory ()) cfg
      with
      | exception e ->
        fail "profile" (Triage.of_exn ~stage:"profile" e) (Printexc.to_string e)
      | _, profile -> (
        let work = Cfg.copy cfg in
        match
          Diff_check.run ~config ~fuel ~registers ~fresh_memory ordering work
            profile
        with
        | Error f ->
          fail "formation" (Triage.of_diff_failure f)
            (Fmt.str "%a" Diff_check.pp_failure f)
        | exception e ->
          fail "formation" (Triage.of_exn ~stage:"formation" e) (Printexc.to_string e)
        | Ok _ -> (
          match Trips_regalloc.Backend.run work with
          | exception e ->
            fail "backend" (Triage.of_exn ~stage:"backend" e) (Printexc.to_string e)
          | report -> (
            let registers' =
              List.map
                (fun (r, v) ->
                  (IntMap.find_or ~default:r r report.Trips_regalloc.Backend.mapping, v))
                registers
            in
            let params' = IntSet.of_list (List.map fst registers') in
            (* the pipeline's own contract (Diff_check, split-and-retry)
               tolerates unreachable leftovers; only flag regressions *)
            match
              Cfg_verify.check ~allow_unreachable:true ~params:params'
                ?limits:limits_opt work
            with
            | _ :: _ as viols ->
              fail "post-backend-verify" ("backend:" ^ Triage.of_violations viols)
                (Fmt.str "%a"
                   Fmt.(list ~sep:(any "; ") Cfg_verify.pp_violation)
                   viols)
            | [] -> (
              match
                Func_sim.run ~fuel ~registers:registers'
                  ~memory:(fresh_memory ()) work
              with
              | exception e ->
                fail "final-sim" (Triage.of_exn ~stage:"final-sim" e)
                  (Printexc.to_string e)
              | final ->
                if final.Func_sim.checksum <> baseline.Func_sim.checksum then
                  fail "final-sim"
                    (Triage.divergence ~stage:"final-sim")
                    (Fmt.str "checksum %d, baseline %d" final.Func_sim.checksum
                       baseline.Func_sim.checksum)
                else
                  Option.value
                    (check_equiv ~config cfg profile)
                    ~default:Pass))))))

(* ---- mini-language cases ----------------------------------------------- *)

let check_lang_case ~seed recipe =
  let open Trips_harness in
  let w = Trips_workloads.Spec_like.generate recipe in
  let ordering = ordering_for ~seed in
  match Pipeline.compile ~backend:false Chf.Phases.Basic_blocks w with
  | exception e ->
    fail "lang-baseline" ("input:" ^ Triage.of_exn ~stage:"baseline" e)
      (Printexc.to_string e)
  | base_c -> (
    match Pipeline.run_functional base_c with
    | exception e ->
      fail "lang-baseline" ("input:" ^ Triage.of_exn ~stage:"baseline" e)
        (Printexc.to_string e)
    | baseline -> (
      match Pipeline.compile ~verify:true ordering w with
      | exception Pipeline.Verify_failed { vf_failure; _ } ->
        fail "formation" (Triage.of_diff_failure vf_failure)
          (Fmt.str "%a" Diff_check.pp_failure vf_failure)
      | exception e ->
        fail "pipeline" (Triage.of_exn ~stage:"pipeline" e) (Printexc.to_string e)
      | c -> (
        match Pipeline.verify_against ~baseline c with
        | exception e ->
          fail "verify" (Triage.of_exn ~stage:"verify" e) (Printexc.to_string e)
        | _ -> (
          match
            let profile, _ = Pipeline.profile_workload w in
            let cfg, _ = Pipeline.lower_workload w in
            Trips_opt.Optimizer.optimize_cfg cfg;
            (cfg, profile)
          with
          | exception e ->
            fail "equiv" (Triage.of_exn ~stage:"equiv" e) (Printexc.to_string e)
          | cfg, profile ->
            Option.value
              (check_equiv ~config:(config_for ~seed) cfg profile)
              ~default:Pass))))

let check ?(fuel = 2_000_000) (case : Gen.case) =
  match case.Gen.payload with
  | Gen.Cfg_case { cfg; registers; mem_words } ->
    check_cfg_case ~fuel ~seed:case.Gen.seed ~cfg ~registers ~mem_words
  | Gen.Lang_case recipe -> check_lang_case ~seed:case.Gen.seed recipe
