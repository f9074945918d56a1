(* Verify subsystem: typed structural violations with loci, the
   tolerated-baseline parameter handling, the chaos fault-injection
   suite, per-phase differential checking, transform invariant
   preservation, and sweep resilience under a poisoned workload. *)

open Trips_ir
open Trips_verify
open Trips_workloads
open Trips_harness

let check = Alcotest.check

(* A minimal well-formed CFG: b0 (cmp; two guarded exits) -> b1 | b2,
   both returning.  All registers virtual, defined before use. *)
let small_cfg () =
  let cfg = Cfg.create ~name:"small" () in
  let b0 = Cfg.fresh_block_id cfg in
  let b1 = Cfg.fresh_block_id cfg in
  let b2 = Cfg.fresh_block_id cfg in
  let p = Cfg.fresh_reg cfg in
  let test = Cfg.instr cfg (Instr.Cmp (Opcode.Lt, p, Instr.Imm 1, Instr.Imm 5)) in
  Cfg.set_block cfg
    (Block.make b0 [ test ]
       [
         { Block.eguard = Some { Instr.greg = p; sense = true }; target = Block.Goto b1 };
         { Block.eguard = Some { Instr.greg = p; sense = false }; target = Block.Goto b2 };
       ]);
  let ret_block id =
    let r = Cfg.fresh_reg cfg in
    let m = Cfg.instr cfg (Instr.Mov (r, Instr.Imm id)) in
    Block.make id [ m ] [ { Block.eguard = None; target = Block.Ret (Some (Instr.Reg r)) } ]
  in
  Cfg.set_block cfg (ret_block b1);
  Cfg.set_block cfg (ret_block b2);
  cfg.Cfg.entry <- b0;
  cfg

let test_clean_cfg () =
  check Alcotest.int "no violations" 0 (List.length (Cfg_verify.check (small_cfg ())))

let test_missing_entry () =
  let cfg = small_cfg () in
  cfg.Cfg.entry <- 99;
  match Cfg_verify.check cfg with
  | [ Cfg_verify.Missing_entry { entry = 99 } ] -> ()
  | vs -> Alcotest.failf "expected Missing_entry 99, got %a" Fmt.(list Cfg_verify.pp_violation) vs

let test_no_exit () =
  let cfg = small_cfg () in
  let b1 = Cfg.block cfg 1 in
  Cfg.set_block cfg { b1 with Block.exits = [] };
  let vs = Cfg_verify.check cfg in
  check Alcotest.bool "No_exit b1 reported" true
    (List.exists (function Cfg_verify.No_exit { block = 1 } -> true | _ -> false) vs);
  let l = Cfg_verify.locus (List.hd vs) in
  check Alcotest.(option int) "locus block" (Some 1) l.Cfg_verify.at_block

let test_multiple_unguarded () =
  let cfg = small_cfg () in
  let b1 = Cfg.block cfg 1 in
  Cfg.set_block cfg
    {
      b1 with
      Block.exits =
        { Block.eguard = None; target = Block.Ret None }
        :: { Block.eguard = None; target = Block.Goto 2 }
        :: b1.Block.exits;
    };
  let vs = Cfg_verify.check cfg in
  check Alcotest.bool "Multiple_unguarded_exits reported" true
    (List.exists
       (function
         | Cfg_verify.Multiple_unguarded_exits { block = 1; count = 3 } -> true
         | _ -> false)
       vs)

let test_dangling_edge () =
  let cfg = small_cfg () in
  let b1 = Cfg.block cfg 1 in
  Cfg.set_block cfg
    { b1 with Block.exits = [ { Block.eguard = None; target = Block.Goto 77 } ] };
  let vs = Cfg_verify.check cfg in
  check Alcotest.bool "Dangling_edge reported" true
    (List.exists
       (function
         | Cfg_verify.Dangling_edge { block = 1; target = 77 } -> true
         | _ -> false)
       vs)

let test_unreachable_block () =
  let cfg = small_cfg () in
  let orphan = Cfg.fresh_block_id cfg in
  Cfg.set_block cfg
    (Block.make orphan [] [ { Block.eguard = None; target = Block.Ret None } ]);
  let vs = Cfg_verify.check cfg in
  check Alcotest.bool "Unreachable_block reported" true
    (List.exists
       (function
         | Cfg_verify.Unreachable_block { block } -> block = orphan
         | _ -> false)
       vs);
  check Alcotest.int "suppressed when allowed" 0
    (List.length (Cfg_verify.check ~allow_unreachable:true cfg))

let test_duplicate_instr_id () =
  let cfg = small_cfg () in
  let b1 = Cfg.block cfg 1 in
  Cfg.set_block cfg { b1 with Block.instrs = b1.Block.instrs @ b1.Block.instrs };
  let vs = Cfg_verify.check cfg in
  check Alcotest.bool "Duplicate_instr_id reported" true
    (List.exists
       (function Cfg_verify.Duplicate_instr_id { block = 1; _ } -> true | _ -> false)
       vs)

let test_undefined_use_and_params () =
  let cfg = small_cfg () in
  let b1 = Cfg.block cfg 1 in
  let ghost = Cfg.fresh_reg cfg in
  let bad = Cfg.instr cfg (Instr.Mov (Cfg.fresh_reg cfg, Instr.Reg ghost)) in
  Cfg.set_block cfg { b1 with Block.instrs = b1.Block.instrs @ [ bad ] };
  let vs = Cfg_verify.check cfg in
  (match
     List.find_opt
       (function Cfg_verify.Undefined_use _ -> true | _ -> false)
       vs
   with
  | Some (Cfg_verify.Undefined_use { block; instr; reg; in_guard }) ->
    check Alcotest.int "locus block" 1 block;
    check Alcotest.(option int) "locus instr" (Some bad.Instr.id) instr;
    check Alcotest.int "locus reg" ghost reg;
    check Alcotest.bool "not a guard use" false in_guard
  | _ -> Alcotest.fail "expected Undefined_use");
  (* declaring the register a workload parameter tolerates the read *)
  check Alcotest.int "tolerated as parameter" 0
    (List.length (Cfg_verify.check ~params:(IntSet.singleton ghost) cfg));
  (* and undefined_regs surfaces exactly that register for baselines *)
  check Alcotest.bool "undefined_regs finds it" true
    (IntSet.mem ghost (Cfg_verify.undefined_regs cfg))

let test_over_budget () =
  let cfg = small_cfg () in
  let b1 = Cfg.block cfg 1 in
  let loads =
    List.init
      (Chf.Constraints.trips_limits.Chf.Constraints.max_load_store + 1)
      (fun k -> Cfg.instr cfg (Instr.Load (Cfg.fresh_reg cfg, Instr.Imm k, 0)))
  in
  Cfg.set_block cfg { b1 with Block.instrs = b1.Block.instrs @ loads };
  check Alcotest.int "no budget check without limits" 0
    (List.length (Cfg_verify.check cfg));
  let vs = Cfg_verify.check ~limits:Chf.Constraints.trips_limits cfg in
  check Alcotest.bool "Over_budget reported" true
    (List.exists
       (function Cfg_verify.Over_budget { block = 1; _ } -> true | _ -> false)
       vs)

let test_check_exn_and_dot_dump () =
  let cfg = small_cfg () in
  cfg.Cfg.entry <- 99;
  (match Cfg_verify.check_exn cfg with
  | () -> Alcotest.fail "expected Invalid"
  | exception Cfg_verify.Invalid (name, vs) ->
    check Alcotest.string "names the cfg" "small" name;
    check Alcotest.bool "carries violations" true (vs <> []));
  let cfg = small_cfg () in
  let b1 = Cfg.block cfg 1 in
  Cfg.set_block cfg { b1 with Block.exits = [] };
  let vs = Cfg_verify.check cfg in
  let dot = Cfg_verify.dot_dump cfg vs in
  check Alcotest.bool "dot highlights the locus" true
    (let has s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     has dot "fillcolor")

(* ---- property: generator CFGs are clean, transforms keep them clean -- *)

let reg1024 = IntSet.singleton Trips_ir.Machine.first_virtual_reg

let prop_random_cfgs_clean =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random CFGs satisfy the invariants" ~count:200
       Generators.random_cfg_gen (fun g ->
         let cfg = Generators.build_random_cfg g in
         Cfg_verify.check ~params:reg1024 cfg = []))

(* Split, unroll and peel applied to a lowered workload must preserve
   the structural invariants and the functional checksum. *)
let checksum_of ~registers cfg w =
  let memory = Workload.memory w in
  let r = Trips_sim.Func_sim.run ~registers ~memory cfg in
  r.Trips_sim.Func_sim.checksum

let transform_victims = [ "sieve"; "gzip_1"; "art_1" ]

let test_split_preserves_invariants () =
  List.iter
    (fun name ->
      let w = Option.get (Micro.by_name name) in
      let cfg, registers = Pipeline.lower_workload w in
      let params =
        List.fold_left (fun s (r, _) -> IntSet.add r s) IntSet.empty registers
      in
      let before = checksum_of ~registers cfg w in
      let split_any = ref false in
      List.iter
        (fun b ->
          match Trips_transform.Split.split_block cfg b.Block.id with
          | Some _ -> split_any := true
          | None -> ())
        (Cfg.blocks cfg);
      check Alcotest.bool (name ^ ": something split") true !split_any;
      check Alcotest.int
        (name ^ ": invariants preserved by split")
        0
        (List.length (Cfg_verify.check ~params cfg));
      check Alcotest.int (name ^ ": checksum preserved") before (checksum_of ~registers cfg w))
    transform_victims

let test_loop_transforms_preserve_invariants () =
  List.iter
    (fun name ->
      let w = Option.get (Micro.by_name name) in
      let cfg, registers = Pipeline.lower_workload w in
      let params =
        List.fold_left (fun s (r, _) -> IntSet.add r s) IntSet.empty registers
      in
      let before = checksum_of ~registers cfg w in
      let loops = Trips_analysis.Loops.compute cfg in
      (match Trips_analysis.Loops.all_loops loops with
      | [] -> ()
      | l :: _ ->
        ignore (Trips_transform.Cfg_loop.peel cfg l ~count:1);
        let loops = Trips_analysis.Loops.compute cfg in
        (match Trips_analysis.Loops.all_loops loops with
        | [] -> ()
        | l :: _ -> ignore (Trips_transform.Cfg_loop.unroll cfg l ~factor:2)));
      check Alcotest.int
        (name ^ ": invariants preserved by peel+unroll")
        0
        (List.length (Cfg_verify.check ~params cfg));
      check Alcotest.int (name ^ ": checksum preserved") before (checksum_of ~registers cfg w))
    transform_victims

(* formation under every ordering passes the per-phase differential
   checker on random programs *)
let prop_diff_check_random_programs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"per-phase checks pass on random programs" ~count:12
       ~print:Generators.print_workload Generators.random_program_gen
       (fun w ->
         let cfg, registers = Pipeline.lower_workload w in
         let profile, _ = Pipeline.profile_workload w in
         match
           Diff_check.run ~registers
             ~fresh_memory:(fun () -> Workload.memory w)
             Chf.Phases.Iupo_merged cfg profile
         with
         | Ok _ -> true
         | Error f ->
           QCheck2.Test.fail_reportf "%s: %a" w.Workload.name
             Diff_check.pp_failure f))

let test_diff_check_all_orderings_sieve () =
  let w = Option.get (Micro.by_name "sieve") in
  List.iter
    (fun ordering ->
      let cfg, registers = Pipeline.lower_workload w in
      let profile, _ = Pipeline.profile_workload w in
      match
        Diff_check.run ~registers
          ~fresh_memory:(fun () -> Workload.memory w)
          ordering cfg profile
      with
      | Ok _ -> ()
      | Error f ->
        Alcotest.failf "sieve/%s: %a" (Chf.Phases.name ordering)
          Diff_check.pp_failure f)
    Chf.Phases.all

(* ---- chaos: every fault class must be detected ------------------------ *)

let test_chaos_all_faults_detected () =
  let w = Option.get (Micro.by_name "sieve") in
  let c = Pipeline.compile ~backend:false Chf.Phases.Iupo_merged w in
  List.iter
    (fun seed ->
      let outcomes =
        Chaos.run_suite ~seed ~registers:c.Pipeline.registers
          ~fresh_memory:(fun () -> Workload.memory w)
          c.Pipeline.cfg
      in
      check Alcotest.int
        (Fmt.str "all fault classes injected (seed %d)" seed)
        (List.length Chaos.all_faults) (List.length outcomes);
      List.iter
        (fun o ->
          check Alcotest.bool
            (Fmt.str "%s detected (seed %d)" (Chaos.fault_name o.Chaos.o_fault) seed)
            true
            (o.Chaos.o_detection <> None))
        outcomes)
    [ 7; 42; 1234 ]

(* Every chaos class must not only be detected but produce a *distinct*
   structured failure: the triage fingerprint (verifier constructor,
   Over_budget refined by axes, or the detection kind) names the fault
   class that caused it.  Classes whose detection depends on the random
   injection site (a corrupted value may diverge or crash) list every
   admissible fingerprint; the single-fingerprint classes must be
   pairwise distinct. *)
let chaos_fingerprint (o : Chaos.outcome) =
  match o.Chaos.o_detection with
  | None -> "undetected"
  | Some (Chaos.Structural v) ->
    "structural:" ^ Trips_fuzz.Triage.of_violations [ v ]
  | Some (Chaos.Behavioral _) -> "behavioral:diverged"
  | Some (Chaos.Crashed _) -> "crashed"
  | Some (Chaos.Hung { reason = Trips_obs.Watchdog.Fuel _; _ }) -> "hung:fuel"
  | Some (Chaos.Hung { reason = Trips_obs.Watchdog.Deadline _; _ }) ->
    "hung:deadline"

let test_chaos_classes_distinct () =
  let w = Option.get (Micro.by_name "sieve") in
  let c = Pipeline.compile ~backend:false Chf.Phases.Iupo_merged w in
  let outcomes =
    Chaos.run_suite ~seed:42 ~registers:c.Pipeline.registers
      ~fresh_memory:(fun () -> Workload.memory w)
      c.Pipeline.cfg
  in
  check Alcotest.int "every fault class reachable"
    (List.length Chaos.all_faults) (List.length outcomes);
  let expected =
    [
      (Chaos.Drop_entry, [ "structural:missing-entry" ]);
      (Chaos.Dangle_edge, [ "structural:dangling-edge" ]);
      (Chaos.Strip_exits, [ "structural:no-exit" ]);
      (Chaos.Double_unguarded, [ "structural:multi-unguarded" ]);
      (Chaos.Clone_instr_id, [ "structural:dup-instr-id" ]);
      ( Chaos.Undefined_use,
        [ "structural:undefined-use"; "structural:undefined-guard" ] );
      (Chaos.Corrupt_predicate, [ "behavioral:diverged"; "crashed" ]);
      (Chaos.Oversubscribe_loads, [ "structural:over-budget[ls]" ]);
      (Chaos.Orphan_block, [ "structural:unreachable" ]);
      (Chaos.Corrupt_arithmetic, [ "behavioral:diverged"; "crashed" ]);
      (Chaos.Stall_spin, [ "hung:fuel"; "hung:deadline" ]);
      (Chaos.Alloc_spike, [ "structural:over-budget[instrs]" ]);
    ]
  in
  List.iter
    (fun (o : Chaos.outcome) ->
      let fp = chaos_fingerprint o in
      let allowed = List.assoc o.Chaos.o_fault expected in
      check Alcotest.bool
        (Fmt.str "%s -> %s (allowed: %s)"
           (Chaos.fault_name o.Chaos.o_fault)
           fp
           (String.concat " | " allowed))
        true (List.mem fp allowed))
    outcomes;
  let deterministic =
    List.filter_map
      (fun (_, fps) -> match fps with [ fp ] -> Some fp | _ -> None)
      expected
  in
  check Alcotest.int "single-fingerprint classes pairwise distinct"
    (List.length deterministic)
    (List.length (List.sort_uniq compare deterministic))

let test_chaos_deterministic () =
  let w = Option.get (Micro.by_name "vadd") in
  let c = Pipeline.compile ~backend:false Chf.Phases.Iupo_merged w in
  let run () =
    Chaos.run_suite ~seed:99 ~registers:c.Pipeline.registers
      ~fresh_memory:(fun () -> Workload.memory w)
      c.Pipeline.cfg
    |> List.map (fun o -> (Chaos.fault_name o.Chaos.o_fault, o.Chaos.o_note))
  in
  check
    Alcotest.(list (pair string string))
    "same seed, same injections" (run ()) (run ())

(* ---- sweep resilience ------------------------------------------------- *)

(* A workload binding a parameter the program does not declare fails in
   lowering; the sweep must complete and report it, not abort. *)
let poisoned () =
  let w = Option.get (Micro.by_name "vadd") in
  { w with Workload.name = "poisoned"; args = [ ("no_such_param", 1) ] }

let test_sweep_survives_poisoned_workload () =
  let good = Option.get (Micro.by_name "sieve") in
  let outcome = Table1.run ~workloads:[ poisoned (); good ] () in
  check Alcotest.int "good row survives" 1 (List.length outcome.Table1.rows);
  check Alcotest.bool "failure recorded" true (outcome.Table1.failures <> []);
  let f = List.hd outcome.Table1.failures in
  check Alcotest.string "names the workload" "poisoned" f.Pipeline.fail_workload;
  check Alcotest.string "names the phase" "lower" f.Pipeline.fail_phase;
  (* rendering the partial table must not raise *)
  ignore (Fmt.str "%a" Table1.render outcome)

(* Every registered experiment and the report share Sweep's failure
   collection: the poisoned row becomes one footer line and the healthy
   row still renders. *)
let test_every_experiment_survives_poisoned_workload () =
  let ws = [ poisoned (); Option.get (Micro.by_name "vadd") ] in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let check_rendered name (text, failures) =
    match failures with
    | [ f ] ->
      check Alcotest.string (name ^ ": names the workload") "poisoned"
        f.Pipeline.fail_workload;
      check Alcotest.string (name ^ ": names the phase") "lower" f.Pipeline.fail_phase;
      check Alcotest.bool (name ^ ": renders the healthy row") true (contains text "vadd");
      check Alcotest.bool (name ^ ": renders the footer") true
        (contains text
           (Fmt.str "1 failure(s):\n  %a\n" Pipeline.pp_failure f))
    | fs -> Alcotest.failf "%s: %d failures, expected 1" name (List.length fs)
  in
  List.iter
    (fun (e : Experiment.t) ->
      check_rendered e.Experiment.name
        (e.Experiment.render ~cache:(Stage.create ()) ~jobs:1 ws))
    Experiment.all;
  let o = Reporter.run ~jobs:1 ~workloads:ws () in
  check_rendered "report" (Fmt.str "%a" Reporter.render o, o.Reporter.failures)

let test_poisoned_failure_names_lower () =
  let w = poisoned () in
  match Pipeline.compile ~backend:false Chf.Phases.Iupo_merged w with
  | _ -> Alcotest.fail "expected a failure report"
  | exception e ->
    let f = Pipeline.failure_of_exn ~workload:w ~ordering:(Some Chf.Phases.Iupo_merged) e in
    check Alcotest.string "workload" "poisoned" f.Pipeline.fail_workload;
    check Alcotest.string "phase" "lower" f.Pipeline.fail_phase;
    check Alcotest.bool "reason mentions the parameter" true
      (let s = f.Pipeline.fail_reason in
       let n = String.length "no_such_param" in
       let rec go i =
         i + n <= String.length s
         && (String.sub s i n = "no_such_param" || go (i + 1))
       in
       go 0)

let test_verify_against_structured_payload () =
  let w = Option.get (Micro.by_name "sieve") in
  let bb = Pipeline.compile ~backend:false Chf.Phases.Basic_blocks w in
  let baseline = Pipeline.run_functional bb in
  let c = Pipeline.compile ~backend:false Chf.Phases.Iupo_merged w in
  (* corrupt one store's value; verify_against must name the workload and
     ordering in its payload *)
  let cfg = c.Pipeline.cfg in
  Cfg.iter_blocks
    (fun b ->
      let instrs =
        List.map
          (fun (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Store (_, a, off) ->
              { i with Instr.op = Instr.Store (Instr.Imm 4242, a, off) }
            | _ -> i)
          b.Block.instrs
      in
      Cfg.set_block cfg { b with Block.instrs })
    cfg;
  match Pipeline.verify_against ~baseline c with
  | _ -> Alcotest.fail "expected Miscompiled"
  | exception Pipeline.Miscompiled d ->
    check Alcotest.string "payload names workload" "sieve" d.Pipeline.div_workload;
    check Alcotest.bool "payload names ordering" true
      (d.Pipeline.div_ordering = Chf.Phases.Iupo_merged);
    check Alcotest.bool "checksums differ" true (d.Pipeline.div_got <> d.Pipeline.div_expected)

let suite =
  ( "verify",
    [
      Alcotest.test_case "clean CFG" `Quick test_clean_cfg;
      Alcotest.test_case "missing entry" `Quick test_missing_entry;
      Alcotest.test_case "no exit" `Quick test_no_exit;
      Alcotest.test_case "multiple unguarded exits" `Quick test_multiple_unguarded;
      Alcotest.test_case "dangling edge" `Quick test_dangling_edge;
      Alcotest.test_case "unreachable block" `Quick test_unreachable_block;
      Alcotest.test_case "duplicate instruction id" `Quick test_duplicate_instr_id;
      Alcotest.test_case "undefined use + params" `Quick test_undefined_use_and_params;
      Alcotest.test_case "over budget" `Quick test_over_budget;
      Alcotest.test_case "check_exn and dot dump" `Quick test_check_exn_and_dot_dump;
      prop_random_cfgs_clean;
      Alcotest.test_case "split preserves invariants" `Quick
        test_split_preserves_invariants;
      Alcotest.test_case "loop transforms preserve invariants" `Quick
        test_loop_transforms_preserve_invariants;
      prop_diff_check_random_programs;
      Alcotest.test_case "diff check, all orderings" `Slow
        test_diff_check_all_orderings_sieve;
      Alcotest.test_case "chaos: all faults detected" `Slow
        test_chaos_all_faults_detected;
      Alcotest.test_case "chaos: deterministic" `Quick test_chaos_deterministic;
      Alcotest.test_case "chaos: classes distinct" `Slow
        test_chaos_classes_distinct;
      Alcotest.test_case "sweep survives poisoned workload" `Quick
        test_sweep_survives_poisoned_workload;
      Alcotest.test_case "every experiment and the report survive poisoned"
        `Quick test_every_experiment_survives_poisoned_workload;
      Alcotest.test_case "failure_of_exn reports poisoned" `Quick
        test_poisoned_failure_names_lower;
      Alcotest.test_case "verify_against structured payload" `Quick
        test_verify_against_structured_payload;
    ] )
