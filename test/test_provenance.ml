(* Provenance and attribution tests: lineage stamping at lowering,
   retagging through formation's duplicating transforms, the decision
   log, the cycle-attribution partition invariants, report determinism
   across --jobs, and the store-dense kernels end to end. *)

open Trips_ir
open Trips_harness

let check = Alcotest.check

let workload name = Option.get (Trips_workloads.Micro.by_name name)

let all_instrs cfg =
  List.concat_map (fun b -> b.Block.instrs) (Cfg.blocks cfg)

let classes_of cfg =
  List.sort_uniq compare
    (List.map (fun i -> Lineage.class_name i.Instr.lineage) (all_instrs cfg))

(* Lowering stamps every instruction with its origin block and the
   Original placement. *)
let test_lower_stamps_origins () =
  let cfg, _ = Pipeline.lower_workload (workload "sieve") in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          check Alcotest.int
            (Fmt.str "origin of i%d is its block" i.Instr.id)
            b.Block.id i.Instr.lineage.Lineage.origin;
          check Alcotest.string "placement is Original" "original"
            (Lineage.class_name i.Instr.lineage))
        b.Block.instrs)
    cfg

(* Formation retags merged-in copies: a formed sieve must contain
   if-converted, duplicated and helper instructions, every one still
   naming a real origin block, and the surviving hyperblocks carry a
   step-numbered decision log. *)
let test_formation_retags () =
  let c = Pipeline.compile ~backend:false Chf.Phases.Iupo_merged (workload "sieve") in
  let cfg = c.Pipeline.cfg in
  let cls = classes_of cfg in
  check Alcotest.bool "if-converted instructions present" true
    (List.mem "if_conv" cls);
  check Alcotest.bool "duplicated instructions present" true
    (List.mem "tail_dup" cls || List.mem "unroll" cls || List.mem "peel" cls);
  check Alcotest.bool "predication helpers tagged" true
    (List.mem "helper" cls);
  check Alcotest.bool "no instruction lost its lineage" false
    (List.mem "unknown" cls);
  List.iter
    (fun i ->
      check Alcotest.bool "origin names a block id" true
        (i.Instr.lineage.Lineage.origin >= 0))
    (all_instrs cfg);
  (* at least one hyperblock has a decision log, and steps count 1..n *)
  let logged =
    List.filter_map
      (fun b ->
        match Cfg.decisions cfg b.Block.id with [] -> None | ds -> Some ds)
      (Cfg.blocks cfg)
  in
  check Alcotest.bool "some block has formation decisions" true (logged <> []);
  List.iter
    (fun ds ->
      List.iteri
        (fun idx d ->
          check Alcotest.int "decision steps are 1..n in order" (idx + 1)
            d.Lineage.d_step)
        ds)
    logged

(* Cfg.copy preserves both the per-instruction tags and the decision
   log (trial-install snapshots must not strip provenance). *)
let test_lineage_survives_copy () =
  let c = Pipeline.compile ~backend:false Chf.Phases.Iupo_merged (workload "gzip_1") in
  let cfg = c.Pipeline.cfg in
  let dup = Cfg.copy cfg in
  check
    Alcotest.(list string)
    "instruction classes survive copy" (classes_of cfg) (classes_of dup);
  List.iter
    (fun b ->
      check
        Alcotest.(list string)
        "decision log survives copy"
        (List.map Lineage.describe_decision (Cfg.decisions cfg b.Block.id))
        (List.map Lineage.describe_decision (Cfg.decisions dup b.Block.id)))
    (Cfg.blocks cfg)

(* Attribution partitions: per block, the lineage-class fetch counts sum
   to the block's fetched slots (and likewise fired); per function, the
   per-block cycles sum to the run total. *)
let test_attribution_partitions () =
  let r =
    Reporter.report_workload ~ordering:Chf.Phases.Iupo_merged (workload "sieve")
  in
  check Alcotest.bool "some block executed" true
    (List.exists (fun b -> b.Trips_obs.Report.execs > 0) r.Trips_obs.Report.blocks);
  List.iter
    (fun b ->
      let open Trips_obs.Report in
      let sum f = List.fold_left (fun acc c -> acc + f c) 0 b.classes in
      check Alcotest.int
        (Fmt.str "b%d: class fetch counts partition fetched slots" b.block)
        b.fetched
        (sum (fun c -> c.cc_fetched));
      check Alcotest.int
        (Fmt.str "b%d: class fired counts partition fired slots" b.block)
        b.fired
        (sum (fun c -> c.cc_fired));
      check Alcotest.bool "fired never exceeds fetched" true
        (b.fired <= b.fetched))
    r.Trips_obs.Report.blocks;
  check Alcotest.int "per-block cycles partition the run total"
    r.Trips_obs.Report.total_cycles
    (List.fold_left
       (fun acc b -> acc + b.Trips_obs.Report.cycles)
       0 r.Trips_obs.Report.blocks)

(* Acceptance: the rendered report and its JSON are byte-identical at
   any --jobs setting, and the JSON passes a syntax check. *)
let test_report_jobs_invariant () =
  let ws =
    List.filter_map Trips_workloads.Micro.by_name [ "sieve"; "vadd"; "gzip_1" ]
  in
  let run jobs =
    let o = Reporter.run ~jobs ~workloads:ws () in
    check Alcotest.int "no failures" 0 (List.length o.Reporter.failures);
    ( Fmt.str "%a" Reporter.render o,
      Trips_obs.Report.to_json o.Reporter.reports )
  in
  let t1, j1 = run 1 in
  let t4, j4 = run 4 in
  check Alcotest.string "text report identical across -j 1 / -j 4" t1 t4;
  check Alcotest.string "json report identical across -j 1 / -j 4" j1 j4

(* The store-dense kernels compile correctly end to end. *)
let test_store_dense_verified () =
  List.iter
    (fun w ->
      let bb = Pipeline.compile ~backend:true Chf.Phases.Basic_blocks w in
      let baseline = Pipeline.run_functional bb in
      let c = Pipeline.compile ~backend:true Chf.Phases.Iupo_merged w in
      ignore (Pipeline.verify_against ~baseline c))
    Trips_workloads.Micro.store_dense

let suite =
  ( "provenance",
    [
      Alcotest.test_case "lowering stamps origins" `Quick
        test_lower_stamps_origins;
      Alcotest.test_case "formation retags copies" `Quick test_formation_retags;
      Alcotest.test_case "lineage survives Cfg.copy" `Quick
        test_lineage_survives_copy;
      Alcotest.test_case "attribution partitions totals" `Quick
        test_attribution_partitions;
      Alcotest.test_case "report invariant across --jobs" `Quick
        test_report_jobs_invariant;
      Alcotest.test_case "store-dense kernels verified" `Quick
        test_store_dense_verified;
    ] )
