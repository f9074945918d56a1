(* Tests for convergent hyperblock formation: the constraint checker, the
   merge classification (Figure 5's case split), head duplication as
   peeling/unrolling, policies, and whole-CFG invariants. *)

open Trips_ir
open Trips_analysis

let check = Alcotest.check

(* ---- constraints -------------------------------------------------------- *)

let mkins =
  let c = ref 0 in
  fun ?guard op ->
    incr c;
    Instr.make ?guard !c op

let ret_exit = { Block.eguard = None; target = Block.Ret None }

let test_estimate_counts () =
  let g = { Instr.greg = 1; sense = true } in
  let b =
    Block.make 0
      [
        mkins (Instr.Load (10, Instr.Reg 2, 0));
        mkins (Instr.Store (Instr.Reg 10, Instr.Reg 2, 1));
        mkins ~guard:g (Instr.Mov (11, Instr.Imm 5));
      ]
      [ ret_exit ]
  in
  let live_out = IntSet.singleton 11 in
  let e = Chf.Constraints.estimate b ~live_out in
  check Alcotest.int "loads+stores" 2 e.Chf.Constraints.loads_stores;
  check Alcotest.int "writes (r11 live out)" 1 e.Chf.Constraints.writes;
  (* 3 instrs + 1 exit + 1 nullw for the guarded-only output r11 *)
  check Alcotest.int "instruction budget" 5 e.Chf.Constraints.instrs;
  check Alcotest.bool "reads include guard and address" true
    (e.Chf.Constraints.reads >= 2)

let test_legal_limits () =
  let limits = Chf.Constraints.trips_limits in
  let ok = { Chf.Constraints.instrs = 128; loads_stores = 32; reads = 32; writes = 32 } in
  check Alcotest.bool "at the limits" true (Chf.Constraints.legal limits ok);
  check Alcotest.bool "slack shrinks budget" false
    (Chf.Constraints.legal ~slack:1 limits ok);
  List.iter
    (fun e ->
      check Alcotest.bool "over some limit" false (Chf.Constraints.legal limits e))
    [
      { ok with Chf.Constraints.instrs = 129 };
      { ok with Chf.Constraints.loads_stores = 33 };
      { ok with Chf.Constraints.reads = 33 };
      { ok with Chf.Constraints.writes = 33 };
    ]

let test_fanout_estimate_grows () =
  (* a value consumed many times needs fanout movs in the estimate *)
  let uses =
    List.init 8 (fun k ->
        mkins (Instr.Binop (Opcode.Add, 20 + k, Instr.Reg 10, Instr.Imm k)))
  in
  let b =
    Block.make 0 (mkins (Instr.Mov (10, Instr.Imm 1)) :: uses) [ ret_exit ]
  in
  let e = Chf.Constraints.estimate b ~live_out:IntSet.empty in
  check Alcotest.bool "fanout movs counted" true
    (e.Chf.Constraints.instrs > 9 + 1)

(* ---- formation on kernels ---------------------------------------------- *)

let form workload_name config =
  let w = Option.get (Trips_workloads.Micro.by_name workload_name) in
  let profile, _ = Trips_harness.Pipeline.profile_workload w in
  let cfg, registers = Trips_harness.Pipeline.lower_workload w in
  Trips_opt.Optimizer.optimize_cfg cfg;
  let stats = Chf.Formation.run config cfg profile in
  (cfg, stats, registers, w)

let test_formation_preserves_each_kernel () =
  List.iter
    (fun name ->
      let w = Option.get (Trips_workloads.Micro.by_name name) in
      let baseline = Generators.baseline_of w in
      let cfg, _, registers, _ = form name Chf.Policy.edge_default in
      let memory = Trips_workloads.Workload.memory w in
      let r = Trips_sim.Func_sim.run ~registers ~memory cfg in
      check Alcotest.int
        (name ^ " checksum")
        baseline.Trips_sim.Func_sim.checksum r.Trips_sim.Func_sim.checksum)
    [ "sieve"; "gzip_1"; "bzip2_3"; "ammp_1"; "dhry" ]

let test_formed_blocks_respect_constraints () =
  List.iter
    (fun name ->
      let cfg, _, _, _ = form name Chf.Policy.edge_default in
      let live = Liveness.compute cfg in
      Cfg.iter_blocks
        (fun b ->
          let e =
            Chf.Constraints.estimate b
              ~live_out:(Liveness.live_out live b.Block.id)
          in
          check Alcotest.bool
            (Fmt.str "%s b%d within limits (%a)" name b.Block.id
               Chf.Constraints.pp_estimate e)
            true
            (Chf.Constraints.legal Chf.Constraints.trips_limits e))
        cfg)
    [ "sieve"; "gzip_1"; "matrix_1"; "parser_1"; "dhry" ]

let test_formation_reduces_blocks () =
  let w = Option.get (Trips_workloads.Micro.by_name "gzip_1") in
  let cfg0, _ = Trips_harness.Pipeline.lower_workload w in
  let before = Cfg.num_blocks cfg0 in
  let cfg, stats, _, _ = form "gzip_1" Chf.Policy.edge_default in
  check Alcotest.bool "blocks reduced" true (Cfg.num_blocks cfg < before);
  check Alcotest.bool "merges happened" true (stats.Chf.Formation.merges > 0)

let test_head_dup_unrolls_self_loop () =
  (* gzip_1's hot loop collapses into a self-loop block and then unrolls *)
  let cfg, stats, _, _ = form "vadd" Chf.Policy.edge_default in
  check Alcotest.bool "unrolled at least once" true (stats.Chf.Formation.unrolls > 0);
  let has_self_loop =
    List.exists (fun id -> List.mem id (Cfg.successors cfg id)) (Cfg.block_ids cfg)
  in
  check Alcotest.bool "self-loop block exists" true has_self_loop

let test_head_dup_disabled () =
  let config = { Chf.Policy.edge_default with Chf.Policy.enable_head_dup = false } in
  let _, stats, _, _ = form "vadd" config in
  check Alcotest.int "no unrolls" 0 stats.Chf.Formation.unrolls;
  check Alcotest.int "no peels" 0 stats.Chf.Formation.peels

let test_tail_dup_disabled () =
  let config = { Chf.Policy.edge_default with Chf.Policy.enable_tail_dup = false } in
  let _, stats, _, _ = form "bzip2_3" config in
  check Alcotest.int "no tail dups" 0 stats.Chf.Formation.tail_dups

let test_depth_first_tail_duplicates_merge_point () =
  (* the paper's bzip2_3 story: DF excludes the rare block, so the merge
     block holding the induction update is tail duplicated *)
  let df =
    {
      Chf.Policy.edge_default with
      Chf.Policy.heuristic = Chf.Policy.Depth_first { min_merge_prob = 0.12 };
    }
  in
  let _, df_stats, _, _ = form "bzip2_3" df in
  let _, bf_stats, _, _ = form "bzip2_3" Chf.Policy.edge_default in
  check Alcotest.bool "DF tail-duplicates" true
    (df_stats.Chf.Formation.tail_dups > 0);
  check Alcotest.bool "BF avoids duplication on the diamond" true
    (bf_stats.Chf.Formation.tail_dups <= df_stats.Chf.Formation.tail_dups)

let test_vliw_prepass_restricts () =
  (* VLIW's path pre-pass excludes parser_1's rare heavy paths, so the
     formed code keeps more (cold) blocks than breadth-first, which
     merges every path *)
  let vliw =
    {
      Chf.Policy.edge_default with
      Chf.Policy.heuristic = Chf.Policy.Vliw Chf.Policy.default_vliw;
    }
  in
  let vliw_cfg, _, _, _ = form "parser_1" vliw in
  let bf_cfg, _, _, _ = form "parser_1" Chf.Policy.edge_default in
  check Alcotest.bool "VLIW keeps at least as many blocks as BF" true
    (Trips_ir.Cfg.num_blocks vliw_cfg >= Trips_ir.Cfg.num_blocks bf_cfg)

(* formation must keep the strict exactly-one-exit invariant: strict
   interpretation of every formed kernel exercises it *)
let formation_keeps_exit_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"formation keeps strict exit invariant (random programs)"
       ~count:30 ~print:Generators.print_workload Generators.random_program_gen
       (fun w ->
         let baseline = Generators.baseline_of w in
         let profile, _ = Trips_harness.Pipeline.profile_workload w in
         let cfg, registers = Trips_harness.Pipeline.lower_workload w in
         Trips_opt.Optimizer.optimize_cfg cfg;
         ignore (Chf.Formation.run Chf.Policy.edge_default cfg profile);
         let memory = Trips_workloads.Workload.memory w in
         let r = Trips_sim.Func_sim.run ~strict_exits:true ~registers ~memory cfg in
         r.Trips_sim.Func_sim.checksum = baseline.Trips_sim.Func_sim.checksum))

(* peel statistics respect the trip-count gate *)
let test_peel_gated_by_trip_counts () =
  let config = { Chf.Policy.edge_default with Chf.Policy.peel_coverage = 1.1 } in
  (* coverage > 1 is unsatisfiable for any histogram: no peeling *)
  let _, stats, _, _ = form "ammp_1" config in
  check Alcotest.int "no peels at impossible coverage" 0 stats.Chf.Formation.peels

let test_unroll_capped () =
  (* the cap is per loop; vadd (front-end unrolled) has up to four loops *)
  let capped = { Chf.Policy.edge_default with Chf.Policy.max_unroll = 1 } in
  let _, stats1, _, _ = form "vadd" capped in
  let _, stats8, _, _ = form "vadd" Chf.Policy.edge_default in
  check Alcotest.bool "capped at one per loop" true
    (stats1.Chf.Formation.unrolls <= 4);
  check Alcotest.bool "higher cap unrolls more" true
    (stats8.Chf.Formation.unrolls >= stats1.Chf.Formation.unrolls)

let test_block_splitting_extension () =
  (* with a tight instruction budget, splitting lets part of a too-big
     candidate merge; semantics must be preserved either way *)
  let tight_limits =
    { Chf.Constraints.trips_limits with Chf.Constraints.max_instrs = 24 }
  in
  let base =
    { Chf.Policy.edge_default with Chf.Policy.limits = tight_limits; slack = 0 }
  in
  let with_split = { base with Chf.Policy.enable_block_splitting = true } in
  let w = Option.get (Trips_workloads.Micro.by_name "dhry") in
  let baseline = Generators.baseline_of w in
  List.iter
    (fun (label, config) ->
      let profile, _ = Trips_harness.Pipeline.profile_workload w in
      let cfg, registers = Trips_harness.Pipeline.lower_workload w in
      Trips_opt.Optimizer.optimize_cfg cfg;
      let stats = Chf.Formation.run config cfg profile in
      let memory = Trips_workloads.Workload.memory w in
      let r = Trips_sim.Func_sim.run ~registers ~memory cfg in
      check Alcotest.int (label ^ " semantics")
        baseline.Trips_sim.Func_sim.checksum r.Trips_sim.Func_sim.checksum;
      if label = "split" then
        check Alcotest.bool "splitting used" true
          (stats.Chf.Formation.block_splits > 0))
    [ ("nosplit", base); ("split", with_split) ]

(* ---- formation caches vs the audit ------------------------------------- *)

(* Run formation on a workload and capture everything observable: the
   final CFG (entry + every block record), the statistics, and the full
   sorted trace rendered to JSON. *)
let form_traced w =
  let profile, _ = Trips_harness.Pipeline.profile_workload w in
  let cfg, _ = Trips_harness.Pipeline.lower_workload w in
  Trips_opt.Optimizer.optimize_cfg cfg;
  let _ = Trips_obs.Trace.stop () in
  Trips_obs.Trace.start ();
  let stats = Chf.Formation.run Chf.Policy.edge_default cfg profile in
  let trace = List.map Trips_obs.Trace.to_json (Trips_obs.Trace.stop ()) in
  let blocks =
    List.map (Cfg.block cfg) (List.sort compare (Cfg.block_ids cfg))
  in
  ((cfg.Cfg.entry, blocks), stats, trace)

(* The contract formation's caches must honor (DESIGN.md §12): under
   [Formation.audit] every cached liveness, loop-forest and predecessor
   answer is checked against a from-scratch solve (a mismatch raises),
   yet the final CFG, the statistics and the byte-rendered trace are
   identical to an unaudited run — the caches are pure strength
   reductions, never behavior changes.  Besides the random programs the
   check covers the 24 kernels and the store-dense kernels. *)
let audit_agrees w =
  let plain = form_traced w in
  Chf.Formation.audit := true;
  Fun.protect
    ~finally:(fun () -> Chf.Formation.audit := false)
    (fun () -> form_traced w = plain)

let audit_is_output_invariant =
  let name, speed, random_programs =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"CHK fast paths are output-invariant (random programs)"
         ~count:20 ~print:Generators.print_workload
         Generators.random_program_gen audit_agrees)
  in
  ( name,
    speed,
    fun () ->
      List.iter
        (fun w ->
          if not (audit_agrees w) then
            Alcotest.failf "audited formation diverges on %s"
              w.Trips_workloads.Workload.name)
        (Trips_workloads.Micro.all @ Trips_workloads.Micro.store_dense);
      random_programs () )


(* ---- rollback of hidden state ------------------------------------------ *)

(* Regression for a trial-merge rollback gap: when a *failed* unroll was
   the attempt that re-saved the stale one-iteration body, rollback used
   to leave the re-saved body behind, so a later unroll duplicated a
   different (larger) body than a run that never made the failed attempt.
   Driving the same merge sequence with and without a chaos-failed unroll
   in the middle must produce bit-identical CFGs. *)
let rollback_cfg () =
  let cfg = Cfg.create ~name:"rollback" () in
  for _ = 0 to 2 do
    ignore (Cfg.fresh_block_id cfg)
  done;
  let g r sense = Some { Instr.greg = r; sense } in
  Cfg.set_block cfg
    (Block.make 0
       [
         Cfg.instr cfg (Instr.Binop (Opcode.Add, 1, Instr.Reg 1, Instr.Imm 1));
         Cfg.instr cfg (Instr.Cmp (Opcode.Lt, 2, Instr.Reg 1, Instr.Imm 3));
         Cfg.instr cfg (Instr.Cmp (Opcode.Lt, 3, Instr.Reg 1, Instr.Imm 6));
       ]
       [
         { Block.eguard = g 2 true; target = Block.Goto 0 };
         { Block.eguard = g 3 true; target = Block.Goto 1 };
         { Block.eguard = g 3 false; target = Block.Goto 2 };
       ]);
  Cfg.set_block cfg
    (Block.make 1
       [ Cfg.instr cfg (Instr.Mov (4, Instr.Imm 1)) ]
       [ { Block.eguard = None; target = Block.Goto 0 } ]);
  Cfg.set_block cfg
    (Block.make 2
       [ Cfg.instr cfg (Instr.Mov (5, Instr.Imm 7)) ]
       [ { Block.eguard = None; target = Block.Ret None } ]);
  cfg.Cfg.entry <- 0;
  Cfg.validate cfg;
  cfg

let test_failed_unroll_leaves_no_hidden_state () =
  let drive ~with_failed_unroll =
    let cfg = rollback_cfg () in
    let st =
      Chf.Formation.make Chf.Policy.edge_default cfg
        (Trips_profile.Profile.empty ())
    in
    let expect_success label outcome =
      match outcome with
      | Chf.Formation.Success _ -> ()
      | Chf.Formation.Structural_failure m ->
        Alcotest.failf "%s failed structurally: %s" label m
      | Chf.Formation.Size_rejected _ -> Alcotest.failf "%s size-rejected" label
    in
    (* 1: unroll saves the one-iteration body of b0 *)
    expect_success "unroll#1"
      (Chf.Formation.merge_blocks st ~hb_id:0 ~s_id:0 ~kind:Chf.Formation.Unroll);
    (* 2: merging b1 away makes that saved body stale (it targets b1) *)
    expect_success "simple b1"
      (Chf.Formation.merge_blocks st ~hb_id:0 ~s_id:1 ~kind:Chf.Formation.Simple);
    (* 3 (run A only): a chaos-failed unroll re-saves the body before
       failing; the rollback must restore the stale entry *)
    if with_failed_unroll then begin
      Chf.Formation.chaos_combine_failure :=
        Some (fun ~hb_id:_ ~s_id:_ ~kind:_ -> true);
      Fun.protect
        ~finally:(fun () -> Chf.Formation.chaos_combine_failure := None)
        (fun () ->
          match
            Chf.Formation.merge_blocks st ~hb_id:0 ~s_id:0
              ~kind:Chf.Formation.Unroll
          with
          | Chf.Formation.Structural_failure _ -> ()
          | _ -> Alcotest.fail "chaos-injected unroll should fail")
    end;
    (* 4: grow b0 (tail-dup keeps b2 alive), so the body a leaked step-3
       re-save captured differs from the body a fresh re-save captures *)
    expect_success "tail dup b2"
      (Chf.Formation.merge_blocks st ~hb_id:0 ~s_id:2
         ~kind:Chf.Formation.Tail_dup);
    (* 5: the next unroll re-saves from the current block either way *)
    expect_success "unroll#2"
      (Chf.Formation.merge_blocks st ~hb_id:0 ~s_id:0 ~kind:Chf.Formation.Unroll);
    ( cfg.Cfg.entry,
      List.map (Cfg.block cfg) (List.sort compare (Cfg.block_ids cfg)) )
  in
  let with_failure = drive ~with_failed_unroll:true in
  let without_failure = drive ~with_failed_unroll:false in
  check Alcotest.bool
    "failed unroll is invisible: both runs produce identical CFGs" true
    (with_failure = without_failure)

(* IUPO's unroll/peel step drives [merge_blocks] on a formation state of
   its own; its cache counters must reach the metrics like its attempts
   do, so [chfc compile -o iupo --metrics] accounts for every liveness
   read of those merges. *)
let test_iupo_publishes_cache_counters () =
  let w = Option.get (Trips_workloads.Micro.by_name "dct8x8") in
  let profile, _ = Trips_harness.Pipeline.profile_workload w in
  let cfg, _ = Trips_harness.Pipeline.lower_workload w in
  Trips_opt.Optimizer.optimize_cfg cfg;
  let config = Chf.Policy.edge_default in
  ignore
    (Chf.Formation.run
       { config with Chf.Policy.enable_head_dup = false; iterate_opt = false }
       cfg profile);
  let counter name =
    Trips_obs.Metrics.counter_value (Trips_obs.Metrics.snapshot ()) name
  in
  let attempts0 = counter "formation.attempts"
  and live0 = counter "formation.liveness.incremental" in
  Chf.Discrete_up.run_after_formation config cfg profile
    (Chf.Formation.empty_stats ());
  check Alcotest.bool "IUPO made at least two merge attempts" true
    (counter "formation.attempts" - attempts0 >= 2);
  check Alcotest.bool "IUPO's incremental liveness reads are published" true
    (counter "formation.liveness.incremental" > live0)

let suite =
  ( "formation",
    [
      Alcotest.test_case "IUPO publishes its cache counters" `Quick
        test_iupo_publishes_cache_counters;
      Alcotest.test_case "failed unroll leaves no hidden state" `Quick
        test_failed_unroll_leaves_no_hidden_state;
      Alcotest.test_case "block splitting extension" `Quick
        test_block_splitting_extension;
      Alcotest.test_case "estimate counts" `Quick test_estimate_counts;
      Alcotest.test_case "legal limits" `Quick test_legal_limits;
      Alcotest.test_case "fanout estimate" `Quick test_fanout_estimate_grows;
      Alcotest.test_case "kernels preserved" `Quick test_formation_preserves_each_kernel;
      Alcotest.test_case "constraints respected" `Quick
        test_formed_blocks_respect_constraints;
      Alcotest.test_case "blocks reduced" `Quick test_formation_reduces_blocks;
      Alcotest.test_case "head dup unrolls" `Quick test_head_dup_unrolls_self_loop;
      Alcotest.test_case "head dup disabled" `Quick test_head_dup_disabled;
      Alcotest.test_case "tail dup disabled" `Quick test_tail_dup_disabled;
      Alcotest.test_case "DF forces tail dup (bzip2_3)" `Quick
        test_depth_first_tail_duplicates_merge_point;
      Alcotest.test_case "VLIW prepass restricts" `Quick test_vliw_prepass_restricts;
      formation_keeps_exit_invariant;
      Alcotest.test_case "peel gated by trips" `Quick test_peel_gated_by_trip_counts;
      Alcotest.test_case "unroll capped" `Quick test_unroll_capped;
      audit_is_output_invariant;
    ] )
