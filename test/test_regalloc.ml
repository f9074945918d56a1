(* Tests for the back end: register allocation (correctness, precoloring,
   bank budgets), fanout insertion (target budgets, semantics) and reverse
   if-conversion (block splitting). *)

open Trips_ir
open Trips_analysis
open Trips_regalloc

let check = Alcotest.check

let compile_through_backend name ordering =
  let w = Option.get (Trips_workloads.Micro.by_name name) in
  let baseline = Generators.baseline_of w in
  let c = Trips_harness.Pipeline.compile ~backend:true ordering w in
  let r = Trips_harness.Pipeline.run_functional c in
  (w, c, baseline, r)

let test_backend_preserves_semantics () =
  List.iter
    (fun name ->
      let _, _, baseline, r =
        compile_through_backend name Chf.Phases.Iupo_merged
      in
      check Alcotest.int (name ^ " checksum")
        baseline.Trips_sim.Func_sim.checksum r.Trips_sim.Func_sim.checksum)
    [ "sieve"; "matrix_1"; "bzip2_3"; "dhry"; "gzip_2"; "twolf_3" ]

let test_cross_block_values_architectural () =
  (* after allocation, every register live across a block boundary is an
     architectural register *)
  List.iter
    (fun name ->
      let _, c, _, _ = compile_through_backend name Chf.Phases.Iupo_merged in
      let cfg = c.Trips_harness.Pipeline.cfg in
      let live = Liveness.compute cfg in
      List.iter
        (fun id ->
          IntSet.iter
            (fun r ->
              check Alcotest.bool
                (Fmt.str "%s: r%d live at b%d boundary is architectural" name r id)
                true (Machine.is_arch r))
            (Liveness.live_in live id))
        (Cfg.block_ids cfg))
    [ "sieve"; "matrix_1"; "parser_1" ]

let test_bank_budgets_respected () =
  List.iter
    (fun name ->
      let _, c, _, _ = compile_through_backend name Chf.Phases.Iupo_merged in
      let viols =
        Reg_alloc.violations (Chf.Constraints.scan c.Trips_harness.Pipeline.cfg)
      in
      check Alcotest.int (name ^ " bank violations") 0 (List.length viols))
    [ "sieve"; "matrix_1"; "dhry"; "parser_1" ]

let count_consumers (b : Block.t) =
  (* per-definition consumer counts within the block, as fanout sees
     them: for each instruction, the instructions after it reading its
     definition up to the next redefinition (0 when it defines nothing) *)
  let rec walk = function
    | [] -> []
    | (i : Instr.t) :: rest ->
      let count d =
        let rec scan n = function
          | [] -> n
          | (j : Instr.t) :: tail ->
            let n = if List.mem d (Instr.uses j) then n + 1 else n in
            if List.mem d (Instr.defs j) then n else scan n tail
        in
        scan 0 rest
      in
      (match Instr.defs i with d :: _ -> count d | [] -> 0) :: walk rest
  in
  walk b.Block.instrs

let test_fanout_target_budget () =
  let _, c, _, _ = compile_through_backend "matrix_1" Chf.Phases.Iupo_merged in
  let cfg = c.Trips_harness.Pipeline.cfg in
  Cfg.iter_blocks
    (fun b ->
      List.iter2
        (fun (i : Instr.t) n ->
          check Alcotest.bool
            (Fmt.str "b%d: %a has %d intra-block consumers" b.Block.id Instr.pp i n)
            true
            (n <= Machine.max_targets))
        b.Block.instrs (count_consumers b))
    cfg

let test_fanout_semantics_on_wide_value () =
  (* one producer, many consumers: fanout must not change results *)
  let cfg = Cfg.create () in
  let b0 = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- b0;
  let x = 1024 in
  let producer = Cfg.instr cfg (Instr.Mov (x, Instr.Imm 3)) in
  let consumers =
    List.init 9 (fun k ->
        Cfg.instr cfg
          (Instr.Store (Instr.Reg x, Instr.Imm k, 0)))
  in
  Cfg.set_block cfg
    (Block.make b0 (producer :: consumers)
       [ { Block.eguard = None; target = Block.Ret None } ]);
  Cfg.validate cfg;
  let run () =
    let memory = Array.make 16 0 in
    ignore (Trips_sim.Func_sim.run ~memory cfg);
    Array.to_list memory
  in
  let before = run () in
  let added = Fanout.run cfg in
  Cfg.validate cfg;
  check Alcotest.bool "movs inserted" true (added > 0);
  check Alcotest.(list int) "stores unchanged" before (run ())

let test_split_block () =
  let cfg = Cfg.create () in
  let b0 = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- b0;
  let instrs =
    List.init 6 (fun k -> Cfg.instr cfg (Instr.Store (Instr.Imm k, Instr.Imm k, 0)))
  in
  Cfg.set_block cfg
    (Block.make b0 instrs [ { Block.eguard = None; target = Block.Ret None } ]);
  let run () =
    let memory = Array.make 8 0 in
    ignore (Trips_sim.Func_sim.run ~memory cfg);
    Array.to_list memory
  in
  let before = run () in
  (match Reverse_if_convert.split_block cfg b0 with
  | Some new_id ->
    check Alcotest.bool "new block exists" true (Cfg.mem cfg new_id);
    check Alcotest.int "halves" 3 (Block.size (Cfg.block cfg b0));
    check Alcotest.int "halves'" 3 (Block.size (Cfg.block cfg new_id))
  | None -> Alcotest.fail "split refused");
  Cfg.validate cfg;
  check Alcotest.(list int) "semantics preserved" before (run ())

let test_split_refuses_tiny () =
  let cfg = Cfg.create () in
  let b0 = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- b0;
  Cfg.set_block cfg
    (Block.make b0
       [ Cfg.instr cfg (Instr.Mov (1024, Instr.Imm 1)) ]
       [ { Block.eguard = None; target = Block.Ret None } ]);
  check Alcotest.(option int) "refuses one-instruction block" None
    (Reverse_if_convert.split_block cfg b0)

let test_precolored_second_round () =
  (* run RA, split a block, run RA again: new boundary values must avoid
     the already-assigned architectural registers *)
  let w = Option.get (Trips_workloads.Micro.by_name "dhry") in
  let baseline = Generators.baseline_of w in
  let profile, _ = Trips_harness.Pipeline.profile_workload w in
  let cfg, registers = Trips_harness.Pipeline.lower_workload w in
  Trips_opt.Optimizer.optimize_cfg cfg;
  ignore (Chf.Formation.run Chf.Policy.edge_default cfg profile);
  let res1 = Reg_alloc.run cfg in
  (* split the biggest block to create new cross-block values *)
  let biggest =
    List.fold_left
      (fun acc id ->
        match acc with
        | Some b when Block.size (Cfg.block cfg b) >= Block.size (Cfg.block cfg id) -> acc
        | _ -> Some id)
      None (Cfg.block_ids cfg)
  in
  (match biggest with
  | Some id -> ignore (Reverse_if_convert.split_block cfg id)
  | None -> ());
  let res2 = Reg_alloc.run cfg in
  Cfg.validate cfg;
  let mapping r =
    IntMap.find_or ~default:r r
      (IntMap.union (fun _ a _ -> Some a) res2.Reg_alloc.mapping res1.Reg_alloc.mapping)
  in
  let registers = List.map (fun (r, v) -> (mapping (IntMap.find_or ~default:r r res1.Reg_alloc.mapping), v)) registers in
  let memory = Trips_workloads.Workload.memory w in
  let r = Trips_sim.Func_sim.run ~registers ~memory cfg in
  check Alcotest.int "two-round allocation preserves semantics"
    baseline.Trips_sim.Func_sim.checksum r.Trips_sim.Func_sim.checksum

(* ---- the back end against its references ------------------------------ *)

(* Every formed cell the references are checked on: each micro kernel
   (the paper's 24 and the store-dense ones) under BB and the Table 1
   orderings, under each block-selection policy, formed without the
   back end. *)
let formed_cells =
  lazy
    (let cache = Trips_harness.Stage.create () in
     List.concat_map
       (fun (w : Trips_workloads.Workload.t) ->
         List.concat_map
           (fun policy ->
             let config = Result.get_ok (Trips_serve.Worker.policy_of_name policy) in
             List.map
               (fun ordering ->
                 let c =
                   Trips_harness.Pipeline.compile ~cache ~config ~backend:false ordering w
                 in
                 ( Fmt.str "%s %s %s" w.Trips_workloads.Workload.name
                     (Chf.Phases.name ordering) policy,
                   c.Trips_harness.Pipeline.cfg ))
               (Chf.Phases.Basic_blocks :: Chf.Phases.table_orderings))
           [ "bf"; "df"; "vliw" ])
       (Trips_workloads.Micro.all @ Trips_workloads.Micro.store_dense))

let mapping_t =
  Alcotest.testable
    (Fmt.Dump.list (Fmt.Dump.pair Fmt.int Fmt.int) |> Fmt.using IntMap.bindings)
    (IntMap.equal Int.equal)

(* The row allocator assigns exactly the clique allocator's colors. *)
let allocation_agrees label cfg =
  let expected = Regalloc_oracle.mapping cfg in
  let got = (Reg_alloc.run (Cfg.copy cfg)).Reg_alloc.mapping in
  check mapping_t (label ^ ": mapping") expected got

let test_allocation_oracle () =
  List.iter (fun (label, cfg) -> allocation_agrees label cfg) (Lazy.force formed_cells)

(* After round 1's allocation, the one scan [Backend.offenders] reads
   must name the blocks [Constraints.over_budget] names and the bank
   violations the per-block reference recomputes.  Returns whether the
   round found bank violations and whether it found blocks over budget:
   either makes the cell need a second allocation round. *)
let scan_agrees label cfg =
  let cfg = Cfg.copy cfg in
  ignore (Reg_alloc.run cfg);
  let bank, over = Backend.offenders cfg in
  check
    Alcotest.(list int)
    (label ^ ": over-budget blocks")
    (List.map fst (Chf.Constraints.over_budget Chf.Constraints.trips_limits cfg))
    over;
  check
    Alcotest.(list (triple int int int))
    (label ^ ": bank violations")
    (Regalloc_oracle.bank_violations cfg)
    (List.map
       (fun (v : Reg_alloc.violation) ->
         (v.Reg_alloc.block, v.Reg_alloc.reads_over, v.Reg_alloc.writes_over))
       bank);
  (bank <> [], over <> [])

(* Ten values precolored into bank 0 cross one boundary: the writing
   block breaks the bank's write budget and the reading block its read
   budget.  No micro cell breaks a bank budget in round 1. *)
let bank_bound_cfg () =
  let cfg = Cfg.create ~name:"bank0" () in
  let b0 = Cfg.fresh_block_id cfg in
  let b1 = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- b0;
  let regs = List.init 10 (fun k -> k * Machine.num_banks) in
  Cfg.set_block cfg
    (Block.make b0
       (List.mapi (fun k r -> Cfg.instr cfg (Instr.Mov (r, Instr.Imm k))) regs)
       [ { Block.eguard = None; target = Block.Goto b1 } ]);
  Cfg.set_block cfg
    (Block.make b1
       (List.mapi
          (fun k r -> Cfg.instr cfg (Instr.Store (Instr.Reg r, Instr.Imm k, 0)))
          regs)
       [ { Block.eguard = None; target = Block.Ret None } ]);
  Cfg.validate cfg;
  cfg

let test_scan_oracle () =
  let cells = ("bank0", bank_bound_cfg ()) :: Lazy.force formed_cells in
  let found = List.map (fun (label, cfg) -> scan_agrees label cfg) cells in
  let count f = List.length (List.filter f found) in
  check Alcotest.bool
    (Fmt.str "%d of %d cells need a second allocation round for their budgets"
       (count snd) (List.length cells))
    true
    (count snd > 0);
  check Alcotest.bool
    (Fmt.str "%d of %d cells need one for their banks" (count fst) (List.length cells))
    true
    (count fst > 0)

(* The counting pass's per-definition counts are the quadratic rescan's. *)
let counts_agree label cfg =
  Cfg.iter_blocks
    (fun b ->
      check
        Alcotest.(list int)
        (Fmt.str "%s: b%d consumer counts" label b.Block.id)
        (count_consumers b)
        (Array.to_list (Fanout.consumers b)))
    cfg

let test_fanout_counts () =
  List.iter (fun (label, cfg) -> counts_agree label cfg) (Lazy.force formed_cells)

let references_random_programs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"back end = references (random programs)" ~count:25
       ~print:Generators.print_workload Generators.random_program_gen
       (fun w ->
         let cfg =
           (Trips_harness.Pipeline.compile ~backend:false Chf.Phases.Iupo_merged w)
             .Trips_harness.Pipeline.cfg
         in
         let label = w.Trips_workloads.Workload.name in
         allocation_agrees label cfg;
         ignore (scan_agrees label cfg);
         counts_agree label cfg;
         true))

(* 129 values live across one boundary: one more than there are
   architectural registers.  The back end fails through its one failure
   path, which the pipeline classifies as a compile failure. *)
let test_out_of_registers () =
  let cfg = Cfg.create ~name:"wide" () in
  let b0 = Cfg.fresh_block_id cfg in
  let b1 = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- b0;
  let values = List.init 129 (fun _ -> Cfg.fresh_reg cfg) in
  Cfg.set_block cfg
    (Block.make b0
       (List.mapi (fun k r -> Cfg.instr cfg (Instr.Mov (r, Instr.Imm k))) values)
       [ { Block.eguard = None; target = Block.Goto b1 } ]);
  Cfg.set_block cfg
    (Block.make b1
       (List.mapi
          (fun k r -> Cfg.instr cfg (Instr.Store (Instr.Reg r, Instr.Imm k, 0)))
          values)
       [ { Block.eguard = None; target = Block.Ret None } ]);
  Cfg.validate cfg;
  let w = Option.get (Trips_workloads.Micro.by_name "sieve") in
  match Backend.run cfg with
  | _ -> Alcotest.fail "129 interfering values were allocated"
  | exception e ->
    let f =
      Trips_harness.Pipeline.failure_of_exn ~workload:w
        ~ordering:(Some Chf.Phases.Basic_blocks) e
    in
    check Alcotest.string "phase" "compile" f.Trips_harness.Pipeline.fail_phase;
    let prefix = "backend: wide: out of registers" in
    check Alcotest.string "reason" prefix
      (String.sub f.Trips_harness.Pipeline.fail_reason 0
         (min (String.length prefix) (String.length f.Trips_harness.Pipeline.fail_reason)))

let backend_random_programs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"full backend preserves random programs" ~count:25
       ~print:Generators.print_workload Generators.random_program_gen
       (fun w ->
         let baseline = Generators.baseline_of w in
         let c =
           Trips_harness.Pipeline.compile ~backend:true Chf.Phases.Iupo_merged w
         in
         let r = Trips_harness.Pipeline.run_functional c in
         r.Trips_sim.Func_sim.checksum = baseline.Trips_sim.Func_sim.checksum))

let test_tasm_emission () =
  let _, c, _, _ = compile_through_backend "gzip_1" Chf.Phases.Iupo_merged in
  let asm = Tasm.to_string c.Trips_harness.Pipeline.cfg in
  check Alcotest.bool "has block headers" true
    (String.length asm > 200
    && List.exists
         (fun line -> String.length line >= 7 && String.sub line 0 7 = ".bbegin")
         (String.split_on_char '\n' asm));
  (* block budget annotations present *)
  check Alcotest.bool "has budget comments" true
    (List.exists
       (fun line ->
         String.length line >= 5 && String.sub line 0 5 = ".bend")
       (String.split_on_char '\n' asm))

let test_dot_export () =
  let _, c, _, _ = compile_through_backend "sieve" Chf.Phases.Iupo_merged in
  let dot = Trips_ir.Dot.to_string c.Trips_harness.Pipeline.cfg in
  check Alcotest.bool "digraph wrapper" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  (* one node line per block *)
  let blocks = Trips_ir.Cfg.num_blocks c.Trips_harness.Pipeline.cfg in
  let node_lines =
    List.filter
      (fun l -> String.length l > 4 && String.sub l 0 3 = "  b"
                && String.contains l '[')
      (String.split_on_char '\n' dot)
  in
  check Alcotest.bool "node per block" true (List.length node_lines >= blocks)

let suite =
  ( "regalloc",
    [
      Alcotest.test_case "tasm emission" `Quick test_tasm_emission;
      Alcotest.test_case "dot export" `Quick test_dot_export;
      Alcotest.test_case "backend preserves semantics" `Quick
        test_backend_preserves_semantics;
      Alcotest.test_case "cross-block values architectural" `Quick
        test_cross_block_values_architectural;
      Alcotest.test_case "bank budgets" `Quick test_bank_budgets_respected;
      Alcotest.test_case "fanout target budget" `Quick test_fanout_target_budget;
      Alcotest.test_case "fanout semantics" `Quick test_fanout_semantics_on_wide_value;
      Alcotest.test_case "split block" `Quick test_split_block;
      Alcotest.test_case "split refuses tiny" `Quick test_split_refuses_tiny;
      Alcotest.test_case "precolored second round" `Quick test_precolored_second_round;
      backend_random_programs;
      Alcotest.test_case "allocation = clique oracle" `Quick test_allocation_oracle;
      Alcotest.test_case "one budget scan = references" `Quick test_scan_oracle;
      Alcotest.test_case "fanout counts = rescan" `Quick test_fanout_counts;
      references_random_programs;
      Alcotest.test_case "out of registers fails the compile" `Quick
        test_out_of_registers;
    ] )
