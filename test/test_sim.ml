(* Tests for the simulators: functional interpreter semantics and
   invariants, the branch predictor, the cache model and the cycle-level
   timing model's sanity properties. *)

open Trips_ir
open Trips_sim

let check = Alcotest.check

(* ---- functional simulator ---------------------------------------------- *)

let single_block instrs exits =
  let cfg = Cfg.create () in
  let b0 = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- b0;
  Cfg.set_block cfg (Block.make b0 instrs exits);
  cfg

let mkins =
  let c = ref 0 in
  fun ?guard op ->
    incr c;
    Instr.make ?guard !c op

let test_guard_semantics () =
  let g = { Instr.greg = 1024; sense = true } in
  let cfg =
    single_block
      [
        mkins (Instr.Mov (1024, Instr.Imm 0));
        mkins ~guard:g (Instr.Mov (1025, Instr.Imm 7));  (* skipped *)
        mkins ~guard:{ g with Instr.sense = false } (Instr.Mov (1026, Instr.Imm 9));
      ]
      [ { Block.eguard = None; target = Block.Ret (Some (Instr.Reg 1026)) } ]
  in
  let r = Func_sim.run ~memory:(Array.make 4 0) cfg in
  check Alcotest.(option int) "false-guarded skipped, true-guarded ran" (Some 9)
    r.Func_sim.ret;
  check Alcotest.int "fired count excludes nullified" 2 r.Func_sim.instrs_executed;
  check Alcotest.int "fetched counts everything" 3 r.Func_sim.instrs_fetched

let test_exit_invariant_violation () =
  (* two unguardable-true exits: strict mode must fail *)
  let cfg =
    single_block
      [ mkins (Instr.Mov (1024, Instr.Imm 1)) ]
      [
        { Block.eguard = Some { Instr.greg = 1024; sense = true }; target = Block.Ret None };
        { Block.eguard = Some { Instr.greg = 1024; sense = true }; target = Block.Ret None };
      ]
  in
  check Alcotest.bool "strict mode raises" true
    (try
       ignore (Func_sim.run ~memory:(Array.make 4 0) cfg);
       false
     with Func_sim.Exit_invariant_violated _ -> true)

let test_no_exit_fires () =
  let cfg =
    single_block
      [ mkins (Instr.Mov (1024, Instr.Imm 0)) ]
      [
        { Block.eguard = Some { Instr.greg = 1024; sense = true }; target = Block.Ret None };
      ]
  in
  check Alcotest.bool "no exit raises" true
    (try
       ignore (Func_sim.run ~memory:(Array.make 4 0) cfg);
       false
     with Func_sim.Exit_invariant_violated _ -> true)

let test_fuel () =
  let cfg = Cfg.create () in
  let b0 = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- b0;
  Cfg.set_block cfg
    (Block.make b0
       [ mkins (Instr.Mov (1024, Instr.Imm 1)) ]
       [ { Block.eguard = None; target = Block.Goto b0 } ]);
  check Alcotest.bool "fuel exhaustion raises" true
    (try
       ignore (Func_sim.run ~fuel:100 ~memory:(Array.make 4 0) cfg);
       false
     with Func_sim.Out_of_fuel _ -> true)

let test_fuel_boundary () =
  (* fuel is the number of dynamic instructions the run may execute:
     a 3-instruction program completes under fuel=3 and raises under
     fuel=2 (the old spend-then-check order admitted only fuel-1) *)
  let mk () =
    single_block
      [
        mkins (Instr.Mov (1024, Instr.Imm 1));
        mkins (Instr.Mov (1025, Instr.Imm 2));
        mkins (Instr.Mov (1026, Instr.Imm 3));
      ]
      [ { Block.eguard = None; target = Block.Ret (Some (Instr.Reg 1026)) } ]
  in
  let r = Func_sim.run ~fuel:3 ~memory:(Array.make 4 0) (mk ()) in
  check Alcotest.(option int) "exactly enough fuel completes" (Some 3)
    r.Func_sim.ret;
  check Alcotest.bool "one unit short raises" true
    (try
       ignore (Func_sim.run ~fuel:2 ~memory:(Array.make 4 0) (mk ()));
       false
     with Func_sim.Out_of_fuel _ -> true)

let test_empty_memory () =
  (* semantics stay total on a zero-length memory: loads read 0, stores
     vanish, and the timing model charges no memory system *)
  let mk () =
    single_block
      [
        mkins (Instr.Store (Instr.Imm 42, Instr.Imm 3, 0));
        mkins (Instr.Load (1024, Instr.Imm 3, 0));
      ]
      [ { Block.eguard = None; target = Block.Ret (Some (Instr.Reg 1024)) } ]
  in
  let r = Func_sim.run ~memory:[||] (mk ()) in
  check Alcotest.(option int) "store vanished, load read 0" (Some 0)
    r.Func_sim.ret;
  let rc = Cycle_sim.run ~memory:[||] (mk ()) in
  check Alcotest.(option int) "cycle model agrees" (Some 0) rc.Cycle_sim.ret;
  check Alcotest.bool "no cache accesses charged" true
    (rc.Cycle_sim.cache_miss_rate = 0.0)

let test_memory_wrapping () =
  let cfg =
    single_block
      [
        mkins (Instr.Store (Instr.Imm 42, Instr.Imm (-1), 0));
        mkins (Instr.Load (1024, Instr.Imm 15, 0));
      ]
      [ { Block.eguard = None; target = Block.Ret (Some (Instr.Reg 1024)) } ]
  in
  let r = Func_sim.run ~memory:(Array.make 16 0) cfg in
  check Alcotest.(option int) "negative address wraps to top" (Some 42) r.Func_sim.ret

(* ---- register file and hook contract ----------------------------------- *)

let test_sparse_register_numbers () =
  (* corpus files can name any integer: a register near max_int and one
     far below it share one run, so the register file must be sized by
     the count of registers, not by their range *)
  let hi = max_int - 1 and lo = min_int + 1 in
  let cfg =
    single_block
      [
        mkins (Instr.Mov (hi, Instr.Imm 5));
        mkins (Instr.Mov (3, Instr.Imm 7));
        mkins (Instr.Binop (Opcode.Add, lo, Instr.Reg hi, Instr.Reg 3));
      ]
      [ { Block.eguard = None; target = Block.Ret (Some (Instr.Reg lo)) } ]
  in
  let r = Func_sim.run ~registers:[ (hi, 100) ] ~memory:(Array.make 4 0) cfg in
  check Alcotest.(option int) "sparse registers hold their values" (Some 12)
    r.Func_sim.ret

let test_unmentioned_parameter () =
  (* a preloaded register the CFG never mentions changes nothing *)
  let cfg =
    single_block
      [ mkins (Instr.Mov (1024, Instr.Imm 4)) ]
      [ { Block.eguard = None; target = Block.Ret (Some (Instr.Reg 1024)) } ]
  in
  let r =
    Func_sim.run ~registers:[ (max_int, 9); (77, 1) ] ~memory:(Array.make 4 0) cfg
  in
  check Alcotest.(option int) "unmentioned parameters are inert" (Some 4)
    r.Func_sim.ret

let test_unwritten_registers_read_zero () =
  (* never-written registers read 0: as an operand, as a guard, and as
     the returned value *)
  let cfg =
    single_block
      [
        mkins (Instr.Binop (Opcode.Add, 1024, Instr.Reg 4000, Instr.Imm 1));
        mkins
          ~guard:{ Instr.greg = 4001; sense = false }
          (Instr.Binop (Opcode.Add, 1024, Instr.Reg 1024, Instr.Reg 4002));
      ]
      [
        {
          Block.eguard = Some { Instr.greg = 4003; sense = false };
          target = Block.Ret (Some (Instr.Reg 1024));
        };
        {
          Block.eguard = Some { Instr.greg = 4003; sense = true };
          target = Block.Ret (Some (Instr.Reg 4004));
        };
      ]
  in
  let r = Func_sim.run ~memory:(Array.make 4 0) cfg in
  check Alcotest.(option int) "unwritten registers read 0" (Some 1) r.Func_sim.ret;
  check Alcotest.int "false-sense guard on an unwritten register fires" 2
    r.Func_sim.instrs_executed

let test_fuel_across_blocks () =
  (* fuel = N admits exactly N instructions, counted across blocks; the
     N+1-th raises in the block that holds it *)
  let mk () =
    let cfg = Cfg.create ~name:"two" () in
    let b0 = Cfg.fresh_block_id cfg in
    let b1 = Cfg.fresh_block_id cfg in
    let b2 = Cfg.fresh_block_id cfg in
    cfg.Cfg.entry <- b0;
    Cfg.set_block cfg
      (Block.make b0
         [ mkins (Instr.Mov (1024, Instr.Imm 1)); mkins (Instr.Mov (1025, Instr.Imm 2)) ]
         [ { Block.eguard = None; target = Block.Goto b1 } ]);
    Cfg.set_block cfg
      (Block.make b1 [] [ { Block.eguard = None; target = Block.Goto b2 } ]);
    Cfg.set_block cfg
      (Block.make b2
         [ mkins (Instr.Binop (Opcode.Add, 1026, Instr.Reg 1024, Instr.Reg 1025)) ]
         [ { Block.eguard = None; target = Block.Ret (Some (Instr.Reg 1026)) } ]);
    cfg
  in
  let r = Func_sim.run ~fuel:3 ~memory:(Array.make 4 0) (mk ()) in
  check Alcotest.(option int) "fuel 3 runs all three" (Some 3) r.Func_sim.ret;
  check Alcotest.int "three fetched" 3 r.Func_sim.instrs_fetched;
  (match Func_sim.run ~fuel:2 ~memory:(Array.make 4 0) (mk ()) with
  | _ -> Alcotest.fail "fuel 2 must raise"
  | exception Func_sim.Out_of_fuel msg ->
    check Alcotest.string "raised in the third block" "two: fuel exhausted in b2" msg);
  let empty = single_block [] [ { Block.eguard = None; target = Block.Ret None } ] in
  let r = Func_sim.run ~fuel:0 ~memory:[||] empty in
  check Alcotest.int "fuel 0 runs an instruction-free program" 1
    r.Func_sim.blocks_executed

let test_hook_addresses () =
  (* [on_instr]'s [addr] is the wrapped address a fired memory operation
     touched, and -1 for everything else: non-memory operations,
     nullified ones, and any access to a zero-length memory *)
  let mk () =
    single_block
      [
        mkins (Instr.Store (Instr.Imm 42, Instr.Imm (-1), 0));
        mkins (Instr.Load (1024, Instr.Imm 3, 2));
        mkins ~guard:{ Instr.greg = 1025; sense = true } (Instr.Load (1026, Instr.Imm 0, 0));
        mkins (Instr.Mov (1027, Instr.Imm 1));
      ]
      [ { Block.eguard = None; target = Block.Ret None } ]
  in
  let seen memory =
    let log = ref [] in
    let hooks =
      {
        Func_sim.no_hooks with
        Func_sim.on_instr = (fun _ ~fired ~addr -> log := (fired, addr) :: !log);
      }
    in
    ignore (Func_sim.run ~hooks ~memory (mk ()));
    List.rev !log
  in
  let pairs = Alcotest.(list (pair bool int)) in
  check pairs "addresses on a 16-word memory"
    [ (true, 15); (true, 5); (false, -1); (true, -1) ]
    (seen (Array.make 16 0));
  check pairs "no addresses on a zero-length memory"
    [ (true, -1); (true, -1); (false, -1); (true, -1) ]
    (seen [||])

let test_profile_collection () =
  let w = Option.get (Trips_workloads.Micro.by_name "ammp_1") in
  let profile, result = Trips_harness.Pipeline.profile_workload w in
  check Alcotest.bool "blocks counted" true (result.Func_sim.blocks_executed > 0);
  (* edge probabilities from any block sum to <= 1 + epsilon *)
  let cfg, _ = Trips_harness.Pipeline.lower_workload w in
  Cfg.iter_blocks
    (fun b ->
      let succs = Block.distinct_successors b in
      let total =
        List.fold_left
          (fun acc s ->
            acc +. Trips_profile.Profile.edge_prob profile ~src:b.Block.id ~dst:s)
          0.0 succs
      in
      check Alcotest.bool
        (Fmt.str "b%d outgoing probability mass %.2f" b.Block.id total)
        true
        (total <= 1.0001))
    cfg

(* ---- predictor --------------------------------------------------------- *)

let test_predictor_learns_loop () =
  let p = Predictor.create () in
  (* steady loop: block 5 -> 5 -> ... learns quickly *)
  for _ = 1 to 50 do
    ignore (Predictor.update p ~block:5 ~actual:5)
  done;
  check Alcotest.bool "high accuracy on a steady loop" true
    (Predictor.accuracy p > 0.9);
  (* a loop exit is a miss, but a single one *)
  let correct = Predictor.update p ~block:5 ~actual:9 in
  check Alcotest.bool "exit mispredicts" false correct

let test_predictor_hysteresis () =
  (* no history bits: direct-mapped table, so the entry is stable *)
  let p = Predictor.create ~history_bits:0 () in
  for _ = 1 to 20 do
    ignore (Predictor.update p ~block:1 ~actual:2)
  done;
  (* one noise event must not flip the stored target *)
  ignore (Predictor.update p ~block:1 ~actual:3);
  check Alcotest.(option int) "target retained" (Some 2)
    (Predictor.predict p ~block:1)

(* ---- cache -------------------------------------------------------------- *)

let test_cache_basics () =
  let c = Cache.create ~size_words:64 ~line_words:8 () in
  check Alcotest.bool "cold miss" false (Cache.access c ~addr:0);
  check Alcotest.bool "same line hits" true (Cache.access c ~addr:7);
  check Alcotest.bool "next line misses" false (Cache.access c ~addr:8);
  (* direct-mapped conflict: addr 0 and addr 64 share a set *)
  ignore (Cache.access c ~addr:64);
  check Alcotest.bool "conflict evicts" false (Cache.access c ~addr:0)

(* ---- cycle simulator ---------------------------------------------------- *)

let cycle_of name ordering =
  let w = Option.get (Trips_workloads.Micro.by_name name) in
  let c = Trips_harness.Pipeline.compile ~backend:true ordering w in
  Trips_harness.Pipeline.run_cycles c

let test_cycle_matches_functional () =
  let w = Option.get (Trips_workloads.Micro.by_name "sieve") in
  let c = Trips_harness.Pipeline.compile ~backend:true Chf.Phases.Iupo_merged w in
  let f = Trips_harness.Pipeline.run_functional c in
  let t = Trips_harness.Pipeline.run_cycles c in
  check Alcotest.int "same checksum" f.Func_sim.checksum t.Cycle_sim.checksum;
  check Alcotest.int "same block count" f.Func_sim.blocks_executed t.Cycle_sim.blocks;
  check Alcotest.(option int) "same return" f.Func_sim.ret t.Cycle_sim.ret

let test_cycle_sanity () =
  let r = cycle_of "sieve" Chf.Phases.Basic_blocks in
  (* cycles must cover at least issue-width-limited execution *)
  check Alcotest.bool "cycles >= instructions / width" true
    (r.Cycle_sim.cycles * Machine.issue_width >= r.Cycle_sim.instrs_fired);
  check Alcotest.bool "cycles at least commit-bound" true
    (r.Cycle_sim.cycles >= 2 * r.Cycle_sim.blocks);
  check Alcotest.bool "some mispredictions on a branchy kernel" true
    (r.Cycle_sim.mispredictions > 0)

let test_cycle_deterministic () =
  let a = cycle_of "dhry" Chf.Phases.Iupo_merged in
  let b = cycle_of "dhry" Chf.Phases.Iupo_merged in
  check Alcotest.int "deterministic cycles" a.Cycle_sim.cycles b.Cycle_sim.cycles;
  check Alcotest.int "deterministic mispredictions" a.Cycle_sim.mispredictions
    b.Cycle_sim.mispredictions

let test_flush_penalty_visible () =
  (* raising the flush penalty cannot make programs faster *)
  let w = Option.get (Trips_workloads.Micro.by_name "art_1") in
  let c = Trips_harness.Pipeline.compile ~backend:true Chf.Phases.Basic_blocks w in
  let base = Trips_harness.Pipeline.run_cycles c in
  let slow =
    Trips_harness.Pipeline.run_cycles
      ~timing:{ Cycle_sim.default_timing with Cycle_sim.flush_penalty = 100 }
      c
  in
  check Alcotest.bool "bigger flush penalty, more cycles" true
    (slow.Cycle_sim.cycles >= base.Cycle_sim.cycles)

let test_block_overhead_visible () =
  let w = Option.get (Trips_workloads.Micro.by_name "vadd") in
  let c = Trips_harness.Pipeline.compile ~backend:true Chf.Phases.Basic_blocks w in
  let base = Trips_harness.Pipeline.run_cycles c in
  let heavy =
    Trips_harness.Pipeline.run_cycles
      ~timing:{ Cycle_sim.default_timing with Cycle_sim.block_overhead = 30 }
      c
  in
  check Alcotest.bool "per-block overhead dominates block-bound code" true
    (heavy.Cycle_sim.cycles > base.Cycle_sim.cycles)

let test_spatial_model () =
  (* unoptimized placement (grid mode) must be no faster than the flat
     (optimized-placement) default, and both must agree functionally *)
  let w = Option.get (Trips_workloads.Micro.by_name "doppler_GMTI") in
  let c = Trips_harness.Pipeline.compile ~backend:true Chf.Phases.Iupo_merged w in
  let flat = Trips_harness.Pipeline.run_cycles c in
  let spatial =
    Trips_harness.Pipeline.run_cycles
      ~timing:{ Cycle_sim.default_timing with Cycle_sim.spatial_grid = 4 }
      c
  in
  check Alcotest.int "same checksum" spatial.Cycle_sim.checksum flat.Cycle_sim.checksum;
  check Alcotest.bool "spatial routing costs at least as much" true
    (spatial.Cycle_sim.cycles >= flat.Cycle_sim.cycles);
  (* a pricier network slows things further *)
  let pricey =
    Trips_harness.Pipeline.run_cycles
      ~timing:{ Cycle_sim.default_timing with Cycle_sim.operand_hop = 4 }
      c
  in
  check Alcotest.bool "operand network visible" true
    (pricey.Cycle_sim.cycles > spatial.Cycle_sim.cycles)

(* ---- cycle model vs the reference (test/cycle_oracle.ml) ---------------- *)

let compile_micro name =
  let w = Option.get (Trips_workloads.Micro.by_name name) in
  Trips_harness.Pipeline.compile ~backend:true Chf.Phases.Iupo_merged w

(* Every adversarial fuzz shape at seeds 1-3, then the committed corpus,
   as (label, cfg, registers, fresh memory). *)
let fuzz_inputs () =
  let input label (case : Trips_fuzz.Gen.case) =
    match case.Trips_fuzz.Gen.payload with
    | Trips_fuzz.Gen.Cfg_case { cfg; registers; mem_words } ->
      (label, cfg, registers, fun () -> Trips_fuzz.Gen.memory_of ~mem_words)
    | Trips_fuzz.Gen.Lang_case recipe ->
      let w = Trips_workloads.Spec_like.generate recipe in
      let cfg, registers = Trips_harness.Pipeline.lower_workload w in
      (label, cfg, registers, fun () -> Trips_workloads.Workload.memory w)
  in
  let shapes =
    List.concat_map
      (fun shape ->
        List.map
          (fun seed ->
            input
              (Fmt.str "%s/%d" (Trips_fuzz.Gen.shape_name shape) seed)
              (Trips_fuzz.Gen.generate shape ~seed))
          [ 1; 2; 3 ])
      Trips_fuzz.Gen.all_shapes
  in
  (* the corpus sits next to the test under dune runtest, and under
     test/ when the suite runs from the repository root *)
  let dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  match Trips_fuzz.Corpus.load_dir dir with
  | Error msg -> Alcotest.failf "corpus unreadable: %s" msg
  | Ok [] -> Alcotest.fail "corpus is empty"
  | Ok entries ->
    shapes
    @ List.map
        (fun (name, (e : Trips_fuzz.Corpus.entry)) -> input name e.Trips_fuzz.Corpus.case)
        entries

(* Render everything observable about a cycle run — result fields, or
   the exception that cut it short, then per-block attribution and the
   first blocks of the timing trace — so equivalence checks compare
   byte-for-byte.  [reference] runs the oracle of test/cycle_oracle.ml
   instead of the cycle model. *)
let render_cycle_run ?(reference = false) ?timing ?fuel ?strict_exits ~registers
    ~memory cfg =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let a = Attribution.create () in
  let run () =
    if reference then
      Cycle_oracle.run ?timing ~trace:8 ~trace_ppf:fmt ~attribution:a ?fuel
        ?strict_exits ~registers ~memory cfg
    else
      Cycle_sim.run ?timing ~trace:8 ~trace_ppf:fmt ~attribution:a ?fuel
        ?strict_exits ~registers ~memory cfg
  in
  (match run () with
  | r ->
    Fmt.pf fmt
      "cycles=%d blocks=%d fired=%d fetched=%d mispred=%d acc=%.6f miss=%.6f \
       ret=%a checksum=%d@."
      r.Cycle_sim.cycles r.Cycle_sim.blocks r.Cycle_sim.instrs_fired
      r.Cycle_sim.instrs_fetched r.Cycle_sim.mispredictions
      r.Cycle_sim.predictor_accuracy r.Cycle_sim.cache_miss_rate
      Fmt.(Dump.option int)
      r.Cycle_sim.ret r.Cycle_sim.checksum
  | exception e -> Fmt.pf fmt "raised %s@." (Printexc.to_string e));
  List.iter
    (fun (row : Attribution.row) ->
      Fmt.pf fmt "b%d execs=%d fetched=%d fired=%d cycles=%d flushes=%d %a@."
        row.Attribution.r_block row.Attribution.r_execs
        row.Attribution.r_fetched row.Attribution.r_fired
        row.Attribution.r_cycles row.Attribution.r_flushes
        Fmt.(list ~sep:sp (fun ppf (cls, f, fi) -> pf ppf "%s:%d/%d" cls f fi))
        row.Attribution.r_classes)
    (Attribution.rows a);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* The cycle model and the reference, each on fresh memory, must render
   identically. *)
let cycle_agree ~label ?timing ?fuel ?strict_exits ?(registers = []) ~memory cfg =
  let render reference =
    render_cycle_run ~reference ?timing ?fuel ?strict_exits ~registers
      ~memory:(memory ()) cfg
  in
  check Alcotest.string (label ^ ": cycle model = reference") (render true)
    (render false)

let test_cycle_model_reference () =
  (* every micro kernel as basic blocks and IUPO-merged hyperblocks, under
     the default timing and under the placement study's round-robin grid;
     the SPEC-like programs as lowered, cut off by fuel; every fuzz shape
     and the committed corpus *)
  let timings =
    [ ("flat", None); ("grid", Some Trips_harness.Experiment.round_robin) ]
  in
  List.iter
    (fun (w : Trips_workloads.Workload.t) ->
      List.iter
        (fun ordering ->
          let c = Trips_harness.Pipeline.compile ~backend:true ordering w in
          List.iter
            (fun (tname, timing) ->
              cycle_agree
                ~label:
                  (Fmt.str "%s %s %s" w.Trips_workloads.Workload.name
                     (Chf.Phases.name ordering) tname)
                ?timing ~registers:c.Trips_harness.Pipeline.registers
                ~memory:(fun () -> Trips_workloads.Workload.memory w)
                c.Trips_harness.Pipeline.cfg)
            timings)
        [ Chf.Phases.Basic_blocks; Chf.Phases.Iupo_merged ])
    (Trips_workloads.Micro.all @ Trips_workloads.Micro.store_dense);
  List.iter
    (fun (w : Trips_workloads.Workload.t) ->
      let cfg, registers = Trips_harness.Pipeline.lower_workload w in
      cycle_agree ~label:w.Trips_workloads.Workload.name ~fuel:200_000 ~registers
        ~memory:(fun () -> Trips_workloads.Workload.memory w)
        cfg)
    Trips_workloads.Spec_like.all;
  List.iter
    (fun (label, cfg, registers, memory) ->
      cycle_agree ~label ~fuel:200_000 ~registers ~memory cfg)
    (fuzz_inputs ());
  (* one block fills its dispatch cycle, then a dependence chain reaches
     256 cycles past it, the initial issue ring's capacity: the wrap must
     grow the ring rather than reclaim the still-live dispatch slot, or
     the final compare issues a cycle early and the branch resolves early *)
  let ring_wrap =
    let movs = List.init 16 (fun r -> mkins (Instr.Mov (r + 1, Instr.Imm r))) in
    let chain =
      List.init 128 (fun k ->
          let src = if k = 0 then 1 else 100 in
          mkins (Instr.Binop (Opcode.Add, 100, Instr.Reg src, Instr.Imm 1)))
    in
    let cmp = mkins (Instr.Cmp (Opcode.Lt, 200, Instr.Imm 0, Instr.Imm 1)) in
    let exit_ sense = { Block.eguard = Some { Instr.greg = 200; sense }; target = Block.Ret None } in
    single_block (movs @ chain @ [ cmp ]) [ exit_ true; exit_ false ]
  in
  cycle_agree ~label:"ring wrap" ~memory:(fun () -> Array.make 4 0) ring_wrap;
  (* block ids and registers far from zero, on both sides: a loop whose
     registers cross blocks through the cross-block readiness and whose
     exits test a negative guard register, so a table indexed by a raw
     id or register, or a guard mistaken for "no guard", cannot agree *)
  let big = 1 lsl 40 and neg = -7 in
  let sparse =
    let cfg = Cfg.create () in
    let exits ~loop ~out =
      [
        { Block.eguard = Some { Instr.greg = neg; sense = true }; target = Block.Goto loop };
        { Block.eguard = Some { Instr.greg = neg; sense = false }; target = Block.Goto out };
      ]
    in
    Cfg.set_block cfg
      (Block.make (-3)
         [
           mkins (Instr.Mov (neg, Instr.Imm 1));
           mkins (Instr.Mov (big, Instr.Imm 5));
           mkins (Instr.Binop (Opcode.Mul, max_int, Instr.Reg big, Instr.Reg big));
         ]
         (exits ~loop:big ~out:0));
    Cfg.set_block cfg
      (Block.make big
         [
           mkins (Instr.Binop (Opcode.Add, big, Instr.Reg max_int, Instr.Reg big));
           mkins (Instr.Binop (Opcode.Div, max_int, Instr.Reg big, Instr.Imm 3));
           mkins (Instr.Cmp (Opcode.Lt, neg, Instr.Reg big, Instr.Imm 100));
         ]
         (exits ~loop:big ~out:0));
    Cfg.set_block cfg
      (Block.make 0
         [ mkins (Instr.Store (Instr.Reg max_int, Instr.Imm 1, 0)) ]
         [ { Block.eguard = None; target = Block.Ret (Some (Instr.Reg max_int)) } ]);
    cfg.Cfg.entry <- -3;
    cfg
  in
  List.iter
    (fun (tname, timing) ->
      cycle_agree ~label:("sparse ids and registers " ^ tname) ?timing
        ~memory:(fun () -> Array.make 4 0) sparse)
    timings

let test_measure_one_run () =
  (* a measured cell with cycles runs one simulation: its functional
     record, read from the cycle run, equals a separate functional run *)
  let pp ppf (r : Func_sim.result) =
    Fmt.pf ppf "ret=%a blocks=%d executed=%d fetched=%d checksum=%d"
      Fmt.(Dump.option int)
      r.Func_sim.ret r.Func_sim.blocks_executed r.Func_sim.instrs_executed
      r.Func_sim.instrs_fetched r.Func_sim.checksum
  in
  List.iter
    (fun (w : Trips_workloads.Workload.t) ->
      let baseline = Trips_harness.Pipeline.baseline ~backend:true ~cycles:true w in
      List.iter
        (fun ordering ->
          let m =
            Trips_harness.Pipeline.measure ~cycles:true ~baseline ordering w
          in
          check (Alcotest.testable pp ( = ))
            (Fmt.str "%s %s" w.Trips_workloads.Workload.name (Chf.Phases.name ordering))
            (Trips_harness.Pipeline.run_functional m.Trips_harness.Pipeline.compiled)
            m.Trips_harness.Pipeline.functional)
        [ Chf.Phases.Basic_blocks; Chf.Phases.Iupo_merged ])
    (Trips_workloads.Micro.all @ Trips_workloads.Micro.store_dense)

let test_ring_bounded () =
  (* the ring allocator's memory is bounded by the in-flight window, not
     by simulated time: each run publishes its final capacity as one
     histogram sample, and even the largest stays orders of magnitude
     below one run's cycle count (a per-cycle table would hold one entry
     per cycle) *)
  Trips_obs.Metrics.reset ();
  Trips_obs.Metrics.with_samples @@ fun () ->
  let r = cycle_of "sieve" Chf.Phases.Iupo_merged in
  let r' = cycle_of "gzip_1" Chf.Phases.Iupo_merged in
  let snap = Trips_obs.Metrics.snapshot () in
  match List.assoc_opt "sim.cycle.ring.capacity" snap.Trips_obs.Metrics.histograms with
  | None -> Alcotest.fail "sim.cycle.ring.capacity not observed"
  | Some h ->
    check Alcotest.int "one sample per run" 2 h.Trips_obs.Metrics.h_count;
    let cap = int_of_float h.Trips_obs.Metrics.h_max in
    let cycles = min r.Cycle_sim.cycles r'.Cycle_sim.cycles in
    check Alcotest.bool
      (Fmt.str "largest capacity %d stays far below %d cycles" cap cycles)
      true
      (cap > 0 && cap * 4 < cycles)

let test_predictor_accounting () =
  (* [Predictor.update]'s verdict is the single source of truth, so the
     flush count reconciles exactly with the predictor's own counters on
     a misprediction-heavy run *)
  Trips_obs.Metrics.reset ();
  let r = cycle_of "art_1" Chf.Phases.Basic_blocks in
  let snap = Trips_obs.Metrics.snapshot () in
  let c = Trips_obs.Metrics.counter_value snap in
  check Alcotest.bool "misprediction-heavy" true
    (r.Cycle_sim.mispredictions > 0);
  check Alcotest.int "flushes = lookups - hits"
    (c "sim.predictor.lookups" - c "sim.predictor.hits")
    (c "sim.cycle.flushes");
  check Alcotest.int "result field agrees with the metric"
    r.Cycle_sim.mispredictions (c "sim.cycle.flushes")

let test_attribution_partitions () =
  (* the attribution partition invariants (class fetches sum to block
     fetches, block cycles sum to the run total) hold on every kernel *)
  List.iter
    (fun (w : Trips_workloads.Workload.t) ->
      let name = w.Trips_workloads.Workload.name in
      let a = Attribution.create () in
      let r = Trips_harness.Pipeline.run_cycles ~attribution:a (compile_micro name) in
      let rows = Attribution.rows a in
      check Alcotest.bool (name ^ ": rows present") true (rows <> []);
      List.iter
        (fun (row : Attribution.row) ->
          let sum f =
            List.fold_left (fun acc cl -> acc + f cl) 0 row.Attribution.r_classes
          in
          check Alcotest.int
            (Fmt.str "%s: b%d class fetches partition block fetches" name
               row.Attribution.r_block)
            row.Attribution.r_fetched
            (sum (fun (_, f, _) -> f));
          check Alcotest.int
            (Fmt.str "%s: b%d class fired partition block fired" name
               row.Attribution.r_block)
            row.Attribution.r_fired
            (sum (fun (_, _, fi) -> fi)))
        rows;
      check Alcotest.int (name ^ ": block cycles partition the run total")
        r.Cycle_sim.cycles
        (List.fold_left
           (fun acc (row : Attribution.row) -> acc + row.Attribution.r_cycles)
           0 rows))
    (Trips_workloads.Micro.all @ Trips_workloads.Micro.store_dense)

(* ---- decoded interpreter vs the reference (test/sim_oracle.ml) --------- *)

(* Every hook event folded into a digest, so long runs compare without
   keeping their event streams. *)
let recorder () =
  let h = ref 0 and n = ref 0 in
  let mix x =
    h := (!h lxor x) * 0x100000001b3;
    incr n
  in
  let hooks =
    {
      Func_sim.on_block =
        (fun id ->
          mix 1;
          mix id);
      on_instr =
        (fun i ~fired ~addr ->
          mix 2;
          mix i.Instr.id;
          mix (Hashtbl.hash i.Instr.op);
          mix (Bool.to_int fired);
          mix addr);
      on_exit =
        (fun e ->
          mix 3;
          mix (Hashtbl.hash e));
    }
  in
  (hooks, fun () -> Fmt.str "%d events, digest %x" !n !h)

let render_result (r : Func_sim.result) =
  Fmt.str "ret=%a blocks=%d executed=%d fetched=%d checksum=%d"
    Fmt.(Dump.option int)
    r.Func_sim.ret r.Func_sim.blocks_executed r.Func_sim.instrs_executed
    r.Func_sim.instrs_fetched r.Func_sim.checksum

(* The outcome of a run, exceptions included, and the memory it left. *)
let outcome memory f =
  let m = memory () in
  let o = match f m with s -> s | exception e -> "raised " ^ Printexc.to_string e in
  Fmt.str "%s mem=%d" o (Func_sim.memory_checksum m)

(* Block counts, every edge between blocks of the CFG, and every trip
   histogram, read through one set of accessors. *)
let render_profile ids ~pp ~block ~edge ~hist =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Fmt.str "%a" pp ());
  List.iter
    (fun s ->
      Buffer.add_string buf (Fmt.str "\nb%d:%d" s (block s));
      List.iter
        (fun d ->
          let n = edge s d in
          if n <> 0 then Buffer.add_string buf (Fmt.str " ->b%d:%d" d n))
        ids;
      match hist s with
      | [] -> ()
      | h ->
        Buffer.add_string buf
          (Fmt.str " trips %a" Fmt.(list ~sep:sp (pair ~sep:(any "x") int int)) h))
    ids;
  Buffer.contents buf

(* Run [cfg] plainly, under recording hooks and profiled, under both
   implementations, and require the same outcomes, event streams and
   profiles. *)
let agree ~label ?fuel ?strict_exits ?(registers = []) ~memory cfg =
  let run_new hooks m =
    render_result (Func_sim.run ?fuel ?strict_exits ?hooks ~registers ~memory:m cfg)
  in
  let run_ref hooks m =
    render_result (Sim_oracle.run ?fuel ?strict_exits ?hooks ~registers ~memory:m cfg)
  in
  let expect = outcome memory (run_ref None) in
  check Alcotest.string (label ^ ": plain run") expect (outcome memory (run_new None));
  let hooked run =
    let hooks, digest = recorder () in
    let o = outcome memory (run (Some hooks)) in
    o ^ " " ^ digest ()
  in
  check Alcotest.string (label ^ ": hook event stream") (hooked run_ref)
    (hooked run_new);
  (* a CFG whose exits name missing blocks has no loop forest *)
  let loops =
    match Trips_analysis.Loops.compute cfg with
    | l -> Some l
    | exception Invalid_argument _ -> None
  in
  let ids = Cfg.block_ids cfg in
  let profiled_new m =
    let r, p =
      Func_sim.run_profiled ?fuel ?strict_exits ~registers ?loops ~memory:m cfg
    in
    let module P = Trips_profile.Profile in
    render_result r ^ "\n"
    ^ render_profile ids
        ~pp:(fun ppf () -> P.pp ppf p)
        ~block:(P.block_count p)
        ~edge:(fun src dst -> P.edge_count p ~src ~dst)
        ~hist:(P.trip_histogram p)
  in
  let profiled_ref m =
    let r, p =
      Sim_oracle.run_profiled ?fuel ?strict_exits ~registers ?loops ~memory:m cfg
    in
    List.iter
      (fun (s, d, _) ->
        if not (List.mem s ids && List.mem d ids) then
          Alcotest.failf "%s: reference edge b%d->b%d outside the CFG" label s d)
      (Sim_oracle.edges p);
    render_result r ^ "\n"
    ^ render_profile ids
        ~pp:(fun ppf () -> Sim_oracle.pp ppf p)
        ~block:(Sim_oracle.block_count p)
        ~edge:(fun src dst -> Sim_oracle.edge_count p ~src ~dst)
        ~hist:(Sim_oracle.trip_histogram p)
  in
  check Alcotest.string (label ^ ": profile")
    (outcome memory profiled_ref)
    (outcome memory profiled_new)

(* A random strict CFG whose last block's exits depend on the preloaded
   test register (1024): loop back to the entry (8), return (1, 3), hold
   nowhere (4-7), or hold twice (0, 2, 9), which strict mode rejects and
   non-strict mode resolves to the first.  Runs end normally, loop until
   the fuel runs out, or take the first of several holding exits. *)
let shaped_random_cfg spec r1024 =
  let cfg = Generators.build_random_cfg spec in
  let exit_ sense target =
    { Block.eguard = Some { Instr.greg = 1024; sense }; target }
  in
  let last = Cfg.block cfg (Cfg.num_blocks cfg - 1) in
  Cfg.set_block cfg
    {
      last with
      Block.exits =
        [
          exit_ (r1024 > 7) (Block.Goto 0);
          exit_ (r1024 < 4) (Block.Ret None);
          exit_ (r1024 = 2 || r1024 = 9) (Block.Ret (Some (Instr.Reg 1024)));
        ];
    };
  cfg

let oracle_random_cfgs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"decoded interpreter = reference on random CFGs"
       ~count:200
       QCheck2.Gen.(
         quad Generators.random_cfg_gen (int_range 0 9) (int_range 0 300) bool)
       (fun (spec, r1024, fuel, strict_exits) ->
         agree ~label:"random" ~fuel ~strict_exits
           ~registers:[ (1024, r1024); (max_int, 1) ]
           ~memory:(fun () -> Array.make 8 3)
           (shaped_random_cfg spec r1024);
         true))

(* [shaped_random_cfg] with two register chains carried across blocks:
   every block starts by dividing register 3000 and ends by dividing
   3001, each a 20-cycle producer the next block's divide waits for, so
   a seed without the producer term or a dropped cross-block write of
   either register changes the timing. *)
let carried_random_cfg spec r1024 =
  let cfg = shaped_random_cfg spec r1024 in
  List.iter
    (fun (b : Block.t) ->
      Cfg.set_block cfg
        {
          b with
          Block.instrs =
            (mkins (Instr.Binop (Opcode.Div, 3000, Instr.Reg 3000, Instr.Imm 3))
            :: b.Block.instrs)
            @ [ mkins (Instr.Binop (Opcode.Div, 3001, Instr.Reg 3001, Instr.Imm 3)) ];
        })
    (Cfg.blocks cfg);
  cfg

let cycle_random_cfgs =
  (* random CFGs with carried registers under random machine shapes: a
     narrow issue width and a small window make issue contention and the
     window gate bite, the spatial grid exercises the placement hops, and
     random register-read latencies, hops and dispatch overheads move
     which of an external input's two readiness terms wins *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"cycle model = reference on random CFGs" ~count:200
       QCheck2.Gen.(
         pair
           (quad Generators.random_cfg_gen (int_range 0 9) (int_range 0 300) bool)
           (pair
              (triple (int_range 1 4) (int_range 1 8) (oneofl [ 0; 2; 4 ]))
              (triple (int_range 0 3) (int_range 1 3) (int_range 0 6))))
       (fun ( (spec, r1024, fuel, strict_exits),
              ((issue_width, window, grid), (reg_read_latency, operand_hop, block_overhead)) ) ->
         let timing =
           {
             Cycle_sim.default_timing with
             Cycle_sim.issue_width;
             window_blocks = window;
             spatial_grid = grid;
             reg_read_latency;
             operand_hop;
             block_overhead;
           }
         in
         cycle_agree ~label:"random" ~timing ~fuel ~strict_exits
           ~registers:[ (1024, r1024); (max_int, 1) ]
           ~memory:(fun () -> Array.make 8 3)
           (carried_random_cfg spec r1024);
         true))

let test_oracle_fuzz_cases () =
  (* every adversarial fuzz shape, plus the committed corpus *)
  List.iter
    (fun (label, cfg, registers, memory) -> agree ~label ~registers ~memory cfg)
    (fuzz_inputs ())

let test_oracle_missing_block () =
  (* a Goto to a block the CFG lacks fails on entry, as [Cfg.block] does *)
  let cfg =
    single_block
      [ mkins (Instr.Mov (1024, Instr.Imm 1)) ]
      [ { Block.eguard = None; target = Block.Goto 99 } ]
  in
  agree ~label:"missing target" ~memory:(fun () -> Array.make 4 0) cfg;
  cfg.Cfg.entry <- 98;
  agree ~label:"missing entry" ~memory:(fun () -> Array.make 4 0) cfg

(* The random CFGs above compare only [Cmp Lt] and never touch memory,
   so these hand-built ones cover the rest of the decoding: every binop
   and compare on edge operands, in register and immediate positions;
   guards of both senses, holding and not, on every kind of instruction;
   and loads and stores below, inside and beyond the memory, also on a
   zero-length one.  Each result is stored or folded into the returned
   register 400, so a wrong value shows in the checksum and a wrong
   address in the hook stream. *)

let edge_values = [ 0; 1; -1; 63; 64; -64; min_int; max_int ]

(* registers 100.. hold [edge_values]; 200 holds 1 and 201 holds 0 *)
let edge_registers =
  (200, 1) :: (201, 0) :: List.mapi (fun k v -> (100 + k, v)) edge_values

(* One block per list of instructions, each falling through to the
   next; the last returns register 400. *)
let chain name blocks =
  let cfg = Cfg.create ~name () in
  let ids = List.map (fun _ -> Cfg.fresh_block_id cfg) blocks in
  cfg.Cfg.entry <- List.hd ids;
  List.iteri
    (fun k (id, instrs) ->
      let target =
        if k = List.length ids - 1 then Block.Ret (Some (Instr.Reg 400))
        else Block.Goto (List.nth ids (k + 1))
      in
      Cfg.set_block cfg
        (Block.make id instrs [ { Block.eguard = None; target } ]))
    (List.combine ids blocks);
  cfg

let every_op =
  List.map
    (fun op d a b -> Instr.Binop (op, d, a, b))
    Opcode.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Asr ]
  @ List.map
      (fun op d a b -> Instr.Cmp (op, d, a, b))
      Opcode.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* every operator on every pair of edge values, each operand once from
   its register and once as an immediate; result k is stored at k *)
let alu_cfg () =
  let slot = ref 0 in
  let values = List.mapi (fun k v -> (k, v)) edge_values in
  let operands (k, v) = [ Instr.Reg (100 + k); Instr.Imm v ] in
  let block op =
    List.concat_map
      (fun x ->
        List.concat_map
          (fun y ->
            List.concat_map
              (fun a ->
                List.concat_map
                  (fun b ->
                    incr slot;
                    [ op 300 a b; Instr.Store (Instr.Reg 300, Instr.Imm !slot, 0) ])
                  (operands y))
              (operands x))
          values)
      values
  in
  let blocks = List.map (fun op -> List.map mkins (block op)) every_op in
  (chain "alu" blocks, !slot + 1)

(* every kind of instruction behind guard registers 200 (holds 1) and
   201 (holds 0), under both senses; each writes register 300 or memory,
   and 300 is reset before and stored after *)
let guard_cfg () =
  let slot = ref 0 in
  let ops =
    List.map (fun op -> op 300 (Instr.Reg 101) (Instr.Reg 102)) every_op
    @ [
        Instr.Mov (300, Instr.Reg 107);
        Instr.Mov (300, Instr.Imm 9);
        Instr.Load (300, Instr.Imm 3, 0);
        Instr.Load (300, Instr.Imm (-1), 0);
        Instr.Load (300, Instr.Reg 107, 1);
        Instr.Store (Instr.Imm 5555, Instr.Imm 2, 0);
        Instr.Store (Instr.Reg 102, Instr.Imm 4, 4);
        Instr.Nullw 300;
      ]
  in
  let guarded op =
    List.concat_map
      (fun greg ->
        List.concat_map
          (fun sense ->
            incr slot;
            [
              mkins (Instr.Mov (300, Instr.Imm 7777));
              mkins ~guard:{ Instr.greg; sense } op;
              mkins (Instr.Store (Instr.Reg 300, Instr.Imm (8 + !slot), 0));
            ])
          [ true; false ])
      [ 200; 201 ]
  in
  let cfg = chain "guards" [ List.concat_map guarded ops ] in
  (cfg, !slot + 9)

(* loads and stores around a memory of [n] words, through immediate and
   register addresses, with offsets that cross either end; each load is
   folded into register 400 before the store to the same place *)
let memory_cfg n =
  let addrs = [ 0; 1; n - 1; n; n + 1; 2 * n; -1; -n; -n - 1; min_int; max_int ] in
  let value = ref 1000 in
  let fold =
    [
      Instr.Binop (Opcode.Mul, 400, Instr.Reg 400, Instr.Imm 31);
      Instr.Binop (Opcode.Add, 400, Instr.Reg 400, Instr.Reg 401);
    ]
  in
  let access addr off =
    incr value;
    (Instr.Load (401, Instr.Imm addr, off) :: fold)
    @ [
        Instr.Store (Instr.Imm !value, Instr.Imm addr, off);
        Instr.Mov (402, Instr.Imm addr);
        Instr.Load (401, Instr.Reg 402, off);
      ]
    @ fold
    @ [
        Instr.Mov (403, Instr.Imm (- !value));
        Instr.Store (Instr.Reg 403, Instr.Reg 402, off);
      ]
  in
  chain (Fmt.str "memory %d" n)
    (List.map
       (fun off -> List.map mkins (List.concat_map (fun addr -> access addr off) addrs))
       [ 0; 1; -1; n ])

let test_oracle_every_opcode () =
  let alu, words = alu_cfg () in
  agree ~label:"every binop and compare" ~registers:edge_registers
    ~memory:(fun () -> Array.make words 0)
    alu;
  let guards, words = guard_cfg () in
  agree ~label:"guards" ~registers:edge_registers
    ~memory:(fun () -> Array.init words (fun k -> (k * 7) + 1))
    guards;
  List.iter
    (fun n ->
      agree ~label:(Fmt.str "memory of %d words" n)
        ~memory:(fun () -> Array.init n (fun k -> (k * 7) + 1))
        (memory_cfg n))
    [ 0; 1; 7; 16 ];
  agree ~label:"16-word accesses, zero-length memory"
    ~memory:(fun () -> [||])
    (memory_cfg 16);
  agree ~label:"guards, zero-length memory" ~registers:edge_registers
    ~memory:(fun () -> [||])
    guards

let test_oracle_workloads () =
  (* the 24 micro kernels, lowered and formed (IUPO-merged, allocated),
     each also cut off halfway through its fuel; and the 19 SPEC-like
     programs as lowered *)
  List.iter
    (fun (w : Trips_workloads.Workload.t) ->
      let name = w.Trips_workloads.Workload.name in
      let memory () = Trips_workloads.Workload.memory w in
      let cfg, registers = Trips_harness.Pipeline.lower_workload w in
      agree ~label:(name ^ " lowered") ~registers ~memory cfg;
      let c = compile_micro name in
      let registers = c.Trips_harness.Pipeline.registers in
      let cfg = c.Trips_harness.Pipeline.cfg in
      agree ~label:(name ^ " formed") ~registers ~memory cfg;
      let full = Func_sim.run ~registers ~memory:(memory ()) cfg in
      agree ~label:(name ^ " out of fuel") ~fuel:(full.Func_sim.instrs_fetched / 2)
        ~registers ~memory cfg)
    Trips_workloads.Micro.all;
  List.iter
    (fun (w : Trips_workloads.Workload.t) ->
      let cfg, registers = Trips_harness.Pipeline.lower_workload w in
      agree ~label:w.Trips_workloads.Workload.name ~registers
        ~memory:(fun () -> Trips_workloads.Workload.memory w)
        cfg)
    Trips_workloads.Spec_like.all

let suite =
  ( "sim",
    [
      Alcotest.test_case "spatial placement model" `Quick test_spatial_model;
      Alcotest.test_case "guard semantics" `Quick test_guard_semantics;
      Alcotest.test_case "exit invariant violation" `Quick test_exit_invariant_violation;
      Alcotest.test_case "no exit fires" `Quick test_no_exit_fires;
      Alcotest.test_case "fuel" `Quick test_fuel;
      Alcotest.test_case "fuel boundary" `Quick test_fuel_boundary;
      Alcotest.test_case "empty memory" `Quick test_empty_memory;
      Alcotest.test_case "memory wrapping" `Quick test_memory_wrapping;
      Alcotest.test_case "sparse register numbers" `Quick test_sparse_register_numbers;
      Alcotest.test_case "unmentioned parameter register" `Quick
        test_unmentioned_parameter;
      Alcotest.test_case "unwritten registers read zero" `Quick
        test_unwritten_registers_read_zero;
      Alcotest.test_case "fuel across blocks" `Quick test_fuel_across_blocks;
      Alcotest.test_case "hook addresses" `Quick test_hook_addresses;
      Alcotest.test_case "profile collection" `Quick test_profile_collection;
      Alcotest.test_case "predictor learns loops" `Quick test_predictor_learns_loop;
      Alcotest.test_case "predictor hysteresis" `Quick test_predictor_hysteresis;
      Alcotest.test_case "cache basics" `Quick test_cache_basics;
      Alcotest.test_case "cycle matches functional" `Quick test_cycle_matches_functional;
      Alcotest.test_case "cycle sanity" `Quick test_cycle_sanity;
      Alcotest.test_case "cycle deterministic" `Quick test_cycle_deterministic;
      Alcotest.test_case "flush penalty visible" `Quick test_flush_penalty_visible;
      Alcotest.test_case "block overhead visible" `Quick test_block_overhead_visible;
      Alcotest.test_case "cycle model = reference" `Quick
        test_cycle_model_reference;
      Alcotest.test_case "measured cell simulates once" `Quick test_measure_one_run;
      cycle_random_cfgs;
      Alcotest.test_case "ring allocator bounded" `Quick test_ring_bounded;
      Alcotest.test_case "predictor accounting reconciles" `Quick
        test_predictor_accounting;
      Alcotest.test_case "attribution partitions under fast paths" `Quick
        test_attribution_partitions;
      oracle_random_cfgs;
      Alcotest.test_case "decoded interpreter = reference: missing blocks" `Quick
        test_oracle_missing_block;
      Alcotest.test_case "decoded interpreter = reference: fuzz shapes, corpus"
        `Quick test_oracle_fuzz_cases;
      Alcotest.test_case "decoded interpreter = reference: workloads" `Quick
        test_oracle_workloads;
      Alcotest.test_case "decoded interpreter = reference: every opcode" `Quick
        test_oracle_every_opcode;
    ] )
