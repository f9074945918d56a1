(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus ablations and Bechamel micro-benchmarks of
   the compiler passes themselves.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table1  -- one experiment
     dune exec bench/main.exe -- table2 table3 figure7 ablation speed

   Absolute numbers come from our TRIPS timing model, not the authors'
   simulator; EXPERIMENTS.md records the shape comparison. *)

open Trips_workloads
open Trips_harness

let section title =
  Fmt.pr "@.==================== %s ====================@." title

(* Table 1 rows are reused by Figure 7, so compute them once. *)
let table1_rows = lazy (Table1.run ())

let run_table1 () =
  section "Table 1 — phase orderings (cycle counts, microbenchmarks)";
  Table1.render Fmt.stdout (Lazy.force table1_rows)

let run_table2 () =
  section "Table 2 — block-selection heuristics (cycle counts)";
  Table2.render Fmt.stdout (Table2.run ())

let run_table3 () =
  section "Table 3 — SPEC-like block counts (functional simulation)";
  Table3.render Fmt.stdout (Table3.run ())

let run_figure7 () =
  section "Figure 7 — cycle reduction vs block count reduction";
  Figure7.render Fmt.stdout (Lazy.force table1_rows)

(* Left-justify [s] in [width] columns.  [%-Ns] pads by bytes, which
   leaves a label holding a multi-byte UTF-8 character (the "§") one
   column short, so count code points (non-continuation bytes). *)
let pad_label width s =
  let n =
    String.fold_left
      (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1)
      0 s
  in
  s ^ String.make (max 0 (width - n)) ' '

(* Ablations on the design knobs DESIGN.md calls out: head duplication,
   iterative optimization, and the tail-duplication size cap. *)
let run_ablation () =
  section "Ablation — formation design knobs ((IUPO) policy variants)";
  let base = Chf.Policy.edge_default in
  let variants =
    [
      ("baseline (IUPO)", base);
      ("no head duplication", { base with Chf.Policy.enable_head_dup = false });
      ("no tail duplication", { base with Chf.Policy.enable_tail_dup = false });
      ("no iterative opt", { base with Chf.Policy.iterate_opt = false });
      ( "block splitting (§9)",
        { base with Chf.Policy.enable_block_splitting = true } );
      ("tail-dup cap 8", { base with Chf.Policy.max_tail_dup_instrs = 8 });
      ("tail-dup cap 128", { base with Chf.Policy.max_tail_dup_instrs = 128 });
      ("no slack", { base with Chf.Policy.slack = 0 });
      ("slack 32", { base with Chf.Policy.slack = 32 });
    ]
  in
  let kernels =
    List.filter_map Micro.by_name
      [ "ammp_1"; "bzip2_3"; "gzip_1"; "matrix_1"; "sieve"; "parser_1" ]
  in
  (* drive Formation.run directly so every knob is honored verbatim (the
     phase orderings deliberately override head-dup/iterate-opt) *)
  let compile_with config w =
    let profile, _ = Pipeline.profile_workload w in
    let cfg, registers = Pipeline.lower_workload w in
    Trips_opt.Optimizer.optimize_cfg cfg;
    ignore (Chf.Formation.run config cfg profile);
    Trips_opt.Optimizer.optimize_cfg cfg;
    let report = Trips_regalloc.Backend.run cfg in
    let registers =
      List.map
        (fun (r, v) ->
          (Trips_ir.IntMap.find_or ~default:r r
             report.Trips_regalloc.Backend.mapping, v))
        registers
    in
    (cfg, registers)
  in
  (* one baseline per kernel, shared by every variant *)
  let cache = Stage.create () in
  Fmt.pr "%-22s" "variant";
  List.iter (fun w -> Fmt.pr " | %-9s" w.Workload.name) kernels;
  Fmt.pr " | avg@.";
  List.iter
    (fun (label, config) ->
      Fmt.pr "%s" (pad_label 22 label);
      let improvements =
        List.map
          (fun w ->
            let base = Pipeline.baseline ~cache ~backend:true ~cycles:true w in
            let bb_run = Option.get base.Stage.base_cycles in
            let cfg, registers = compile_with config w in
            let memory = Workload.memory w in
            let r = Trips_sim.Cycle_sim.run ~registers ~memory cfg in
            if
              r.Trips_sim.Cycle_sim.checksum
              <> base.Stage.base_functional.Trips_sim.Func_sim.checksum
            then Fmt.failwith "ablation miscompiled %s" w.Workload.name;
            let imp =
              Stats.percent_improvement ~base:bb_run.Trips_sim.Cycle_sim.cycles
                ~v:r.Trips_sim.Cycle_sim.cycles
            in
            Fmt.pr " | %9.1f" imp;
            imp)
          kernels
      in
      Fmt.pr " | %5.1f@." (Stats.mean improvements))
    variants

(* Placement-quality sensitivity: how much of each configuration's win
   survives an unoptimized (round-robin) SPDI placement. *)
let run_placement () =
  section "Placement — optimized (flat-hop) vs round-robin SPDI placement";
  let kernels =
    List.filter_map Micro.by_name [ "gzip_1"; "matrix_1"; "vadd"; "parser_1" ]
  in
  Fmt.pr "%-14s | %-28s | %-28s@." "benchmark" "optimized placement (IUPO)%"
    "round-robin placement (IUPO)%";
  List.iter
    (fun w ->
      let bb = Pipeline.compile ~backend:true Chf.Phases.Basic_blocks w in
      let c = Pipeline.compile ~backend:true Chf.Phases.Iupo_merged w in
      let measure timing =
        let base = Pipeline.run_cycles ?timing bb in
        let r = Pipeline.run_cycles ?timing c in
        Stats.percent_improvement ~base:base.Trips_sim.Cycle_sim.cycles
          ~v:r.Trips_sim.Cycle_sim.cycles
      in
      let flat = measure None in
      let spatial =
        measure
          (Some
             {
               Trips_sim.Cycle_sim.default_timing with
               Trips_sim.Cycle_sim.spatial_grid = 4;
             })
      in
      Fmt.pr "%-14s | %28.1f | %28.1f@." w.Workload.name flat spatial)
    kernels

(* Print each Bechamel test's per-run median, straight from the raw
   measurements, in name order. *)
let report_medians raw =
  Hashtbl.fold (fun name (b : Bechamel.Benchmark.t) acc ->
      (name, b.Bechamel.Benchmark.lr) :: acc)
    raw []
  |> List.sort compare
  |> List.iter (fun (name, measurements) ->
         let times =
           Array.to_list measurements
           |> List.map (fun mr ->
                  Bechamel.Measurement_raw.get ~label:"monotonic-clock" mr
                  /. Float.max 1.0 (Bechamel.Measurement_raw.run mr))
         in
         match List.sort compare times with
         | [] -> ()
         | sorted ->
           let median = List.nth sorted (List.length sorted / 2) in
           Fmt.pr "%-24s %10.1f us/run (%d samples)@." name (median /. 1e3)
             (List.length sorted))

(* Bechamel micro-benchmarks of the compiler passes themselves: how long
   formation takes per configuration on a representative kernel. *)
let run_speed () =
  section "Speed — Bechamel timing of the formation passes";
  let kernel = Option.get (Micro.by_name "sieve") in
  let profile, _ = Pipeline.profile_workload kernel in
  let bench_of_ordering ordering =
    Bechamel.Test.make
      ~name:(Chf.Phases.name ordering)
      (Bechamel.Staged.stage (fun () ->
           let cfg, _ = Pipeline.lower_workload kernel in
           ignore (Chf.Phases.apply ordering cfg profile)))
  in
  let test =
    Bechamel.Test.make_grouped ~name:"phases"
      (List.map bench_of_ordering Chf.Phases.all)
  in
  let benchmark () =
    let open Bechamel in
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
    in
    Benchmark.all cfg instances test
  in
  report_medians (benchmark ())

(* Cost of the robustness machinery: structural checking of a formed CFG
   and the full per-phase differential verifier, against plain
   compilation of the same kernel. *)
let run_verify () =
  section "Verify — cost of structural and per-phase differential checks";
  let kernel = Option.get (Micro.by_name "sieve") in
  let profile, _ = Pipeline.profile_workload kernel in
  let formed =
    let cfg, _ = Pipeline.lower_workload kernel in
    ignore (Chf.Phases.apply Chf.Phases.Iupo_merged cfg profile);
    cfg
  in
  let tests =
    [
      Bechamel.Test.make ~name:"structural check"
        (Bechamel.Staged.stage (fun () ->
             ignore (Trips_verify.Cfg_verify.check ~allow_unreachable:true formed)));
      Bechamel.Test.make ~name:"compile plain"
        (Bechamel.Staged.stage (fun () ->
             let cfg, _ = Pipeline.lower_workload kernel in
             ignore (Chf.Phases.apply Chf.Phases.Iupo_merged cfg profile)));
      Bechamel.Test.make ~name:"compile + per-phase diff"
        (Bechamel.Staged.stage (fun () ->
             let cfg, registers = Pipeline.lower_workload kernel in
             match
               Trips_verify.Diff_check.run ~registers
                 ~fresh_memory:(fun () -> Workload.memory kernel)
                 Chf.Phases.Iupo_merged cfg profile
             with
             | Ok _ -> ()
             | Error f ->
               Fmt.failwith "diff check failed: %a"
                 Trips_verify.Diff_check.pp_failure f));
    ]
  in
  let test = Bechamel.Test.make_grouped ~name:"verify" tests in
  let raw =
    let open Bechamel in
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
    in
    Benchmark.all cfg instances test
  in
  report_medians raw

let experiments =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("table3", run_table3);
    ("figure7", run_figure7);
    ("ablation", run_ablation);
    ("placement", run_placement);
    ("speed", run_speed);
    ("verify", run_verify);
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Fmt.epr "unknown experiment %S (available: %s)@." name
          (String.concat ", " (List.map fst experiments)))
    requested
