(* End-to-end integration tests: every microbenchmark under every phase
   ordering and policy must produce the basic-block baseline's functional
   checksum, respect the structural constraints, and run to completion
   under the cycle-level model.  Random mini-language programs are pushed
   through the full pipeline as the strongest property. *)

open Trips_workloads
open Trips_harness

let check = Alcotest.check

let orderings = Chf.Phases.all

let policies =
  [
    ("bf", Chf.Policy.edge_default);
    ( "df",
      {
        Chf.Policy.edge_default with
        Chf.Policy.heuristic = Chf.Policy.Depth_first { min_merge_prob = 0.12 };
      } );
    ( "vliw",
      {
        Chf.Policy.edge_default with
        Chf.Policy.heuristic = Chf.Policy.Vliw Chf.Policy.default_vliw;
      } );
  ]

(* every workload x ordering: semantics + constraints (breadth-first) *)
let test_all_micro_all_orderings () =
  List.iter
    (fun w ->
      let baseline = Generators.baseline_of w in
      List.iter
        (fun ordering ->
          let c = Pipeline.compile ~backend:true ordering w in
          let r = Pipeline.run_functional c in
          check Alcotest.int
            (Fmt.str "%s/%s checksum" w.Workload.name (Chf.Phases.name ordering))
            baseline.Trips_sim.Func_sim.checksum r.Trips_sim.Func_sim.checksum)
        orderings)
    Micro.all

(* every policy on the policy-sensitive kernels, through the cycle model *)
let test_policies_on_sensitive_kernels () =
  List.iter
    (fun name ->
      let w = Option.get (Micro.by_name name) in
      let baseline = Generators.baseline_of w in
      List.iter
        (fun (pname, config) ->
          let c = Pipeline.compile ~config ~backend:true Chf.Phases.Iupo_merged w in
          let r = Pipeline.run_functional c in
          check Alcotest.int
            (Fmt.str "%s/%s checksum" name pname)
            baseline.Trips_sim.Func_sim.checksum r.Trips_sim.Func_sim.checksum;
          let t = Pipeline.run_cycles c in
          check Alcotest.bool
            (Fmt.str "%s/%s cycle sim terminates" name pname)
            true
            (t.Trips_sim.Cycle_sim.cycles > 0))
        policies)
    [ "bzip2_3"; "parser_1"; "gzip_1"; "art_3"; "ammp_1" ]

(* SPEC-like programs through formation (functional path of Table 3) *)
let test_spec_like_formation () =
  List.iter
    (fun w ->
      let baseline = Generators.baseline_of w in
      let c = Pipeline.compile ~backend:false Chf.Phases.Iupo_merged w in
      let r = Pipeline.run_functional c in
      check Alcotest.int
        (w.Workload.name ^ " checksum")
        baseline.Trips_sim.Func_sim.checksum r.Trips_sim.Func_sim.checksum;
      check Alcotest.bool
        (w.Workload.name ^ " fewer blocks executed")
        true
        (r.Trips_sim.Func_sim.blocks_executed
        <= baseline.Trips_sim.Func_sim.blocks_executed))
    Spec_like.all

(* the strongest property: random programs, random orderings, full
   pipeline with back end, strict exit checking throughout *)
let random_full_pipeline =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random programs survive the full pipeline"
       ~count:40
       ~print:(fun (w, _) -> Generators.print_workload w)
       QCheck2.Gen.(pair Generators.random_program_gen (int_bound 4))
       (fun (w, ord_idx) ->
         let ordering = List.nth orderings ord_idx in
         let baseline = Generators.baseline_of w in
         let c = Pipeline.compile ~backend:true ordering w in
         let r = Pipeline.run_functional c in
         r.Trips_sim.Func_sim.checksum = baseline.Trips_sim.Func_sim.checksum))

(* experiment harness plumbing *)
let test_table1_row_consistency () =
  let w = Option.get (Micro.by_name "gzip_1") in
  let outcome = Table1.run ~workloads:[ w ] () in
  check Alcotest.int "no failures" 0 (List.length outcome.Table1.failures);
  match outcome.Table1.rows with
  | [ row ] ->
    check Alcotest.int "four cells" 4 (List.length row.Table1.cells);
    check Alcotest.bool "baseline positive" true (row.Table1.bb_cycles > 0);
    List.iter
      (fun (c : Table1.cell) ->
        let expected =
          Stats.percent_improvement ~base:row.Table1.bb_cycles ~v:c.Table1.cycles
        in
        check (Alcotest.float 0.001) "improvement consistent" expected
          c.Table1.improvement)
      row.Table1.cells
  | _ -> Alcotest.fail "expected one row"

let test_figure7_regression_positive () =
  let outcome =
    Table1.run
      ~workloads:(List.filter_map Micro.by_name [ "gzip_1"; "sieve"; "vadd"; "art_1" ])
      ()
  in
  let points = Figure7.points_of_table1 outcome.Table1.rows in
  check Alcotest.int "4 workloads x 4 configs" 16 (List.length points);
  let reg = Figure7.regression points in
  check Alcotest.bool "positive correlation" true (reg.Stats.slope > 0.0)

let test_stats_regression () =
  let pts = [ (1.0, 2.0); (2.0, 4.0); (3.0, 6.0) ] in
  let r = Stats.linear_regression pts in
  check (Alcotest.float 1e-6) "slope" 2.0 r.Stats.slope;
  check (Alcotest.float 1e-6) "intercept" 0.0 r.Stats.intercept;
  check (Alcotest.float 1e-6) "r2" 1.0 r.Stats.r2;
  let noisy = [ (1.0, 2.0); (2.0, 3.5); (3.0, 6.5); (4.0, 7.9) ] in
  let rn = Stats.linear_regression noisy in
  check Alcotest.bool "noisy r2 in (0,1)" true (rn.Stats.r2 > 0.5 && rn.Stats.r2 <= 1.0)

let test_verification_catches_bad_compile () =
  (* corrupting a compiled CFG must trip the checksum verifier *)
  let w = Option.get (Micro.by_name "sieve") in
  let bb = Pipeline.compile ~backend:false Chf.Phases.Basic_blocks w in
  let baseline = Pipeline.run_functional bb in
  let c = Pipeline.compile ~backend:false Chf.Phases.Iupo_merged w in
  (* corrupt every store's value so the hot path is definitely hit *)
  let cfg = c.Pipeline.cfg in
  let corrupted = ref false in
  Trips_ir.Cfg.iter_blocks
    (fun b ->
      let instrs =
        List.map
          (fun (i : Trips_ir.Instr.t) ->
            match i.Trips_ir.Instr.op with
            | Trips_ir.Instr.Store (_, a, off) ->
              corrupted := true;
              {
                i with
                Trips_ir.Instr.op =
                  Trips_ir.Instr.Store (Trips_ir.Instr.Imm 12345, a, off);
              }
            | _ -> i)
          b.Trips_ir.Block.instrs
      in
      Trips_ir.Cfg.set_block cfg { b with Trips_ir.Block.instrs })
    cfg;
  check Alcotest.bool "corruption detected" true
    (!corrupted
    &&
    try
      ignore (Pipeline.verify_against ~baseline c);
      false
    with Pipeline.Miscompiled _ -> true)

(* EXPERIMENTS.md cannot go stale: every line of the fenced blocks
   under the Table 1, Table 2, Table 3 and Figure 7 headings must appear
   verbatim in the committed perf goldens, which the benchmark
   byte-checks against a fresh run of the paper experiments. *)
let quoted_sections = [ "Table 1"; "Table 2"; "Table 3"; "Figure 7" ]

let read_lines path =
  String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)

let test_experiments_quote_goldens () =
  let golden =
    read_lines "../perf/golden/paper_micro.txt"
    @ read_lines "../perf/golden/spec_gen_seed0.txt"
  in
  let section = ref None and fenced = ref false in
  let quoted = Hashtbl.create 4 in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"## " line then
        section :=
          List.find_opt
            (fun s -> String.starts_with ~prefix:("## " ^ s) line)
            quoted_sections
      else if String.starts_with ~prefix:"```" line then fenced := not !fenced
      else
        match !section with
        | Some s when !fenced && String.trim line <> "" ->
          Hashtbl.replace quoted s ();
          if not (List.mem line golden) then
            Alcotest.failf "EXPERIMENTS.md %s line not in perf/golden: %S" s
              line
        | _ -> ())
    (read_lines "../EXPERIMENTS.md");
  List.iter
    (fun s ->
      check Alcotest.bool (s ^ " quotes a fenced block") true
        (Hashtbl.mem quoted s))
    quoted_sections

let suite =
  ( "integration",
    [
      Alcotest.test_case "all micro x all orderings" `Slow
        test_all_micro_all_orderings;
      Alcotest.test_case "policies on sensitive kernels" `Slow
        test_policies_on_sensitive_kernels;
      Alcotest.test_case "SPEC-like formation" `Slow test_spec_like_formation;
      random_full_pipeline;
      Alcotest.test_case "table1 consistency" `Quick test_table1_row_consistency;
      Alcotest.test_case "figure7 regression" `Quick test_figure7_regression_positive;
      Alcotest.test_case "stats regression" `Quick test_stats_regression;
      Alcotest.test_case "verifier catches corruption" `Quick
        test_verification_catches_bad_compile;
      Alcotest.test_case "EXPERIMENTS.md quotes the perf goldens" `Quick
        test_experiments_quote_goldens;
    ] )
