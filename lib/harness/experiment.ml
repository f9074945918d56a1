(* The experiment registry: every table EXPERIMENTS.md quotes is one
   entry here, and the CLI and the daemon both read this list.  The
   paper's tables render their existing modules; the ablation is Table
   2's sweep over policy variants and the placement study a two-column
   sweep, so every cell is measured (and checksum-verified) by Sweep. *)

open Trips_sim
open Trips_workloads

type t = {
  name : string;
  doc : string;
  defaults : Workload.t list;
  render :
    cache:Stage.cache -> jobs:int -> Workload.t list ->
    string * Pipeline.failure list;
}

let kernels names = List.filter_map Micro.by_name names

(* ---- ablation ----------------------------------------------------------- *)

(* Ablations on the design knobs DESIGN.md calls out: head duplication,
   iterative optimization, the tail-duplication size cap, slack and the
   §9 block-splitting extension, each a policy variant run under (IUPO). *)
let variants =
  let base = Chf.Policy.edge_default in
  [
    ("baseline (IUPO)", base);
    ("no head duplication", { base with Chf.Policy.enable_head_dup = false });
    ("no tail duplication", { base with Chf.Policy.enable_tail_dup = false });
    ("no iterative opt", { base with Chf.Policy.iterate_opt = false });
    ("block splitting (§9)", { base with Chf.Policy.enable_block_splitting = true });
    ("tail-dup cap 8", { base with Chf.Policy.max_tail_dup_instrs = 8 });
    ("tail-dup cap 128", { base with Chf.Policy.max_tail_dup_instrs = 128 });
    ("no slack", { base with Chf.Policy.slack = 0 });
    ("slack 32", { base with Chf.Policy.slack = 32 });
  ]

(* Table 2's cell (compile, checksum-verify, cycle-simulate against the
   BB baseline) with one (IUPO) column per variant *)
let ablation_spec =
  {
    Table2.spec with
    Sweep.columns =
      List.map
        (fun (label, config) ->
          { Table2.label; config; ordering = Chf.Phases.Iupo_merged })
        variants;
  }

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

(* The sweep's rows are workloads; the table transposes them so that
   variants stay rows and kernels become columns. *)
let render_ablation fmt (o : Table2.cell Sweep.outcome) =
  Fmt.pf fmt "%-22s" "variant";
  List.iter (fun r -> Fmt.pf fmt " | %-9s" r.Sweep.row_workload) o.Sweep.rows;
  Fmt.pf fmt " | avg@.";
  List.iter
    (fun (label, _) ->
      Fmt.pf fmt "%s" (pad_label 22 label);
      let improvements =
        List.filter_map
          (fun r ->
            let imp =
              List.find_map
                (fun (c : Table2.cell) ->
                  if c.label = label then Some c.improvement else None)
                r.Sweep.row_cells
            in
            (match imp with
            | Some imp -> Fmt.pf fmt " | %9.1f" imp
            | None -> Fmt.pf fmt " | %9s" "failed");
            imp)
          o.Sweep.rows
      in
      Fmt.pf fmt " | %5.1f@." (Stats.mean improvements))
    variants;
  Pipeline.pp_failures fmt o.Sweep.failures

(* ---- placement ---------------------------------------------------------- *)

(* Placement-quality sensitivity: how much of (IUPO)'s win survives an
   unoptimized (round-robin) SPDI placement.  A cell is a column's flat
   and round-robin cycles; the flat BB cycles come from the baseline. *)
let round_robin = { Cycle_sim.default_timing with Cycle_sim.spatial_grid = 4 }

let placement_spec =
  {
    Sweep.columns = [ Chf.Phases.Basic_blocks; Chf.Phases.Iupo_merged ];
    configure = (fun ordering -> (ordering, Chf.Policy.edge_default));
    backend = true;
    cycles = true;
    attribution = false;
    cell =
      (fun _ ordering m ->
        let rr = Pipeline.run_cycles ~timing:round_robin m.Pipeline.compiled in
        (ordering, ((Option.get m.Pipeline.cycles).Cycle_sim.cycles, rr.Cycle_sim.cycles)));
  }

let render_placement fmt (o : _ Sweep.outcome) =
  Fmt.pf fmt "%-14s | %-28s | %-28s@." "benchmark" "optimized placement (IUPO)%"
    "round-robin placement (IUPO)%";
  List.iter
    (fun r ->
      let cycles ordering pick =
        Option.map pick (List.assoc_opt ordering r.Sweep.row_cells)
      in
      let improvement base v =
        match (base, v) with
        | Some base, Some v -> Fmt.str "%28.1f" (Stats.percent_improvement ~base ~v)
        | _ -> Fmt.str "%28s" "failed"
      in
      let bb = Option.get r.Sweep.row_baseline.Sweep.base_cycles in
      Fmt.pf fmt "%-14s | %s | %s@." r.Sweep.row_workload
        (improvement (Some bb.Cycle_sim.cycles) (cycles Chf.Phases.Iupo_merged fst))
        (improvement
           (cycles Chf.Phases.Basic_blocks snd)
           (cycles Chf.Phases.Iupo_merged snd)))
    o.Sweep.rows;
  Pipeline.pp_failures fmt o.Sweep.failures

(* ---- the registry ------------------------------------------------------- *)

let sweep render spec ~cache ~jobs workloads =
  let o = Sweep.run ~cache ~jobs spec workloads in
  (Fmt.str "%a" render o, o.Sweep.failures)

let all =
  [
    {
      name = "table1";
      doc = "Reproduce Table 1 (phase orderings, cycle counts).";
      defaults = Micro.all;
      render =
        (fun ~cache ~jobs workloads ->
          let o = Table1.run ~cache ~jobs ~workloads () in
          (Fmt.str "%a" Table1.render o, o.Table1.failures));
    };
    {
      name = "table2";
      doc = "Reproduce Table 2 (block-selection heuristics).";
      defaults = Micro.all;
      render =
        (fun ~cache ~jobs workloads ->
          let o = Table2.run ~cache ~jobs ~workloads () in
          (Fmt.str "%a" Table2.render o, o.Table2.failures));
    };
    {
      name = "table3";
      doc = "Reproduce Table 3 (SPEC-like block counts).";
      defaults = Spec_like.all;
      render =
        (fun ~cache ~jobs workloads ->
          let o = Table3.run ~cache ~jobs ~workloads () in
          (Fmt.str "%a" Table3.render o, o.Table3.failures));
    };
    {
      name = "figure7";
      doc = "Reproduce Figure 7 (cycle vs block count reduction).";
      defaults = Micro.all;
      render =
        (fun ~cache ~jobs workloads ->
          let o = Table1.run ~cache ~jobs ~workloads () in
          (Fmt.str "%a" Figure7.render o, o.Table1.failures));
    };
    {
      name = "ablation";
      doc = "Ablate the (IUPO) design knobs (policy variants, cycle counts).";
      defaults =
        kernels [ "ammp_1"; "bzip2_3"; "gzip_1"; "matrix_1"; "sieve"; "parser_1" ];
      render =
        (fun ~cache ~jobs workloads ->
          sweep render_ablation ablation_spec ~cache ~jobs workloads);
    };
    {
      name = "placement";
      doc = "Optimized (flat-hop) vs round-robin SPDI placement under (IUPO).";
      defaults = kernels [ "gzip_1"; "matrix_1"; "vadd"; "parser_1" ];
      render = sweep render_placement placement_spec;
    };
  ]

let find name =
  match List.find_opt (fun e -> e.name = name) all with
  | Some e -> Ok e
  | None ->
    Error
      (`Msg
        (Fmt.str "unknown experiment %S (%s)" name
           (String.concat "|" (List.map (fun e -> e.name) all))))
