(* The experiment registry: every table EXPERIMENTS.md quotes is one
   entry here, and the CLI and the daemon both read this list.  The
   paper's tables render their existing modules; the ablation is Table
   2's sweep over policy variants and the placement study a pair of
   compiles per kernel, both through the one Pipeline. *)

open Trips_workloads

type t = {
  name : string;
  doc : string;
  defaults : Workload.t list;
  render : cache:Stage.cache -> jobs:int -> Workload.t list -> string;
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
  if o.Sweep.failures <> [] then begin
    Fmt.pf fmt "@.%d failure(s):@." (List.length o.Sweep.failures);
    List.iter (fun f -> Fmt.pf fmt "  %a@." Pipeline.pp_failure f) o.Sweep.failures
  end

(* ---- placement ---------------------------------------------------------- *)

(* Placement-quality sensitivity: how much of (IUPO)'s win survives an
   unoptimized (round-robin) SPDI placement. *)
let placement_line ~cache w =
  let bb = Pipeline.compile ~cache ~backend:true Chf.Phases.Basic_blocks w in
  let c = Pipeline.compile ~cache ~backend:true Chf.Phases.Iupo_merged w in
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
         { Trips_sim.Cycle_sim.default_timing with
           Trips_sim.Cycle_sim.spatial_grid = 4 })
  in
  Fmt.str "%-14s | %28.1f | %28.1f@." w.Workload.name flat spatial

let render_placement ~cache ~jobs ws =
  Fmt.str "%-14s | %-28s | %-28s@." "benchmark" "optimized placement (IUPO)%"
    "round-robin placement (IUPO)%"
  ^ String.concat ""
      (List.map
         (function Ok line -> line | Error e -> raise e)
         (Engine.map ~jobs (placement_line ~cache) ws))

(* ---- the registry ------------------------------------------------------- *)

let all =
  [
    {
      name = "table1";
      doc = "Reproduce Table 1 (phase orderings, cycle counts).";
      defaults = Micro.all;
      render =
        (fun ~cache ~jobs workloads ->
          Fmt.str "%a" Table1.render (Table1.run ~cache ~jobs ~workloads ()));
    };
    {
      name = "table2";
      doc = "Reproduce Table 2 (block-selection heuristics).";
      defaults = Micro.all;
      render =
        (fun ~cache ~jobs workloads ->
          Fmt.str "%a" Table2.render (Table2.run ~cache ~jobs ~workloads ()));
    };
    {
      name = "table3";
      doc = "Reproduce Table 3 (SPEC-like block counts).";
      defaults = Spec_like.all;
      render =
        (fun ~cache ~jobs workloads ->
          Fmt.str "%a" Table3.render (Table3.run ~cache ~jobs ~workloads ()));
    };
    {
      name = "figure7";
      doc = "Reproduce Figure 7 (cycle vs block count reduction).";
      defaults = Micro.all;
      render =
        (fun ~cache ~jobs workloads ->
          Fmt.str "%a" Figure7.render (Table1.run ~cache ~jobs ~workloads ()));
    };
    {
      name = "ablation";
      doc = "Ablate the (IUPO) design knobs (policy variants, cycle counts).";
      defaults =
        kernels [ "ammp_1"; "bzip2_3"; "gzip_1"; "matrix_1"; "sieve"; "parser_1" ];
      render =
        (fun ~cache ~jobs workloads ->
          Fmt.str "%a" render_ablation
            (Sweep.run ~cache ~jobs ablation_spec workloads));
    };
    {
      name = "placement";
      doc = "Optimized (flat-hop) vs round-robin SPDI placement under (IUPO).";
      defaults = kernels [ "gzip_1"; "matrix_1"; "vadd"; "parser_1" ];
      render = render_placement;
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
