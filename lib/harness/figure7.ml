(* Figure 7: cycle-count reduction versus block-count reduction across
   all Table 1 data points, with the linear fit whose r^2 the paper
   reports (~0.78).  Also computes the Section 7.3 aggregate block-count
   ratios (best static ordering ~2.1x vs convergent ~2.3x). *)

type point = {
  workload : string;
  ordering : Chf.Phases.ordering;
  block_reduction : int;  (* BB dynamic blocks - config dynamic blocks *)
  cycle_reduction : int;
}

let points_of_table1 (rows : Table1.row list) : point list =
  List.concat_map
    (fun (r : Table1.row) ->
      List.map
        (fun (c : Table1.cell) ->
          {
            workload = r.Table1.workload;
            ordering = c.Table1.ordering;
            block_reduction = r.Table1.bb_blocks - c.Table1.dyn_blocks;
            cycle_reduction = r.Table1.bb_cycles - c.Table1.cycles;
          })
        r.Table1.cells)
    rows

let regression points =
  Stats.linear_regression
    (List.map
       (fun p ->
         (float_of_int p.block_reduction, float_of_int p.cycle_reduction))
       points)

(* Aggregate block-count improvement ratio (executed blocks BB / executed
   blocks config) over the microbenchmarks, for one ordering. *)
let block_ratio (rows : Table1.row list) ordering =
  let bb, cfg =
    List.fold_left
      (fun (bb, cfg) (r : Table1.row) ->
        match
          List.find_opt (fun (c : Table1.cell) -> c.Table1.ordering = ordering) r.Table1.cells
        with
        | Some c -> (bb + r.Table1.bb_blocks, cfg + c.Table1.dyn_blocks)
        | None -> (bb, cfg))
      (0, 0) rows
  in
  if cfg = 0 then 0.0 else float_of_int bb /. float_of_int cfg

let render fmt (outcome : Table1.outcome) =
  let rows = outcome.Table1.rows in
  let points = points_of_table1 rows in
  let reg = regression points in
  Fmt.pf fmt
    "Figure 7: cycle reduction vs block reduction (all Table 1 points)@.";
  Fmt.pf fmt "%-16s %-8s %14s %14s@." "benchmark" "config" "d(blocks)"
    "d(cycles)";
  List.iter
    (fun p ->
      Fmt.pf fmt "%-16s %-8s %14d %14d@." p.workload
        (Chf.Phases.name p.ordering) p.block_reduction p.cycle_reduction)
    points;
  Fmt.pf fmt
    "linear fit: cycles_saved = %.2f * blocks_saved + %.1f   (r^2 = %.2f)@."
    reg.Stats.slope reg.Stats.intercept reg.Stats.r2;
  Fmt.pf fmt
    "block-count ratio over BB: best static ordering %.2fx, convergent %.2fx@."
    (Float.max
       (block_ratio rows Chf.Phases.Upio)
       (block_ratio rows Chf.Phases.Iupo))
    (block_ratio rows Chf.Phases.Iupo_merged);
  Pipeline.pp_failures fmt outcome.Table1.failures
