(** Figure 7: cycle-count reduction versus block-count reduction across
    all Table 1 data points, with the linear fit whose r² the paper
    reports, and the Section 7.3 aggregate block-count ratios. *)

type point = {
  workload : string;
  ordering : Chf.Phases.ordering;
  block_reduction : int;
  cycle_reduction : int;
}

val points_of_table1 : Table1.row list -> point list
(** Failed cells are simply absent from the rows, so the scatter is
    built from successful configurations only. *)

val regression : point list -> Stats.regression

val render : Format.formatter -> Table1.outcome -> unit
(** The scatter, fit and ratios, then Table 1's failure footer
    ({!Pipeline.pp_failures}). *)
