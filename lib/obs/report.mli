(** Per-function / per-block utilization reports ([chfc report]).

    The presentation half of the provenance layer: the harness hands
    this module plain data rows (block sizes, dynamic fetch/fire
    counts, cycle shares, flushes, per-lineage-class breakdowns and the
    formation decisions that built each block); rendering mirrors the
    axes of the paper's Tables 2-3 — %% of 128-slot capacity used,
    useful-instruction ratio, duplication-origin work executed vs
    wasted, and the top-10 worst blocks.

    Deterministic by construction: the cycle model has no wall clock,
    rows arrive sorted, formats are fixed — so reports are
    byte-identical across machines and [--jobs] settings. *)

type class_count = { cls : string; cc_fetched : int; cc_fired : int }

type block_row = {
  block : int;  (** block id in the final CFG *)
  static_size : int;  (** static instruction count *)
  execs : int;  (** dynamic block instances *)
  fetched : int;  (** dynamic instruction slots mapped *)
  fired : int;  (** slots that actually executed *)
  cycles : int;  (** share of the function's total cycles *)
  flushes : int;
  classes : class_count list;  (** sorted by class name *)
  decisions : string list;  (** formation decisions, chronological *)
}

type func_report = {
  fn : string;  (** workload name *)
  capacity : int;  (** machine slot capacity (128) *)
  total_cycles : int;
  blocks : block_row list;  (** sorted by block id *)
}

val worst : ?n:int -> func_report list -> (string * block_row) list
(** The [n] (default 10) blocks with the most wasted slots across all
    functions, with a total tie-break order. *)

val render : Format.formatter -> func_report list -> unit
(** Deterministic text tables, one per function, plus the worst-blocks
    ranking. *)

val to_json : func_report list -> string
(** Deterministic JSON with fixed field order. *)
