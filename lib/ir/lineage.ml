(* Provenance records for instructions and hyperblocks.

   The paper's evaluation argues in terms of where a hyperblock's
   instructions came from — if-conversion, head duplication (unrolling
   and peeling), tail duplication — and what those placement decisions
   cost at runtime.  A lineage record names the basic block an
   instruction was lowered into ([origin], a block id of the pre-formation
   CFG) and the transform that placed it into its current block
   ([placed]).  Records ride inside [Instr.t], so they survive every
   rewrite that copies an instruction record ([Cfg.refresh_instr_ids],
   guard conjunction in [Combine], the optimizer's in-place rewrites) and
   they roll back with the block bodies on a failed formation trial.

   Tagging is always on and inert: no pass reads lineage to make a
   decision, and the printers never render it. *)

type placement =
  | Original  (* survives from the lowered basic block *)
  | If_conv of int  (* simple (unique-predecessor) merge at step N *)
  | Tail_dup of int  (* tail-duplicated copy merged at step N *)
  | Unroll of int * int  (* head-dup unrolling: step N, appended iteration K *)
  | Peel of int * int  (* head-dup peeling: step N, peeled iteration K *)
  | Helper of string  (* machinery: "predication" movs/ands, "fanout" movs *)

type t = { origin : int; placed : placement }

let unknown = { origin = -1; placed = Original }

(* ---- classification ---------------------------------------------------- *)

(* The attribution classes of the per-block utilization report.  Every
   instruction falls in exactly one, so per-class fetched-slot counts
   partition the fetch total. *)
let class_name t =
  match t.placed with
  | Original -> if t.origin < 0 then "unknown" else "original"
  | If_conv _ -> "if_conv"
  | Tail_dup _ -> "tail_dup"
  | Unroll _ -> "unroll"
  | Peel _ -> "peel"
  | Helper _ -> "helper"

let describe t =
  let from_ =
    if t.origin < 0 then "" else Fmt.str " from b%d" t.origin
  in
  match t.placed with
  | Original -> if t.origin < 0 then "unknown" else Fmt.str "original%s" from_
  | If_conv n -> Fmt.str "if-conv step %d%s" n from_
  | Tail_dup n -> Fmt.str "tail-dup step %d%s" n from_
  | Unroll (n, k) -> Fmt.str "unroll step %d iter %d%s" n k from_
  | Peel (n, k) -> Fmt.str "peel step %d iter %d%s" n k from_
  | Helper what -> Fmt.str "%s helper%s" what from_

(* ---- hyperblock-level decisions ---------------------------------------- *)

(* One record per successful formation merge (or back-end split) into a
   block, kept chronologically in the CFG's side table; the report's
   "formation decisions that built this block" column renders them. *)
type decision = {
  d_step : int;  (* 1-based merge step within the hyperblock *)
  d_kind : string;  (* "simple" | "tail_dup" | "unroll" | "peel" | "split" *)
  d_src : int;  (* block id merged in (or split off) *)
}

let decision ~step ~kind ~src = { d_step = step; d_kind = kind; d_src = src }

let describe_decision d =
  Fmt.str "step %d: %s b%d" d.d_step d.d_kind d.d_src
