(** The phase orderings compared in Table 1.

    Parenthesized phases are merged into convergent formation's iterative
    loop; the others run as discrete passes:

    - BB: basic blocks as TRIPS blocks (baseline);
    - UPIO: CFG-level Unroll+Peel, then incremental If-conversion with
      tail duplication, then scalar Optimization;
    - IUPO: If-conversion first, then Unroll+Peel with accurate
      post-if-conversion sizes, then Optimization;
    - (IUP)O: convergent formation with head duplication but optimization
      only at the end;
    - (IUPO): full convergent formation — optimization after every merge,
      so size estimates are tight and more blocks fit.  It runs formation
      under the policy as given, so a policy that turns off head
      duplication or iterative optimization ablates that knob. *)

open Trips_profile

type ordering =
  | Basic_blocks
  | Upio
  | Iupo
  | Iup_o  (** (IUP)O *)
  | Iupo_merged  (** (IUPO) *)

val all : ordering list

val table_orderings : ordering list
(** The four formed configurations the experiments sweep against the
    basic-block baseline (Tables 1 and 3, Figure 7) — the single source
    of truth for every table's column set. *)

val name : ordering -> string

type step = {
  step_name : string;  (** "optimize", "unroll+peel", "formation", ... *)
  step_run : unit -> unit;  (** mutates the CFG and the plan's stats *)
}

val plan :
  ?config:Policy.config -> ordering -> Trips_ir.Cfg.t -> Profile.t ->
  Formation.stats * step list
(** Decompose the ordering into named steps over the CFG; running every
    step in order is exactly {!apply}.  The per-phase verifier
    ([Trips_verify.Diff_check]) interleaves structural and differential
    checks between steps, so the first transform that breaks an invariant
    or changes observable behavior is named.  The returned stats record
    is accumulated into as steps run. *)

val apply :
  ?config:Policy.config -> ordering -> Trips_ir.Cfg.t -> Profile.t ->
  Formation.stats
(** Apply the ordering in place.  Classical scalar optimization runs
    first in every configuration, mirroring the Scale front end.  Table 1
    uses the default breadth-first EDGE policy throughout. *)
