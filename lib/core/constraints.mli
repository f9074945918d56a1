(** TRIPS structural-constraint checking with back-end size estimation.

    Hyperblock formation runs long before register allocation and fanout
    insertion, so [LegalBlock] must {e estimate} the final block size
    (paper Section 6): besides the instructions currently in the block it
    accounts for one branch per exit, fanout movs for over-subscribed
    values, and null writes for the constant-output constraint — plus the
    register-read, register-write and load/store-identifier budgets. *)

open Trips_ir

type estimate = {
  instrs : int;  (** regular-instruction budget consumed, incl. overheads *)
  loads_stores : int;
  reads : int;  (** architectural register reads (block inputs) *)
  writes : int;  (** architectural register writes (block outputs) *)
}

type limits = {
  max_instrs : int;
  max_load_store : int;
  max_reads : int;
  max_writes : int;
}

val trips_limits : limits
(** The TRIPS prototype's 128/32/32/32. *)

val fanout_movs : int -> int
(** Extra movs needed to fan a value out to the given consumer count. *)

val estimate :
  ?gk:Trips_analysis.Liveness.gen_kill -> Block.t -> live_out:IntSet.t -> estimate
(** The resources the block will occupy after the back end runs, given
    the registers live out of it.  [gk], when given, must be the block's
    {!Trips_analysis.Liveness.gen_kill}; it saves recomputing it. *)

val legal : ?slack:int -> limits -> estimate -> bool
(** Does the estimate fit, with [slack] instruction slots held back for
    register-allocator spill code? *)

val over_budget : limits -> Cfg.t -> (int * estimate) list
(** The id and estimate of every block of the graph that breaks the
    limits, in {!Trips_ir.Cfg.blocks} order; empty when every block fits.
    The back end's repair loop and {!Trips_verify.Cfg_verify.check}'s
    budget check both read this one scan. *)

val utilization : limits -> estimate -> float
(** Fullness as a fraction of the instruction budget. *)

val pp_estimate : Format.formatter -> estimate -> unit
