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
  inputs : IntSet.t;
      (** the registers the block reads ({!Trips_analysis.Liveness.block_inputs});
          [reads] is its cardinal *)
  outputs : IntSet.t;
      (** the registers the block writes (its definitions live out);
          [writes] is its cardinal *)
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

val scan : Cfg.t -> (int * estimate) list
(** Every block's id and estimate, in {!Trips_ir.Cfg.blocks} order, from
    one liveness solve and one {!Trips_analysis.Liveness.gen_kill} per
    block.  The back end reads its budget and bank checks off this one
    scan each allocation round. *)

val over_budget : limits -> Cfg.t -> (int * estimate) list
(** The blocks of one {!scan} whose estimate breaks the limits; empty
    when every block fits.  The back end's post-fanout repair loop and
    {!Trips_verify.Cfg_verify.check}'s budget check read it. *)

val utilization : limits -> estimate -> float
(** Fullness as a fraction of the instruction budget. *)

val pp_estimate : Format.formatter -> estimate -> unit
