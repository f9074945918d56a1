(** Back-end driver: register allocation, reverse if-conversion on
    constraint violations, then fanout insertion — the lower half of the
    compiler flow in paper Figure 6. *)

open Trips_ir

type report = {
  mapping : int IntMap.t;
      (** original virtual register -> architectural home; callers use it
          to translate front-end register names (e.g. kernel parameters) *)
  cross_block_values : int;
  splits : int;  (** blocks split by reverse if-conversion *)
  fanout_movs : int;
  rounds : int;  (** allocation rounds run *)
}

val run : Cfg.t -> report
(** Run the back end on a formed CFG, in place.  The result fits the
    TRIPS budgets: every block passes {!Chf.Constraints.over_budget}
    under {!Chf.Constraints.trips_limits}.
    @raise Failure ["backend: <cfg>: …"] when allocation runs out of
    registers, or when reverse if-conversion cannot get there within its
    allocation and post-fanout re-split rounds. *)

val offenders : Cfg.t -> Reg_alloc.violation list * int list
(** What one allocation round must repair in an allocated CFG: its
    {!Reg_alloc.violations} and the ids of its blocks over
    {!Chf.Constraints.trips_limits}, both read off one
    {!Chf.Constraints.scan}. *)
