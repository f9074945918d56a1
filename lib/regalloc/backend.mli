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
(** Run the back end on a formed CFG, in place. *)

val reject_for_tests : int ref
(** Test-only fault injection: while positive, each {!run} decrements
    the counter and raises instead of allocating, exercising the
    pipeline's split-and-retry and backend-off degradation paths
    ([0] in production). *)
