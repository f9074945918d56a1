(** Discrete unroll/peel phases for the classical orderings of Table 1.

    UPIO unrolls and peels {e before} if-conversion: CFG-level body
    replication (tests retained) with a factor chosen from a pessimistic
    pre-predication size estimate, innermost loops only.  IUPO unrolls
    and peels {e after} if-conversion: loops are single self-looping
    hyperblocks by then, so the factor is accurate, but it is applied in
    one shot with no interleaved optimization — which is what separates
    it from convergent formation. *)

open Trips_ir
open Trips_profile

val run_before_formation : Policy.config -> Cfg.t -> Profile.t -> int * int
(** UPIO's U and P.  Returns (unrolled, peeled) iteration counts. *)

val run_after_formation :
  Policy.config -> Cfg.t -> Profile.t -> Formation.stats -> unit
(** IUPO's U and P, accumulating into the given statistics. *)
