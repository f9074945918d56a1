(** Runtime attribution of simulated work back to lineage classes.

    A collector accumulates, per static block, how many dynamic
    instances executed, how many instruction slots were fetched vs
    actually fired (predicated-off slots are the difference), the
    block's share of total cycles, flushes it caused, and a breakdown of
    fetched/fired slots by {!Trips_ir.Lineage} class.  Every fetch slot
    lands in exactly one class, so per-class counts partition the fetch
    total; {!Cycle_sim} bills every cycle to exactly one block, so
    per-block cycles partition the run total. *)

open Trips_ir

type t

val create : unit -> t

val count_execution : t -> block:int -> unit
val count_instr : t -> block:int -> Instr.t -> fired:bool -> unit
val add_cycles : t -> block:int -> int -> unit
val add_flush : t -> block:int -> unit

type row = {
  r_block : int;
  r_execs : int;  (** dynamic block instances *)
  r_fetched : int;  (** dynamic instruction slots mapped *)
  r_fired : int;  (** slots that actually executed *)
  r_cycles : int;  (** share of total cycles billed to this block *)
  r_flushes : int;  (** mispredictions resolved by this block *)
  r_classes : (string * int * int) list;
      (** [(class, fetched, fired)], sorted by class name *)
}

val rows : t -> row list
(** Sorted by block id; deterministic for a deterministic run. *)
