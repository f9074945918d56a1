(** Register allocation for TRIPS.

    Only values live across a block boundary occupy architectural
    registers — intra-block values travel on the operand network in
    target form.  Boundary-live virtual registers are colored greedily
    onto the 128 architectural registers.  Each gets one interference
    row: the union of the sets live-in ∪ live-out ∪ definitions of the
    blocks it belongs to (so even dead guarded definitions cannot
    clobber a live neighbor), which is its neighbourhood in per-block
    cliques over every register; no edge between block-local
    temporaries is built.  Picking the lowest free color interleaves
    values across the four banks.  Architectural registers from a
    previous round act as precolored nodes when allocation repeats after
    reverse if-conversion. *)

open Trips_ir

type result = {
  mapping : int IntMap.t;  (** virtual -> architectural *)
  cross_block_values : int;
}

val run : Cfg.t -> result
(** Allocate and rewrite the CFG in place.
    @raise Failure ["backend: <cfg>: out of registers …"] when a value
    interferes with values holding all 128 registers. *)

type violation = { block : int; reads_over : int; writes_over : int }

val violations : (int * Chf.Constraints.estimate) list -> violation list
(** The blocks, among those of a {!Chf.Constraints.scan} of the
    allocated CFG, whose per-bank architectural register reads or writes
    exceed the TRIPS budget; the back-end driver repairs them by reverse
    if-conversion. *)
