(** Functional (architectural) simulator.

    Interprets a CFG over an integer register file and a word-addressed
    memory, executing basic blocks and predicated hyperblocks uniformly:
    instructions run in program order, an instruction fires only when its
    guard holds, and the block's exit is the unique exit whose guard
    holds.  Strict mode asserts that uniqueness — the central dataflow
    invariant every transformation must preserve.

    Semantics are total (addresses wrap, a zero-length memory reads 0
    and absorbs stores, division by zero yields zero), so speculative
    code can never fault.  Reports block and instruction
    counts (the paper's Table 3 metric) and exposes per-step hooks used
    by the profiler and the cycle-level timing model. *)

open Trips_ir

exception Out_of_fuel of string
exception Exit_invariant_violated of string

type hooks = {
  on_block : int -> unit;  (** a dynamic block instance begins *)
  on_instr : Instr.t -> fired:bool -> addr:int -> unit;
      (** per instruction in program order; [addr] is the memory address
          a fired memory operation touched, -1 for none *)
  on_exit : Block.exit_ -> unit;  (** the exit that fired *)
}

val no_hooks : hooks

type result = {
  ret : int option;  (** value returned by the final [Ret], if any *)
  blocks_executed : int;
  instrs_executed : int;  (** instructions whose guard held *)
  instrs_fetched : int;  (** all instructions of executed blocks *)
  checksum : int;  (** digest of the return value and final memory *)
}

val memory_checksum : int array -> int

val run :
  ?fuel:int ->
  ?strict_exits:bool ->
  ?hooks:hooks ->
  ?registers:(int * int) list ->
  memory:int array ->
  Cfg.t ->
  result
(** Run to completion (first firing [Ret] exit).  [memory] is mutated in
    place; [registers] preloads parameter values.
    @param fuel dynamic-instruction bound (default 50M); a run that
    needs exactly [fuel] instructions completes.
    @raise Out_of_fuel when exceeded.
    @raise Exit_invariant_violated when no exit guard holds, or — with
    [strict_exits] (default true) — more than one does. *)

val run_profiled :
  ?fuel:int ->
  ?strict_exits:bool ->
  ?registers:(int * int) list ->
  ?loops:Trips_analysis.Loops.t ->
  memory:int array ->
  Cfg.t ->
  result * Trips_profile.Profile.t
(** Run while collecting an edge/block/trip-count profile.  Loop
    information, when provided, enables trip-count histograms. *)
