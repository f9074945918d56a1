(** The control-flow graph of a single function.

    The block table is mutable because hyperblock formation rewrites the
    graph heavily; blocks themselves are immutable records replaced
    wholesale, so analyses can safely retain a {!Block.t}.  Fresh-id
    counters for blocks, instructions and registers live here so that
    every transformation can allocate names without clashing. *)

type t = {
  name : string;
  mutable entry : int;
  blocks : (int, Block.t) Hashtbl.t;
  mutable next_block : int;
  mutable next_instr : int;
  mutable next_reg : int;
  decisions : (int, Lineage.decision list) Hashtbl.t;
      (** per-block formation decisions, most recent first; use
          {!decisions} for chronological access *)
}

val create : ?name:string -> unit -> t

val fresh_block_id : t -> int

val fresh_reg : t -> int
(** A fresh virtual register (numbered from
    {!Machine.first_virtual_reg}). *)

val instr : ?guard:Instr.guard -> ?lineage:Lineage.t -> t -> Instr.op -> Instr.t
(** Build an instruction with a fresh id. *)

val mem : t -> int -> bool

val block : t -> int -> Block.t
(** @raise Invalid_argument if the block does not exist. *)

val block_opt : t -> int -> Block.t option

val set_block : t -> Block.t -> unit
(** Insert or overwrite a block under its own id. *)

val remove_block : t -> int -> unit

val block_ids : t -> int list
(** Block ids in increasing order (deterministic iteration). *)

val blocks : t -> Block.t list
val iter_blocks : (Block.t -> unit) -> t -> unit
val num_blocks : t -> int
val total_instrs : t -> int

val successors : t -> int -> int list
(** Distinct successors of a block. *)

val predecessor_map : t -> IntSet.t IntMap.t
(** Map from block id to the set of its predecessors (recomputed). *)

val predecessors : t -> int -> int list

val copy : t -> t
(** Deep copy sharing no mutable state with the original. *)

val stamp_origins : t -> unit
(** Stamp every instruction as {!Lineage.Original} to its enclosing
    block: the baseline lineage of a freshly lowered CFG. *)

val record_decision : t -> int -> Lineage.decision -> unit
(** Append a formation decision to a block's provenance record. *)

val decisions : t -> int -> Lineage.decision list
(** Decisions recorded against a block, in chronological order. *)

val copy_decisions : t -> src:int -> dst:int -> unit
(** Copy [src]'s decision history onto [dst] (used by block splitting:
    both halves descend from the same formation history). *)

val refresh_instr_ids : t -> Block.t -> Block.t
(** Renumber every instruction with fresh ids; used when duplicating a
    block so instruction ids stay globally unique. *)

exception Ill_formed of string

val validate : t -> unit
(** Check structural well-formedness: the entry exists, every exit
    targets an existing block, every block has at least one exit, at most
    one exit is unguarded, and instruction ids are globally unique.
    @raise Ill_formed otherwise. *)

val pp : Format.formatter -> t -> unit
