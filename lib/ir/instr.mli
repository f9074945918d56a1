(** Predicated instructions of the TRIPS intermediate language.

    Registers are plain integers: architectural registers occupy
    [0 .. Machine.num_arch_regs), virtual registers start at
    [Machine.first_virtual_reg].  Predicates are ordinary 0/1 register
    values, as in TRIPS dataflow predication: a guard [(r, sense)] allows
    the instruction to execute only when [(r <> 0) = sense].  When the
    guard fails, the instruction is nullified: it writes nothing and has
    no side effect. *)

type reg = int

type operand = Reg of reg | Imm of int

type guard = { greg : reg; sense : bool }
(** Execute only when [(greg <> 0) = sense]. *)

type op =
  | Binop of Opcode.binop * reg * operand * operand  (** [dst, src1, src2] *)
  | Cmp of Opcode.cmpop * reg * operand * operand
      (** test producing a 0/1 predicate value *)
  | Mov of reg * operand
  | Load of reg * operand * int  (** [dst <- mem\[addr + offset\]] *)
  | Store of operand * operand * int  (** [mem\[addr + offset\] <- value] *)
  | Nullw of reg
      (** Null register write: emits the current value of the register as
          a block output without changing it, satisfying the TRIPS
          constant-output constraint on predicated paths without a real
          writer. *)

type t = { id : int; op : op; guard : guard option; lineage : Lineage.t }
(** [id] is unique within a function ([Cfg] allocates them).  [lineage]
    is inert provenance — no pass reads it to make a decision and {!pp}
    never renders it. *)

val make : ?guard:guard -> ?lineage:Lineage.t -> int -> op -> t
(** [lineage] defaults to {!Lineage.unknown}. *)

val with_lineage : Lineage.t -> t -> t

val defs : t -> reg list
(** Registers written (possibly conditionally, if guarded). *)

val uses : t -> reg list
(** Registers read, including the guard register and, for [Nullw], the
    forwarded register. *)

val is_load : t -> bool
val is_store : t -> bool

val has_side_effect : t -> bool
(** Instructions that may not be removed even when their results are
    unused (stores). *)

val map_regs : (reg -> reg) -> t -> t
(** Rename every register the instruction mentions, guard included. *)

val pp_operand : Format.formatter -> operand -> unit
val pp_guard : Format.formatter -> guard -> unit
val pp : Format.formatter -> t -> unit
