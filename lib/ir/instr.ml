(* Predicated instructions of the TRIPS intermediate language.

   Registers are plain integers.  Architectural registers occupy
   [0 .. Machine.num_arch_regs), virtual registers (front-end temporaries
   and optimizer-created values) start at [Machine.first_virtual_reg].
   Predicates are ordinary 0/1 register values, as in TRIPS dataflow
   predication: a guard [(r, sense)] allows the instruction to execute
   only when [r <> 0] equals [sense]. *)

type reg = int

type operand = Reg of reg | Imm of int

type guard = { greg : reg; sense : bool }

type op =
  | Binop of Opcode.binop * reg * operand * operand
  | Cmp of Opcode.cmpop * reg * operand * operand
  | Mov of reg * operand
  | Load of reg * operand * int  (* dst <- mem[addr + offset] *)
  | Store of operand * operand * int  (* mem[addr + offset] <- value *)
  | Nullw of reg
      (* Null register write: produces the current value of [reg] as a
         block output without changing it.  Inserted to satisfy the TRIPS
         constant-output constraint on predicated paths that lack a real
         writer. *)

type t = { id : int; op : op; guard : guard option; lineage : Lineage.t }

let make ?guard ?(lineage = Lineage.unknown) id op = { id; op; guard; lineage }

let with_lineage lineage i = { i with lineage }

(** Registers written by the instruction. *)
let defs i =
  match i.op with
  | Binop (_, d, _, _) | Cmp (_, d, _, _) | Mov (d, _) | Load (d, _, _) -> [ d ]
  | Store _ -> []
  | Nullw d -> [ d ]

let reg_of_operand = function Reg r -> Some r | Imm _ -> None

(** Registers read by the instruction, including its guard register and,
    for [Nullw], the forwarded register. *)
let uses i =
  let operands =
    match i.op with
    | Binop (_, _, a, b) | Cmp (_, _, a, b) | Store (a, b, _) -> [ a; b ]
    | Mov (_, a) | Load (_, a, _) -> [ a ]
    | Nullw r -> [ Reg r ]
  in
  let regs = List.filter_map reg_of_operand operands in
  match i.guard with None -> regs | Some g -> g.greg :: regs

let is_load i = match i.op with Load _ -> true | _ -> false
let is_store i = match i.op with Store _ -> true | _ -> false

(** [has_side_effect i] holds for instructions that may not be removed
    even when their results are unused. *)
let has_side_effect i = is_store i

let map_operand f = function Reg r -> Reg (f r) | Imm n -> Imm n

(** Rename every register mentioned by the instruction with [f]. *)
let map_regs f i =
  let op =
    match i.op with
    | Binop (o, d, a, b) -> Binop (o, f d, map_operand f a, map_operand f b)
    | Cmp (o, d, a, b) -> Cmp (o, f d, map_operand f a, map_operand f b)
    | Mov (d, a) -> Mov (f d, map_operand f a)
    | Load (d, a, off) -> Load (f d, map_operand f a, off)
    | Store (v, a, off) -> Store (map_operand f v, map_operand f a, off)
    | Nullw r -> Nullw (f r)
  in
  let guard =
    match i.guard with
    | None -> None
    | Some g -> Some { g with greg = f g.greg }
  in
  { i with op; guard }

let pp_operand fmt = function
  | Reg r -> Fmt.pf fmt "r%d" r
  | Imm n -> Fmt.pf fmt "#%d" n

let pp_guard fmt g =
  Fmt.pf fmt "<%sr%d>" (if g.sense then "" else "!") g.greg

let pp fmt i =
  let pg fmt = function None -> () | Some g -> Fmt.pf fmt "%a " pp_guard g in
  match i.op with
  | Binop (o, d, a, b) ->
    Fmt.pf fmt "%a%a r%d, %a, %a" pg i.guard Opcode.pp_binop o d pp_operand a
      pp_operand b
  | Cmp (o, d, a, b) ->
    Fmt.pf fmt "%a%a r%d, %a, %a" pg i.guard Opcode.pp_cmpop o d pp_operand a
      pp_operand b
  | Mov (d, a) -> Fmt.pf fmt "%amov r%d, %a" pg i.guard d pp_operand a
  | Load (d, a, off) ->
    Fmt.pf fmt "%ald r%d, %d(%a)" pg i.guard d off pp_operand a
  | Store (v, a, off) ->
    Fmt.pf fmt "%ast %a, %d(%a)" pg i.guard pp_operand v off pp_operand a
  | Nullw r -> Fmt.pf fmt "%anullw r%d" pg i.guard r
