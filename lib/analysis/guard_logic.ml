(* Syntactic reasoning about guard implication within a block.

   Repeated if-conversion builds guard predicates as conjunction chains
   (q = p AND c AND c' ...), so "q implies p" is decidable by walking the
   unguarded, single-definition [and]/[mov] instructions of the block.
   Used by the refined liveness analysis (a guarded definition's
   flow-through value is dead when every later reader's guard implies the
   definition's guard) and by predicate optimization.

   Implication is *positional*: the claim "whenever q (read at position
   [use_pos]) holds, g held at the position where g was read" is only
   sound if every register in the chain received its (unique, unguarded)
   definition before [use_pos], and callers must separately ensure the
   root guard register was not redefined between the two reads (liveness
   stamps each record with the guard register's definition count;
   predicate optimization aborts its scan).
   Sound for arbitrary integer values: a bitwise conjunction is nonzero
   only if both operands are. *)

open Trips_ir

type defs = (int, Instr.op * int) Hashtbl.t
(* register -> (defining operation, position), for registers defined
   exactly once in the block by an unguarded instruction *)

let build_defs (instrs : Instr.t list) : defs =
  let counts = Hashtbl.create 32 in
  List.iter
    (fun (i : Instr.t) ->
      List.iter
        (fun d ->
          Hashtbl.replace counts d
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts d)))
        (Instr.defs i))
    instrs;
  let defs = Hashtbl.create 32 in
  List.iteri
    (fun pos (i : Instr.t) ->
      match (i.Instr.guard, Instr.defs i) with
      | None, [ d ] when Hashtbl.find_opt counts d = Some 1 ->
        Hashtbl.replace defs d (i.Instr.op, pos)
      | _ -> ())
    instrs;
  defs

let implies ?(use_pos = max_int) (defs : defs) (q : Instr.guard)
    (g : Instr.guard) =
  (q.Instr.greg = g.Instr.greg && q.Instr.sense = g.Instr.sense)
  || q.Instr.sense && g.Instr.sense
     &&
     (* [walk r pos]: the value register [r] holds at position [pos]
        implies g.  Only definitions strictly before [pos] count. *)
     let rec walk r pos depth =
       r = g.Instr.greg
       || depth < 8
          &&
          match Hashtbl.find_opt defs r with
          | Some (op, def_pos) when def_pos < pos -> (
            match op with
            | Instr.Binop (Opcode.And, _, a, b) ->
              let side = function
                | Instr.Reg x -> walk x def_pos (depth + 1)
                | Instr.Imm _ -> false
              in
              side a || side b
            | Instr.Mov (_, Instr.Reg x) -> walk x def_pos (depth + 1)
            | _ -> false)
          | Some _ | None -> false
     in
     walk q.Instr.greg use_pos 0

let option_implies ?use_pos defs (q : Instr.guard option) (g : Instr.guard) =
  match q with Some q -> implies ?use_pos defs q g | None -> false
