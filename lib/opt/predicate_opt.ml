(* Predicate optimization: implicit predication.

   On a dataflow machine it suffices to predicate the head of a dependence
   chain; instructions that only feed consumers executing under the same
   or a *stronger* predicate can run speculatively — their results are
   simply never consumed when the predicate is false (Smith et al.,
   "Dataflow predication").  The size benefit is indirect but real: each
   dropped guard removes a consumer of the predicate register, saving
   fanout instructions; the timing benefit is direct, since the
   instruction no longer waits for the predicate to resolve, and dropped
   guards unlock chain folding in value numbering.

   Guard implication is syntactic: q implies g when q = g, or q's
   defining instruction in this block is an unguarded [and] one of whose
   operands implies g (the exact shape repeated if-conversion builds:
   q = g AND c AND c' ...).  Only positively-sensed guards participate.

   Safety conditions for dropping the guard of [i] (which defines [d]):
   - [i] has no side effect (stores keep their guards);
   - [d] is not redefined later in the block;
   - every later use of [d] inside the block is under a guard implying
     [i]'s guard;
   - [d] is neither live out of the block nor read by an exit.

   Executing [i] unconditionally can then only write a value nobody
   observes on the guard-false path; operands holding stale values cannot
   fault because the IR's semantics are total. *)

open Trips_ir
open Trips_analysis

(* The guard under which instruction [j]'s read of [r] can actually be
   observed.  Usually [j]'s own guard — but an *unguarded* conjunction
   [and d, p, r] masks a garbage [r] whenever [p] is false, so the read
   is effectively guarded by [(p, true)].  This is how the predicate
   combination instructions if-conversion emits avoid pinning guards onto
   the tests that feed them. *)
let effective_use_guard (j : Instr.t) r : Instr.guard option =
  match (j.Instr.guard, j.Instr.op) with
  | (Some _ as g), _ -> g
  | None, Instr.Binop (Opcode.And, _, Instr.Reg p, Instr.Reg r') when r' = r && p <> r ->
    Some { Instr.greg = p; sense = true }
  | None, Instr.Binop (Opcode.And, _, Instr.Reg r', Instr.Reg p) when r' = r && p <> r ->
    Some { Instr.greg = p; sense = true }
  | None, _ -> None

(** Drop guards that implicit predication makes unnecessary. *)
let run (b : Block.t) ~live_out : Block.t =
  let exit_reads = Block.exit_uses b in
  let observable = IntSet.union live_out exit_reads in
  let defs = Guard_logic.build_defs b.Block.instrs in
  (* a scan over the rest of the block carries the position of its head,
     so guard implication can be checked positionally *)
  let rec rewrite pos = function
    | [] -> []
    | (i : Instr.t) :: rest ->
      let i =
        match (i.Instr.guard, Instr.defs i) with
        | Some g, [ d ]
          when (not (Instr.has_side_effect i)) && droppable g d (pos + 1) rest ->
          { i with Instr.guard = None }
        | _ -> i
      in
      i :: rewrite (pos + 1) rest
  and droppable g d pos rest = shielded g d pos rest 0
  and shielded g d pos rest depth =
    (* scan forward: every use of [d] must be *shielded* with respect to
       [g] — directly under a guard at least as strong as [g], or an
       unguarded side-effect-free instruction whose own (unobservable)
       result is recursively shielded, so a speculative value can never
       reach an observable sink without crossing an implied guard.  An
       unconditional redefinition ends the range (later readers see the
       new value either way); a conditional redefinition merges values,
       so bail out.  If the value survives to the end of the block it
       must not be observable outside it. *)
    let use_shielded pos (j : Instr.t) tail =
      (* A use of [d] as [j]'s own guard register is a *control* use: the
         shielding argument ("when the reader executes the values
         coincide") is circular there, because whether the reader
         executes depends on [d]'s value.  Never drop across it. *)
      match j.Instr.guard with
      | Some q when q.Instr.greg = d -> false
      | _ -> (
        match effective_use_guard j d with
        | Some q -> Guard_logic.implies ~use_pos:pos defs q g
        | None ->
          depth < 6
          && (not (Instr.has_side_effect j))
          && j.Instr.guard = None
          &&
          (match Instr.defs j with
          | [ d2 ] when d2 <> d -> shielded g d2 (pos + 1) tail (depth + 1)
          | _ -> false))
    in
    let rec scan pos = function
      | [] -> not (IntSet.mem d observable)
      | (j : Instr.t) :: tail ->
        let uses_d = List.mem d (Instr.uses j) in
        let defs_d = List.mem d (Instr.defs j) in
        if uses_d && not (use_shielded pos j tail) then false
        else if List.mem g.Instr.greg (Instr.defs j) then
          (* the candidate's guard register is redefined here: later
             guards named after it denote a different predicate, so from
             this point [d] may not be read at all and must eventually be
             unconditionally overwritten or be unobservable *)
          (defs_d && j.Instr.guard = None) || scan_no_uses d tail
        else if defs_d then
          (* an unconditional redefinition kills the value outright; a
             guarded one only narrows who can still see it, and the
             shielding requirement on the remaining uses already covers
             every such path *)
          j.Instr.guard = None || scan (pos + 1) tail
        else scan (pos + 1) tail
    in
    scan pos rest
  and scan_no_uses d tail =
    (* after the guard register was clobbered: safe only if d is never
       read again, until an unconditional redefinition kills it or the
       block ends with d unobservable *)
    match tail with
    | [] -> not (IntSet.mem d observable)
    | (j : Instr.t) :: more ->
      if List.mem d (Instr.uses j) then false
      else if List.mem d (Instr.defs j) && j.Instr.guard = None then true
      else scan_no_uses d more
  in
  { b with Block.instrs = rewrite 0 b.Block.instrs }
