(* Fanout insertion.

   A TRIPS instruction encodes at most [Machine.max_targets] explicit
   consumers; a value with more consumers needs a tree of mov
   instructions.  This pass runs after register allocation (Figure 6) and
   rewrites surplus intra-block consumers to read fresh copies.  Exit
   reads and the value's block-output slot stay on the original register,
   counting toward its target budget.

   The inserted movs are unguarded: an unguarded copy aliases the
   register's current value exactly, so every consumer — including ones
   whose guards predicate optimization already dropped — observes the
   same value it would have read from the original register. *)

open Trips_ir

(* Rewrite one block.  For each definition, scan its use range (up to the
   next redefinition) and, when consumers exceed capacity, chain movs:
   each mov consumes one target slot and provides [max_targets]. *)
let expand_block cfg (b : Block.t) : Block.t * int =
  let added = ref 0 in
  let exit_reads = Block.exit_uses b in
  (* registers introduced by this pass; by construction each has at most
     [max_targets] consumers, so they are never fanned again *)
  let fanout_copies = Hashtbl.create 16 in
  let rec rewrite = function
    | [] -> []
    | (i : Instr.t) :: rest ->
      let rest =
        List.fold_left (fun rest d -> fan_def d rest) rest (Instr.defs i)
      in
      i :: rewrite rest
  and fan_def d rest =
    if Hashtbl.mem fanout_copies d then rest
    else begin
    (* instructions in [rest] reading [d], up to its next definition *)
    let rec collect idx = function
      | [] -> []
      | (j : Instr.t) :: tail ->
        let here = if List.mem d (Instr.uses j) then [ idx ] else [] in
        if List.mem d (Instr.defs j) then here
        else here @ collect (idx + 1) tail
    in
    let use_positions = collect 0 rest in
    let fixed = if IntSet.mem d exit_reads then 1 else 0 in
    let n_uses = List.length use_positions in
    if n_uses + fixed <= Machine.max_targets then rest
    else begin
      (* Balanced tree of movs immediately after the producer: copy k
         reads copy (k-1)/2, so fanout latency grows logarithmically in
         the consumer count, as a real fanout-insertion pass arranges.
         [d] keeps one target slot for the tree root, its remaining
         budget for direct uses; every copy's two slots are split between
         tree children and rewritten uses. *)
      let keep = max 0 (Machine.max_targets - fixed - 1) in
      let surplus = n_uses - keep in
      let to_rewrite =
        let sorted = List.sort compare use_positions in
        List.filteri (fun k _ -> k >= keep) sorted
      in
      let movs_needed = surplus in
      let copies =
        Array.init movs_needed (fun _ ->
            let r = Cfg.fresh_reg cfg in
            Hashtbl.replace fanout_copies r ();
            r)
      in
      let movs =
        let lineage =
          { Lineage.origin = b.Block.id; placed = Lineage.Helper "fanout" }
        in
        List.init movs_needed (fun k ->
            let src = if k = 0 then d else copies.((k - 1) / 2) in
            added := !added + 1;
            Cfg.instr ~lineage cfg (Instr.Mov (copies.(k), Instr.Reg src)))
      in
      (* free slots per copy: Machine.max_targets minus its tree children *)
      let children = Array.make movs_needed 0 in
      for k = 1 to movs_needed - 1 do
        children.((k - 1) / 2) <- children.((k - 1) / 2) + 1
      done;
      let slots = ref [] in
      for k = 0 to movs_needed - 1 do
        for _ = 1 to Machine.max_targets - children.(k) do
          slots := copies.(k) :: !slots
        done
      done;
      (* deepest copies first, so hot consumers sit at the leaves *)
      let slot_list = !slots in
      let assignment = Hashtbl.create 8 in
      List.iteri
        (fun k pos ->
          match List.nth_opt slot_list k with
          | Some copy -> Hashtbl.replace assignment pos copy
          | None -> ())
        to_rewrite;
      let rewritten =
        List.mapi
          (fun idx (j : Instr.t) ->
            match Hashtbl.find_opt assignment idx with
            | Some copy -> substitute_one j ~from_:d ~to_:copy
            | None -> j)
          rest
      in
      movs @ rewritten
    end
    end
  and substitute_one (j : Instr.t) ~from_ ~to_ =
    let subst = function
      | Instr.Reg r when r = from_ -> Instr.Reg to_
      | o -> o
    in
    let op =
      match j.Instr.op with
      | Instr.Binop (o, d, a, b) -> Instr.Binop (o, d, subst a, subst b)
      | Instr.Cmp (o, d, a, b) -> Instr.Cmp (o, d, subst a, subst b)
      | Instr.Mov (d, a) -> Instr.Mov (d, subst a)
      | Instr.Load (d, a, off) -> Instr.Load (d, subst a, off)
      | Instr.Store (v, a, off) -> Instr.Store (subst v, subst a, off)
      | Instr.Nullw r -> Instr.Nullw r
    in
    (* a guard read of the value is a consumer too; the copy holds the
       same value, so retargeting it is sound *)
    let guard =
      match j.Instr.guard with
      | Some g when g.Instr.greg = from_ ->
        Some { g with Instr.greg = to_ }
      | other -> other
    in
    { j with Instr.op; guard }
  in
  let instrs = rewrite b.Block.instrs in
  ({ b with Block.instrs }, !added)

(** Insert fanout movs in every block; returns how many were added. *)
let run cfg =
  List.fold_left
    (fun total id ->
      let b, added = expand_block cfg (Cfg.block cfg id) in
      Cfg.set_block cfg b;
      total + added)
    0 (Cfg.block_ids cfg)
