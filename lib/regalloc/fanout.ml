(* Fanout insertion.

   A TRIPS instruction encodes at most [Machine.max_targets] explicit
   consumers; a value with more consumers needs a tree of mov
   instructions.  This pass runs after register allocation (Figure 6) and
   rewrites surplus intra-block consumers to read fresh copies.  Exit
   reads and the value's block-output slot stay on the original register,
   counting toward its target budget.  One backward pass per block counts
   every definition's consumers ([consumers]); only the definitions over
   capacity walk their use range.

   The inserted movs are unguarded: an unguarded copy aliases the
   register's current value exactly, so every consumer — including ones
   whose guards predicate optimization already dropped — observes the
   same value it would have read from the original register. *)

open Trips_ir

(* Each instruction's definition's consumers: the instructions after it
   that read the register, up to and including its next definition (0
   for an instruction that defines nothing).  One backward pass:
   [pending r] counts the readers of [r] between the current position
   and [r]'s next definition. *)
let consumers (b : Block.t) =
  let instrs = Array.of_list b.Block.instrs in
  let counts = Array.make (Array.length instrs) 0 in
  let pending = Hashtbl.create 32 in
  for p = Array.length instrs - 1 downto 0 do
    let i = instrs.(p) in
    List.iter
      (fun d ->
        counts.(p) <- Option.value ~default:0 (Hashtbl.find_opt pending d);
        Hashtbl.remove pending d)
      (Instr.defs i);
    (* an instruction reading a register twice is one consumer *)
    List.iter
      (fun r ->
        Hashtbl.replace pending r
          (1 + Option.value ~default:0 (Hashtbl.find_opt pending r)))
      (List.sort_uniq compare (Instr.uses i))
  done;
  counts

(* Rewrite one block.  The counting pass finds the definitions whose
   consumers (plus an exit read of the register) exceed capacity; only
   those walk their use range (up to the next redefinition) and chain
   movs: each mov consumes one target slot and provides [max_targets].
   The movs are inserted right after the producer and never fanned
   again: by construction each has at most [max_targets] consumers. *)
let expand_block cfg (b : Block.t) : Block.t * int =
  let added = ref 0 in
  let exit_reads = Block.exit_uses b in
  let fixed d = if IntSet.mem d exit_reads then 1 else 0 in
  let rec rewrite = function
    | [] -> []
    | ((i : Instr.t), n) :: rest ->
      let rest =
        match Instr.defs i with
        | [ d ] when n + fixed d > Machine.max_targets -> fan_def d (fixed d) rest
        | _ -> rest
      in
      i :: rewrite rest
  and fan_def d fixed rest =
    (* positions in [rest] of the instructions reading [d], up to its
       next definition, in order *)
    let rec collect idx acc = function
      | [] -> List.rev acc
      | ((j : Instr.t), _) :: tail ->
        let acc = if List.mem d (Instr.uses j) then idx :: acc else acc in
        if List.mem d (Instr.defs j) then List.rev acc
        else collect (idx + 1) acc tail
    in
    let use_positions = collect 0 [] rest in
    let n_uses = List.length use_positions in
    (* Balanced tree of movs immediately after the producer: copy k
       reads copy (k-1)/2, so fanout latency grows logarithmically in
       the consumer count, as a real fanout-insertion pass arranges.
       [d] keeps one target slot for the tree root, its remaining
       budget for direct uses; every copy's two slots are split between
       tree children and rewritten uses. *)
    let keep = max 0 (Machine.max_targets - fixed - 1) in
    let movs_needed = n_uses - keep in
    let to_rewrite = List.filteri (fun k _ -> k >= keep) use_positions in
    let copies = Array.init movs_needed (fun _ -> Cfg.fresh_reg cfg) in
    let movs =
      let lineage =
        { Lineage.origin = b.Block.id; placed = Lineage.Helper "fanout" }
      in
      List.init movs_needed (fun k ->
          let src = if k = 0 then d else copies.((k - 1) / 2) in
          added := !added + 1;
          (Cfg.instr ~lineage cfg (Instr.Mov (copies.(k), Instr.Reg src)), 0))
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
    let slots = Array.of_list !slots in
    let assignment = Hashtbl.create 8 in
    List.iteri
      (fun k pos ->
        if k < Array.length slots then Hashtbl.replace assignment pos slots.(k))
      to_rewrite;
    let rewritten =
      List.mapi
        (fun idx ((j : Instr.t), n) ->
          match Hashtbl.find_opt assignment idx with
          | Some copy -> (substitute_one j ~from_:d ~to_:copy, n)
          | None -> (j, n))
        rest
    in
    movs @ rewritten
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
  let counts = consumers b in
  let instrs = rewrite (List.mapi (fun p i -> (i, counts.(p))) b.Block.instrs) in
  ({ b with Block.instrs }, !added)

(** Insert fanout movs in every block; returns how many were added. *)
let run cfg =
  List.fold_left
    (fun total id ->
      let b, added = expand_block cfg (Cfg.block cfg id) in
      Cfg.set_block cfg b;
      total + added)
    0 (Cfg.block_ids cfg)
