(* The control-flow graph of a single function.

   The block table is mutable because hyperblock formation rewrites the
   graph heavily; blocks themselves are immutable records replaced
   wholesale, so analyses can hold on to a [Block.t] safely.  Fresh-id
   counters for blocks, instructions and registers live here so that every
   transformation can allocate names without clashing. *)

type t = {
  name : string;
  mutable entry : int;
  blocks : (int, Block.t) Hashtbl.t;
  mutable next_block : int;
  mutable next_instr : int;
  mutable next_reg : int;
  decisions : (int, Lineage.decision list) Hashtbl.t;
      (* per-block formation decisions, most recent first; provenance
         side table — never consulted by any pass *)
}

let create ?(name = "f") () =
  {
    name;
    entry = 0;
    blocks = Hashtbl.create 64;
    next_block = 0;
    next_instr = 0;
    next_reg = Machine.first_virtual_reg;
    decisions = Hashtbl.create 16;
  }

let fresh_block_id cfg =
  let id = cfg.next_block in
  cfg.next_block <- id + 1;
  id

let fresh_instr_id cfg =
  let id = cfg.next_instr in
  cfg.next_instr <- id + 1;
  id

let fresh_reg cfg =
  let r = cfg.next_reg in
  cfg.next_reg <- r + 1;
  r

(** Build an instruction with a fresh id. *)
let instr ?guard ?lineage cfg op =
  Instr.make ?guard ?lineage (fresh_instr_id cfg) op

let mem cfg id = Hashtbl.mem cfg.blocks id

let block cfg id =
  match Hashtbl.find_opt cfg.blocks id with
  | Some b -> b
  | None -> Fmt.invalid_arg "Cfg.block: no block b%d in %s" id cfg.name

let block_opt cfg id = Hashtbl.find_opt cfg.blocks id

(** Insert or overwrite a block under its own id. *)
let set_block cfg (b : Block.t) = Hashtbl.replace cfg.blocks b.Block.id b

let remove_block cfg id = Hashtbl.remove cfg.blocks id

(** Block ids in increasing order (deterministic iteration). *)
let block_ids cfg =
  Hashtbl.fold (fun id _ acc -> id :: acc) cfg.blocks []
  |> List.sort compare

let blocks cfg = List.map (block cfg) (block_ids cfg)
let iter_blocks f cfg = List.iter f (blocks cfg)
let num_blocks cfg = Hashtbl.length cfg.blocks

let total_instrs cfg =
  List.fold_left (fun acc b -> acc + Block.size b) 0 (blocks cfg)

let successors cfg id = Block.distinct_successors (block cfg id)

(** Map from block id to the set of its predecessors. *)
let predecessor_map cfg =
  List.fold_left
    (fun acc b ->
      List.fold_left
        (fun acc s ->
          let preds = IntMap.find_or ~default:IntSet.empty s acc in
          IntMap.add s (IntSet.add b.Block.id preds) acc)
        acc
        (Block.distinct_successors b))
    IntMap.empty (blocks cfg)

let predecessors cfg id =
  IntSet.elements (IntMap.find_or ~default:IntSet.empty id (predecessor_map cfg))

(** Deep copy sharing no mutable state with the original. *)
let copy cfg =
  let blocks = Hashtbl.copy cfg.blocks in
  let decisions = Hashtbl.copy cfg.decisions in
  { cfg with blocks; decisions }

(* ---- provenance -------------------------------------------------------- *)

(** Stamp every instruction as [Original] to its enclosing block: the
    baseline lineage of a freshly lowered CFG, before any transform runs. *)
let stamp_origins cfg =
  iter_blocks
    (fun b ->
      let lineage =
        { Lineage.origin = b.Block.id; placed = Lineage.Original }
      in
      let instrs = List.map (Instr.with_lineage lineage) b.Block.instrs in
      set_block cfg { b with Block.instrs })
    cfg

(** Append a formation decision to [id]'s provenance record. *)
let record_decision cfg id d =
  let prev = Option.value ~default:[] (Hashtbl.find_opt cfg.decisions id) in
  Hashtbl.replace cfg.decisions id (d :: prev)

(** Decisions recorded against block [id], in chronological order. *)
let decisions cfg id =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt cfg.decisions id))

(** Copy the decision history of [src] onto [dst] (used when a block is
    split: both halves descend from the same formation history). *)
let copy_decisions cfg ~src ~dst =
  match Hashtbl.find_opt cfg.decisions src with
  | None -> ()
  | Some ds -> Hashtbl.replace cfg.decisions dst ds

(** Renumber every instruction in [b] with fresh ids; used when a block is
    duplicated so that instruction ids stay unique across the function. *)
let refresh_instr_ids cfg (b : Block.t) =
  let instrs =
    List.map (fun i -> { i with Instr.id = fresh_instr_id cfg }) b.Block.instrs
  in
  { b with Block.instrs }

exception Ill_formed of string

(** Check structural well-formedness: the entry exists, every exit targets
    an existing block, every block has at least one exit, at most one exit
    is unguarded, and instruction ids are globally unique.  Raises
    [Ill_formed] otherwise. *)
let validate cfg =
  if not (mem cfg cfg.entry) then
    raise (Ill_formed (Fmt.str "%s: entry b%d missing" cfg.name cfg.entry));
  let seen_ids = Hashtbl.create 256 in
  iter_blocks
    (fun b ->
      if b.Block.exits = [] then
        raise (Ill_formed (Fmt.str "%s: block b%d has no exits" cfg.name
                             b.Block.id));
      let unguarded =
        List.length
          (List.filter (fun e -> e.Block.eguard = None) b.Block.exits)
      in
      if unguarded > 1 then
        raise
          (Ill_formed
             (Fmt.str "%s: block b%d has %d unguarded exits" cfg.name
                b.Block.id unguarded));
      List.iter
        (fun s ->
          if not (mem cfg s) then
            raise
              (Ill_formed
                 (Fmt.str "%s: block b%d targets missing b%d" cfg.name
                    b.Block.id s)))
        (Block.successors b);
      List.iter
        (fun i ->
          let id = i.Instr.id in
          if Hashtbl.mem seen_ids id then
            raise
              (Ill_formed
                 (Fmt.str "%s: duplicate instruction id %d (block b%d)"
                    cfg.name id b.Block.id));
          Hashtbl.add seen_ids id ())
        b.Block.instrs)
    cfg

let pp fmt cfg =
  Fmt.pf fmt "@[<v>function %s (entry b%d, %d blocks)" cfg.name cfg.entry
    (num_blocks cfg);
  iter_blocks (fun b -> Fmt.pf fmt "@,%a" Block.pp b) cfg;
  Fmt.pf fmt "@]"
