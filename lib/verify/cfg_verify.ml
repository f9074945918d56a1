(* Structural invariant checker: graph shape, exit discipline, unique
   instruction ids, definition-before-use, and (optionally) the TRIPS
   resource budgets.  Each violation carries a block/instruction locus so
   the offending phase and block can be named directly. *)

open Trips_ir
open Trips_analysis

type violation =
  | Missing_entry of { entry : int }
  | No_exit of { block : int }
  | Multiple_unguarded_exits of { block : int; count : int }
  | Dangling_edge of { block : int; target : int }
  | Unreachable_block of { block : int }
  | Duplicate_instr_id of { block : int; instr : int }
  | Undefined_use of { block : int; instr : int option; reg : int; in_guard : bool }
  | Over_budget of {
      block : int;
      estimate : Chf.Constraints.estimate;
      limits : Chf.Constraints.limits;
    }

type locus = { at_block : int option; at_instr : int option; at_reg : int option }

let locus = function
  | Missing_entry _ -> { at_block = None; at_instr = None; at_reg = None }
  | No_exit { block }
  | Multiple_unguarded_exits { block; _ }
  | Dangling_edge { block; _ }
  | Unreachable_block { block }
  | Over_budget { block; _ } ->
    { at_block = Some block; at_instr = None; at_reg = None }
  | Duplicate_instr_id { block; instr } ->
    { at_block = Some block; at_instr = Some instr; at_reg = None }
  | Undefined_use { block; instr; reg; _ } ->
    { at_block = Some block; at_instr = instr; at_reg = Some reg }

let pp_violation fmt = function
  | Missing_entry { entry } -> Fmt.pf fmt "entry b%d does not exist" entry
  | No_exit { block } -> Fmt.pf fmt "b%d has no exits" block
  | Multiple_unguarded_exits { block; count } ->
    Fmt.pf fmt "b%d has %d unguarded exits" block count
  | Dangling_edge { block; target } ->
    Fmt.pf fmt "b%d targets missing b%d" block target
  | Unreachable_block { block } ->
    Fmt.pf fmt "b%d is unreachable from the entry" block
  | Duplicate_instr_id { block; instr } ->
    Fmt.pf fmt "duplicate instruction id i%d (in b%d)" instr block
  | Undefined_use { block; instr; reg; in_guard } ->
    Fmt.pf fmt "b%d%a reads %sr%d with no reaching definition" block
      Fmt.(option (fmt "/i%d"))
      instr
      (if in_guard then "guard " else "")
      reg
  | Over_budget { block; estimate; limits } ->
    Fmt.pf fmt
      "b%d exceeds TRIPS budgets: %a (limits %d/%d/%d/%d)" block
      Chf.Constraints.pp_estimate estimate limits.Chf.Constraints.max_instrs
      limits.Chf.Constraints.max_load_store limits.Chf.Constraints.max_reads
      limits.Chf.Constraints.max_writes

(* ---- graph-shape checks (safe on arbitrary tables) -------------------- *)

let shape_violations cfg =
  let viols = ref [] in
  let add v = viols := v :: !viols in
  if not (Cfg.mem cfg cfg.Cfg.entry) then
    add (Missing_entry { entry = cfg.Cfg.entry });
  let seen_ids = Hashtbl.create 256 in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      if b.Block.exits = [] then add (No_exit { block = id });
      let unguarded =
        List.length (List.filter (fun e -> e.Block.eguard = None) b.Block.exits)
      in
      if unguarded > 1 then
        add (Multiple_unguarded_exits { block = id; count = unguarded });
      List.iter
        (fun s -> if not (Cfg.mem cfg s) then add (Dangling_edge { block = id; target = s }))
        (Block.distinct_successors b);
      List.iter
        (fun (i : Instr.t) ->
          match Hashtbl.find_opt seen_ids i.Instr.id with
          | Some () -> add (Duplicate_instr_id { block = id; instr = i.Instr.id })
          | None -> Hashtbl.add seen_ids i.Instr.id ())
        b.Block.instrs)
    cfg;
  List.rev !viols

(* The dataflow checks walk successors and run liveness; a missing entry,
   dangling edge or exitless block would crash them, so they are gated on
   these specific shape violations being absent. *)
let shape_blocks_dataflow = function
  | Missing_entry _ | Dangling_edge _ | No_exit _ -> true
  | _ -> false

(* ---- definition-before-use -------------------------------------------- *)

(* Forward must-be-defined analysis.  A register is "defined" once any
   definition — predicated or not — has executed on every path from the
   entry: flow-through on a false guard is legal if-conversion structure,
   so guarded definitions count and well-formed predicated code is never
   flagged.  The lattice is (sets of registers, ⊇), initialized to the
   full register universe and shrunk to the greatest fixpoint. *)

let defined_in_map ~params cfg =
  let rpo = Order.reverse_postorder cfg in
  let universe =
    List.fold_left
      (fun acc id ->
        let b = Cfg.block cfg id in
        let regs_of_instr (i : Instr.t) =
          IntSet.union (IntSet.of_list (Instr.defs i)) (IntSet.of_list (Instr.uses i))
        in
        List.fold_left
          (fun acc i -> IntSet.union acc (regs_of_instr i))
          (IntSet.union acc (Block.exit_uses b))
          b.Block.instrs)
      params rpo
  in
  let preds = Cfg.predecessor_map cfg in
  let out = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace out id universe) rpo;
  let defined_in id =
    if id = cfg.Cfg.entry then params
    else
      IntSet.fold
        (fun p acc ->
          match Hashtbl.find_opt out p with
          | Some s -> IntSet.inter acc s
          | None -> acc (* unreachable predecessor: no constraint *))
        (IntMap.find_or ~default:IntSet.empty id preds)
        universe
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        let b = Cfg.block cfg id in
        let o = IntSet.union (defined_in id) (Block.defs b) in
        if not (IntSet.equal o (Hashtbl.find out id)) then begin
          Hashtbl.replace out id o;
          changed := true
        end)
      rpo
  done;
  (rpo, defined_in)

(* Architectural registers are machine state (readable from reset); only
   virtual registers outside [params] can be undefined. *)
let suspicious ~params r =
  r >= Machine.first_virtual_reg && not (IntSet.mem r params)

let def_use_violations ~params cfg =
  let rpo, defined_in = defined_in_map ~params cfg in
  let viols = ref [] in
  List.iter
    (fun id ->
      let b = Cfg.block cfg id in
      let avail = ref (defined_in id) in
      List.iter
        (fun (i : Instr.t) ->
          List.iter
            (fun r ->
              if suspicious ~params r && not (IntSet.mem r !avail) then
                let in_guard =
                  match i.Instr.guard with
                  | Some g -> g.Instr.greg = r
                  | None -> false
                in
                viols :=
                  Undefined_use { block = id; instr = Some i.Instr.id; reg = r; in_guard }
                  :: !viols)
            (Instr.uses i);
          List.iter (fun r -> avail := IntSet.add r !avail) (Instr.defs i))
        b.Block.instrs;
      IntSet.iter
        (fun r ->
          if suspicious ~params r && not (IntSet.mem r !avail) then
            viols := Undefined_use { block = id; instr = None; reg = r; in_guard = true } :: !viols)
        (Block.exit_uses b))
    rpo;
  List.rev !viols

(* ---- TRIPS budgets ----------------------------------------------------- *)

let budget_violations ~limits cfg =
  List.map
    (fun (block, estimate) -> Over_budget { block; estimate; limits })
    (Chf.Constraints.over_budget limits cfg)

(* ---- driver ------------------------------------------------------------ *)

let check ?(allow_unreachable = false) ?(params = IntSet.empty) ?limits cfg =
  let shape = shape_violations cfg in
  let reach =
    if allow_unreachable || List.exists shape_blocks_dataflow shape then []
    else
      let reachable = Order.reachable cfg in
      List.filter_map
        (fun id ->
          if IntSet.mem id reachable then None
          else Some (Unreachable_block { block = id }))
        (Cfg.block_ids cfg)
  in
  if List.exists shape_blocks_dataflow shape then shape @ reach
  else
    let uses = def_use_violations ~params cfg in
    let budgets = match limits with None -> [] | Some l -> budget_violations ~limits:l cfg in
    shape @ reach @ uses @ budgets

let undefined_regs cfg =
  List.fold_left
    (fun acc -> function
      | Undefined_use { reg; _ } -> IntSet.add reg acc
      | _ -> acc)
    IntSet.empty
    (check ~allow_unreachable:true cfg)

exception Invalid of string * violation list

let check_exn ?allow_unreachable ?params ?limits cfg =
  match check ?allow_unreachable ?params ?limits cfg with
  | [] -> ()
  | viols -> raise (Invalid (cfg.Cfg.name, viols))

let dot_dump cfg viols =
  let highlight =
    List.sort_uniq compare
      (List.filter_map (fun v -> (locus v).at_block) viols)
  in
  Dot.to_string ~highlight cfg
