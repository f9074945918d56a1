(* Blocks of the TRIPS intermediate language.

   A block is a list of predicated instructions followed by a list of
   predicated exits.  Exactly one exit guard holds on any execution of the
   block (the interpreter checks this invariant); a basic block with a
   conditional branch is represented as two exits guarded on the same
   register with opposite senses, an unconditional block as a single
   unguarded exit.  This uniform representation is what lets if-conversion
   merge exit lists without distinguishing fall-through from branches. *)

type target = Goto of int | Ret of Instr.operand option

type exit_ = { eguard : Instr.guard option; target : target }

type t = { id : int; instrs : Instr.t list; exits : exit_ list }

let make id instrs exits = { id; instrs; exits }

(** Ids of successor blocks, in exit order, with duplicates preserved. *)
let successors b =
  List.filter_map
    (fun e -> match e.target with Goto s -> Some s | Ret _ -> None)
    b.exits

(** Successor ids with duplicates removed, order preserved.  Exit lists
    are short, so a membership scan of the ids kept so far beats a
    per-call table. *)
let distinct_successors b =
  let rec keep acc = function
    | [] -> List.rev acc
    | { target = Goto s; _ } :: rest when not (List.mem s acc) ->
      keep (s :: acc) rest
    | _ :: rest -> keep acc rest
  in
  keep [] b.exits

(** Number of regular instructions (the 128-instruction budget). *)
let size b = List.length b.instrs

let num_loads b = List.length (List.filter Instr.is_load b.instrs)
let num_stores b = List.length (List.filter Instr.is_store b.instrs)
let num_load_store b = num_loads b + num_stores b

(** Registers defined anywhere in the block. *)
let defs b =
  List.fold_left
    (fun acc i -> List.fold_left (fun acc r -> IntSet.add r acc) acc
        (Instr.defs i))
    IntSet.empty b.instrs

(** Registers defined by unpredicated instructions only.  A predicated
    definition is conditional: when the guard is false the incoming value
    flows through, so it neither kills the register for liveness nor
    shields later uses. *)
let must_defs b =
  List.fold_left
    (fun acc i ->
      match i.Instr.guard with
      | Some _ -> acc
      | None ->
        List.fold_left (fun acc r -> IntSet.add r acc) acc (Instr.defs i))
    IntSet.empty b.instrs

(** Registers used before being unconditionally defined in the block
    (upward-exposed), including registers read by exit guards and return
    operands.  A predicated definition of [r] also exposes [r], because
    the block needs [r]'s incoming value when the guard is false. *)
let upward_exposed_uses b =
  let step (defined, exposed) i =
    let expose acc r = if IntSet.mem r defined then acc else IntSet.add r acc in
    let exposed = List.fold_left expose exposed (Instr.uses i) in
    let exposed, defined =
      match i.Instr.guard with
      | Some _ ->
        (* conditional def: exposes the target, defines nothing *)
        (List.fold_left expose exposed (Instr.defs i), defined)
      | None ->
        ( exposed,
          List.fold_left (fun acc r -> IntSet.add r acc) defined
            (Instr.defs i) )
    in
    (defined, exposed)
  in
  let defined, exposed =
    List.fold_left step (IntSet.empty, IntSet.empty) b.instrs
  in
  let add_if_undefined acc r =
    if IntSet.mem r defined then acc else IntSet.add r acc
  in
  List.fold_left
    (fun acc e ->
      let acc =
        match e.eguard with
        | Some g -> add_if_undefined acc g.Instr.greg
        | None -> acc
      in
      match e.target with
      | Ret (Some (Instr.Reg r)) -> add_if_undefined acc r
      | Ret (Some (Instr.Imm _)) | Ret None | Goto _ -> acc)
    exposed b.exits

(** All registers read by exits (guards and return operands), regardless
    of where they were defined. *)
let exit_uses b =
  List.fold_left
    (fun acc e ->
      let acc =
        match e.eguard with
        | Some g -> IntSet.add g.Instr.greg acc
        | None -> acc
      in
      match e.target with
      | Ret (Some (Instr.Reg r)) -> IntSet.add r acc
      | Ret (Some (Instr.Imm _)) | Ret None | Goto _ -> acc)
    IntSet.empty b.exits

(** Replace exit targets with [f] applied to each [Goto] destination. *)
let map_targets f b =
  let exits =
    List.map
      (fun e ->
        match e.target with
        | Goto s -> { e with target = Goto (f s) }
        | Ret _ -> e)
      b.exits
  in
  { b with exits }

let pp_target fmt = function
  | Goto s -> Fmt.pf fmt "b%d" s
  | Ret None -> Fmt.pf fmt "ret"
  | Ret (Some v) -> Fmt.pf fmt "ret %a" Instr.pp_operand v

let pp_exit fmt e =
  match e.eguard with
  | None -> Fmt.pf fmt "br %a" pp_target e.target
  | Some g -> Fmt.pf fmt "%a br %a" Instr.pp_guard g pp_target e.target

let pp fmt b =
  Fmt.pf fmt "@[<v 2>block b%d:" b.id;
  List.iter (fun i -> Fmt.pf fmt "@,%a" Instr.pp i) b.instrs;
  List.iter (fun e -> Fmt.pf fmt "@,%a" pp_exit e) b.exits;
  Fmt.pf fmt "@]"
