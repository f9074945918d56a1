(* The merge primitive: if-convert block S into hyperblock HB.

   [combine cfg ~hb ~s ~s_label] returns a new block (with HB's id) in
   which S's instructions follow HB's, guarded by the predicate under
   which HB branched to [s_label].  HB's exits that targeted [s_label] are
   consumed; S's exits are appended with their guards conjoined with the
   entry predicate.  All three duplication flavors reduce to this single
   primitive applied to a copy of S:

   - unique predecessor: merge S itself, then delete S;
   - tail duplication / head-duplication peeling: merge a fresh copy of S
     whose exits still name the *original* targets (so a self loop B->B
     copied as B' exits to B, which is precisely Figure 3);
   - head-duplication unrolling: [s_label] is HB's own id and S is a copy
     of the saved one-iteration loop body (Figure 4).

   Correctness subtleties handled here:

   - *Entry predicate.*  If every HB exit targets S the entry predicate is
     trivially true.  A single guarded exit contributes its guard; several
     exits targeting S are OR-ed together (negations materialize as
     [xor r, 1], which is sound because branch guards always hold 0/1 by
     construction).

   - *Guard conjunction.*  An S instruction already guarded by [q] becomes
     guarded by a fresh register [p AND q].  The conjunction instructions
     are emitted immediately before the instruction that needs them and
     cached; the cache is invalidated when S redefines a register it
     depends on (which happens when unrolling merges a copy that reuses
     the same register names).  These extra unpredicated instructions are
     exactly the "additional predication" cost the paper ascribes to
     duplication on a dataflow machine.

   - *Exit-guard snapshots.*  If S redefines a register read by one of
     HB's *remaining* exit guards (e.g. a loop condition recomputed by the
     next iteration), the exit would observe the new value even though it
     logically belongs to the pre-merge path.  We snapshot such registers
     into fresh copies before S's instructions and rewrite the kept exits
     to read the snapshots. *)

open Trips_ir

exception Cannot_combine of string

type stats = { combine_instrs : int }
(** How many helper instructions (negations, disjunctions, conjunctions,
    snapshots) the merge had to add. *)

let is_goto_to label (e : Block.exit_) =
  match e.Block.target with Block.Goto t -> t = label | Block.Ret _ -> false

(* Registers read by an exit: guard register and register return operand. *)
let exit_regs (e : Block.exit_) =
  let g = match e.Block.eguard with Some g -> [ g.Instr.greg ] | None -> [] in
  match e.Block.target with
  | Block.Ret (Some (Instr.Reg r)) -> r :: g
  | Block.Ret _ | Block.Goto _ -> g

let combine cfg ~(hb : Block.t) ~(s : Block.t) ~s_label : Block.t * stats =
  let entry_exits, kept_exits = List.partition (is_goto_to s_label) hb.Block.exits in
  if entry_exits = [] then
    raise
      (Cannot_combine
         (Fmt.str "b%d has no exit to b%d" hb.Block.id s_label));
  let added = ref 0 in
  (* Predication machinery (negations, disjunctions, conjunctions,
     snapshots) is billed to the block whose merge required it. *)
  let helper_lineage =
    { Lineage.origin = s_label; placed = Lineage.Helper "predication" }
  in
  let fresh_instr op =
    incr added;
    Cfg.instr ~lineage:helper_lineage cfg op
  in
  (* Instructions prefixed between HB's body and S's body. *)
  let prefix = ref [] in
  let emit_prefix op =
    let i = fresh_instr op in
    prefix := i :: !prefix;
    match Instr.defs i with [ d ] -> d | _ -> assert false
  in
  (* Entry predicate, normalized to a positive register. *)
  let entry_pred =
    if kept_exits = [] then None
    else begin
      let guard_of e =
        match e.Block.eguard with
        | Some g -> g
        | None ->
          (* an unguarded exit always fires, so guarded siblings would be
             dead; such blocks are rejected before merging *)
          raise
            (Cannot_combine
               (Fmt.str "b%d mixes an unguarded exit to b%d with other exits"
                  hb.Block.id s_label))
      in
      match List.map guard_of entry_exits with
      | [ g ] -> Some g
      | gs ->
        let positive g =
          if g.Instr.sense then g.Instr.greg
          else
            emit_prefix
              (Instr.Binop
                 (Opcode.Xor, Cfg.fresh_reg cfg, Instr.Reg g.Instr.greg, Instr.Imm 1))
        in
        let rec fold = function
          | [] -> assert false
          | [ r ] -> r
          | a :: rest ->
            let b = fold rest in
            emit_prefix
              (Instr.Binop (Opcode.Or, Cfg.fresh_reg cfg, Instr.Reg a, Instr.Reg b))
        in
        Some { Instr.greg = fold (List.map positive gs); sense = true }
    end
  in
  (* Snapshot registers that S redefines but kept exits still read. *)
  let s_defs =
    List.fold_left
      (fun acc i ->
        List.fold_left (fun acc r -> IntSet.add r acc) acc (Instr.defs i))
      IntSet.empty s.Block.instrs
  in
  (* If S itself redefines the entry-predicate register (a loop body
     recomputing its own exit test during unrolling), every use of the
     entry predicate must read the entry-time value: snapshot it. *)
  let entry_pred =
    match entry_pred with
    | Some g when IntSet.mem g.Instr.greg s_defs ->
      let snap = Cfg.fresh_reg cfg in
      let i = fresh_instr (Instr.Mov (snap, Instr.Reg g.Instr.greg)) in
      prefix := i :: !prefix;
      Some { g with Instr.greg = snap }
    | other -> other
  in
  let kept_reads =
    List.fold_left
      (fun acc e ->
        List.fold_left (fun acc r -> IntSet.add r acc) acc (exit_regs e))
      IntSet.empty kept_exits
  in
  let clobbered = IntSet.inter s_defs kept_reads in
  let snapshot_map =
    IntSet.fold
      (fun r acc ->
        let r' = Cfg.fresh_reg cfg in
        let i = fresh_instr (Instr.Mov (r', Instr.Reg r)) in
        prefix := i :: !prefix;
        IntMap.add r r' acc)
      clobbered IntMap.empty
  in
  let rename_kept r = IntMap.find_or ~default:r r snapshot_map in
  let kept_exits =
    List.map
      (fun (e : Block.exit_) ->
        let eguard =
          Option.map
            (fun g -> { g with Instr.greg = rename_kept g.Instr.greg })
            e.Block.eguard
        in
        let target =
          match e.Block.target with
          | Block.Ret (Some (Instr.Reg r)) -> Block.Ret (Some (Instr.Reg (rename_kept r)))
          | t -> t
        in
        { Block.eguard; target })
      kept_exits
  in
  (* Conjunction machinery for S's instruction guards and exit guards.
     [pos_cache] maps a (register, sense) pair to a register holding its
     positive 0/1 form; [conj_cache] maps (entry-pred, guard) pairs to the
     conjunction register.  Both are invalidated when S redefines an
     involved register. *)
  let pos_cache : (int * bool, int) Hashtbl.t = Hashtbl.create 8 in
  let conj_cache : (int * bool, int) Hashtbl.t = Hashtbl.create 8 in
  let entry_pos =
    (* computed once, in the prefix, so it snapshots the entry-time value
       even if S later redefines the guard register *)
    match entry_pred with
    | None -> None
    | Some g when g.Instr.sense -> Some g.Instr.greg
    | Some g ->
      Some
        (emit_prefix
           (Instr.Binop
              (Opcode.Xor, Cfg.fresh_reg cfg, Instr.Reg g.Instr.greg, Instr.Imm 1)))
  in
  (* Walk S's instructions, conjoining guards; [out] is built reversed. *)
  let out = ref [] in
  let emit_inline op =
    let i = fresh_instr op in
    out := i :: !out;
    match Instr.defs i with [ d ] -> d | _ -> assert false
  in
  let positive_inline g =
    if g.Instr.sense then g.Instr.greg
    else
      match Hashtbl.find_opt pos_cache (g.Instr.greg, g.Instr.sense) with
      | Some r -> r
      | None ->
        let r =
          emit_inline
            (Instr.Binop
               (Opcode.Xor, Cfg.fresh_reg cfg, Instr.Reg g.Instr.greg, Instr.Imm 1))
        in
        Hashtbl.add pos_cache (g.Instr.greg, g.Instr.sense) r;
        r
  in
  let conjoin q =
    match entry_pos with
    | None -> Some q
    | Some p -> (
      match Hashtbl.find_opt conj_cache (q.Instr.greg, q.Instr.sense) with
      | Some r -> Some { Instr.greg = r; sense = true }
      | None ->
        let qpos = positive_inline q in
        let r =
          emit_inline
            (Instr.Binop
               (Opcode.And, Cfg.fresh_reg cfg, Instr.Reg p, Instr.Reg qpos))
        in
        Hashtbl.add conj_cache (q.Instr.greg, q.Instr.sense) r;
        Some { Instr.greg = r; sense = true })
  in
  let invalidate r =
    Hashtbl.filter_map_inplace
      (fun (src, _) v -> if src = r then None else Some v)
      pos_cache;
    Hashtbl.filter_map_inplace
      (fun (src, _) v -> if src = r then None else Some v)
      conj_cache
  in
  List.iter
    (fun (i : Instr.t) ->
      let guard =
        match (entry_pred, i.Instr.guard) with
        | None, g -> g
        | (Some _ as p), None -> p
        | Some _, Some q -> conjoin q
      in
      out := { i with Instr.guard } :: !out;
      (* the defs of [i] may shadow guard registers used in caches; also
         the snapshot registers are fresh so never collide *)
      List.iter invalidate (Instr.defs i))
    s.Block.instrs;
  (* S's exits, guarded by the conjunction of the entry predicate with
     their own guard, evaluated with end-of-block values. *)
  let s_exits =
    List.map
      (fun (e : Block.exit_) ->
        let eguard =
          match (entry_pred, e.Block.eguard) with
          | None, g -> g
          | (Some _ as p), None -> p
          | Some _, Some q -> conjoin q
        in
        { e with Block.eguard })
      s.Block.exits
  in
  let instrs = hb.Block.instrs @ List.rev !prefix @ List.rev !out in
  let exits = kept_exits @ s_exits in
  (Block.make hb.Block.id instrs exits, { combine_instrs = !added })
