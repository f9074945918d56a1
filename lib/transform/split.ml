(* Block splitting: divide a block's instruction sequence in two, the
   first half ending in an unconditional jump to the second, which keeps
   all original exits.  Program order — and therefore semantics — is
   preserved; values crossing the split point become block-boundary
   values.

   Two users: reverse if-conversion in the back end (paper Section 6)
   splits blocks that violate bank budgets after register allocation, and
   the optional block-splitting extension of hyperblock formation (paper
   Section 9) splits a too-large merge candidate so its first part can
   still be merged. *)

open Trips_ir

(** Split block [id] at instruction index [at] (defaults to the middle).
    Returns the id of the new second block, or [None] when either side
    would be empty. *)
let split_block ?at cfg id : int option =
  let b = Cfg.block cfg id in
  let n = Block.size b in
  let cut = match at with Some k -> k | None -> n / 2 in
  if cut <= 0 || cut >= n then None
  else begin
    let first = List.filteri (fun k _ -> k < cut) b.Block.instrs in
    let second = List.filteri (fun k _ -> k >= cut) b.Block.instrs in
    let new_id = Cfg.fresh_block_id cfg in
    Cfg.set_block cfg (Block.make new_id second b.Block.exits);
    Cfg.set_block cfg
      (Block.make id first
         [ { Block.eguard = None; target = Block.Goto new_id } ]);
    (* both halves descend from the same formation history *)
    Cfg.copy_decisions cfg ~src:id ~dst:new_id;
    let step = List.length (Cfg.decisions cfg id) + 1 in
    Cfg.record_decision cfg new_id
      (Lineage.decision ~step ~kind:"split" ~src:id);
    Some new_id
  end
