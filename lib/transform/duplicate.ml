(* Block duplication helpers shared by tail duplication, head duplication
   and the discrete-phase CFG-level loop transformations. *)

open Trips_ir

(** Copy block [b] under a fresh id with fresh instruction ids.  Exits are
    copied verbatim, so a self-loop exit in the original points at the
    *original* from the copy — which is exactly the rewiring head
    duplication needs (Figures 3 and 4).  The copy is installed in the
    CFG. *)
let copy_block cfg (b : Block.t) : Block.t =
  let id = Cfg.fresh_block_id cfg in
  let copy = Cfg.refresh_instr_ids cfg { b with Block.id } in
  Cfg.set_block cfg copy;
  copy

(** Redirect every exit of [b] that targets [from_] to [to_]; returns the
    rewritten block (not installed). *)
let redirect_exits (b : Block.t) ~from_ ~to_ : Block.t =
  Block.map_targets (fun t -> if t = from_ then to_ else t) b

(** Redirect exits of every block in [ids] from [from_] to [to_],
    installing results in the CFG. *)
let redirect_all cfg ids ~from_ ~to_ =
  List.iter
    (fun id ->
      let b = Cfg.block cfg id in
      Cfg.set_block cfg (redirect_exits b ~from_ ~to_))
    ids
