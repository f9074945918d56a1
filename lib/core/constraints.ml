(* TRIPS structural-constraint checking with back-end size estimation.

   Hyperblock formation runs long before register allocation and fanout
   insertion, so [LegalBlock] must *estimate* the final block size
   (paper Section 6): besides the instructions currently in the block it
   accounts for
   - one branch per exit (TRIPS branches are ordinary instructions);
   - fanout movs for values with more consumers than an instruction can
     name as targets;
   - null writes needed to satisfy the constant-output constraint on
     output registers that are only written under a predicate;
   plus the register-read, register-write and load/store-identifier
   budgets. *)

open Trips_ir
open Trips_analysis

type estimate = {
  instrs : int;  (* regular-instruction budget consumed, incl. overheads *)
  loads_stores : int;
  reads : int;  (* architectural register reads (block inputs) *)
  writes : int;  (* architectural register writes (block outputs) *)
  inputs : IntSet.t;  (* the registers read; [reads] is its cardinal *)
  outputs : IntSet.t;  (* the registers written; [writes] is its cardinal *)
}

type limits = {
  max_instrs : int;
  max_load_store : int;
  max_reads : int;
  max_writes : int;
}

let trips_limits =
  {
    max_instrs = Machine.max_instrs;
    max_load_store = Machine.max_load_store;
    max_reads = Machine.max_reads;
    max_writes = Machine.max_writes;
  }

(* Extra movs needed to fan a value out to [consumers] targets when one
   instruction can name at most [Machine.max_targets]: each mov consumes
   one target slot and provides [max_targets]. *)
let fanout_movs consumers =
  if consumers <= Machine.max_targets then 0
  else consumers - Machine.max_targets

(** Estimate the resources block [b] will occupy after the back end runs,
    given the registers live out of it ([gk], when given, is [b]'s
    {!Liveness.gen_kill}). *)
let estimate ?gk (b : Block.t) ~live_out : estimate =
  let gk = match gk with Some g -> g | None -> Liveness.gen_kill b in
  (* one walk: the defined registers, the load/store count and each
     register's operand occurrences *)
  let uses = Hashtbl.create 32 in
  let defs, loads_stores =
    List.fold_left
      (fun (defs, ls) (i : Instr.t) ->
        List.iter
          (fun r ->
            Hashtbl.replace uses r
              (1 + Option.value ~default:0 (Hashtbl.find_opt uses r)))
          (Instr.uses i);
        ( List.fold_left (fun acc r -> IntSet.add r acc) defs (Instr.defs i),
          if Instr.is_load i || Instr.is_store i then ls + 1 else ls ))
      (IntSet.empty, 0) b.Block.instrs
  in
  let outputs = IntSet.inter defs live_out in
  let inputs = Liveness.block_inputs ~gk b ~live_out in
  (* consumer count per defined register: operand occurrences + exit
     reads + one output-write slot if live out *)
  let exit_reads = Block.exit_uses b in
  let fanout =
    IntSet.fold
      (fun r acc ->
        let n =
          Option.value ~default:0 (Hashtbl.find_opt uses r)
          + Bool.to_int (IntSet.mem r exit_reads)
          + Bool.to_int (IntSet.mem r outputs)
        in
        acc + fanout_movs n)
      defs 0
  in
  (* null writes: an output register all of whose definitions are guarded
     needs a predicated-complement null write so the block always emits
     the same number of outputs; [gk.kill] is the unconditionally
     defined registers *)
  let nullws = IntSet.cardinal (IntSet.diff outputs gk.Liveness.kill) in
  let branches = List.length b.Block.exits in
  {
    instrs = Block.size b + branches + fanout + nullws;
    loads_stores;
    reads = IntSet.cardinal inputs;
    writes = IntSet.cardinal outputs;
    inputs;
    outputs;
  }

(** Does the estimate fit the limits, with [slack] instruction slots held
    back for register-allocator spill code? *)
let legal ?(slack = 0) limits e =
  e.instrs <= limits.max_instrs - slack
  && e.loads_stores <= limits.max_load_store
  && e.reads <= limits.max_reads
  && e.writes <= limits.max_writes

(** Every block of [cfg] with its estimate, in [Cfg.blocks] order: one
    liveness solve and one gen/kill per block for the graph. *)
let scan cfg =
  let blocks = Cfg.blocks cfg in
  let gks = Hashtbl.create 64 in
  List.iter
    (fun (b : Block.t) -> Hashtbl.replace gks b.Block.id (Liveness.gen_kill b))
    blocks;
  let live = Liveness.compute ~gen_kill_of:(Hashtbl.find gks) cfg in
  List.map
    (fun (b : Block.t) ->
      let id = b.Block.id in
      (id, estimate ~gk:(Hashtbl.find gks id) b ~live_out:(Liveness.live_out live id)))
    blocks

(** Every block of [cfg] whose estimate breaks [limits], with that
    estimate, in [Cfg.blocks] order: the blocks of one {!scan}. *)
let over_budget limits cfg =
  List.filter (fun (_, e) -> not (legal limits e)) (scan cfg)

(** Fullness of a block as a fraction of the instruction budget, used in
    reporting. *)
let utilization limits e =
  float_of_int e.instrs /. float_of_int limits.max_instrs

let pp_estimate fmt e =
  Fmt.pf fmt "instrs=%d ls=%d reads=%d writes=%d" e.instrs e.loads_stores
    e.reads e.writes
