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
    given the registers live out of it. *)
let estimate (b : Block.t) ~live_out : estimate =
  let defs = Block.defs b in
  let outputs = IntSet.inter defs live_out in
  let reads = IntSet.cardinal (Liveness.block_inputs b ~live_out) in
  let writes = IntSet.cardinal outputs in
  let loads_stores = Block.num_load_store b in
  (* consumer counts per defined register: operand occurrences + exit
     reads + one output-write slot if live out *)
  let consumers = Hashtbl.create 32 in
  let bump r n =
    if IntSet.mem r defs then
      Hashtbl.replace consumers r (n + Option.value ~default:0 (Hashtbl.find_opt consumers r))
  in
  List.iter
    (fun i -> List.iter (fun r -> bump r 1) (Instr.uses i))
    b.Block.instrs;
  IntSet.iter (fun r -> bump r 1) (Block.exit_uses b);
  IntSet.iter (fun r -> bump r 1) outputs;
  let fanout =
    Hashtbl.fold (fun _ n acc -> acc + fanout_movs n) consumers 0
  in
  (* null writes: an output register all of whose definitions are guarded
     needs a predicated-complement null write so the block always emits
     the same number of outputs *)
  let unconditional = Block.must_defs b in
  let nullws =
    IntSet.cardinal (IntSet.diff outputs unconditional)
  in
  let branches = List.length b.Block.exits in
  {
    instrs = Block.size b + branches + fanout + nullws;
    loads_stores;
    reads;
    writes;
  }

(** Does the estimate fit the limits, with [slack] instruction slots held
    back for register-allocator spill code? *)
let legal ?(slack = 0) limits e =
  e.instrs <= limits.max_instrs - slack
  && e.loads_stores <= limits.max_load_store
  && e.reads <= limits.max_reads
  && e.writes <= limits.max_writes

(** Fullness of a block as a fraction of the instruction budget, used in
    reporting. *)
let utilization limits e =
  float_of_int e.instrs /. float_of_int limits.max_instrs

let pp_estimate fmt e =
  Fmt.pf fmt "instrs=%d ls=%d reads=%d writes=%d" e.instrs e.loads_stores
    e.reads e.writes
