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

(* ---- pre-filter lower bounds (paper Section 5 / DESIGN.md §12) -------- *)

(* Formation trials are expensive (combine + install + liveness fixpoint
   + optimizer + rollback), so the hot loop wants to reject hopeless
   candidates from a cheap, per-block cacheable *lower bound* on the
   merged estimate.  The bound must never exceed the true
   post-optimization estimate — then a fast reject fires only where the
   slow path would also have rejected and formation output is unchanged.

   Derivation (DESIGN.md §12).  [Combine.combine] emits every
   instruction of HB verbatim and every instruction of S with only its
   *guard* replaced; operand registers are never renamed.  The floor
   therefore keeps only what the optimizer (local VN, predicate-opt,
   DCE) provably cannot remove:

   - stores: DCE keeps side effects, predicate-opt never strips a
     store's guard, and local VN deletes a store only when its guard is
     proven constant-false — which requires a constant-false branch
     guard the exit simplifier would already have pruned (audited by
     [Formation.audit] over the test workloads);
   - at least one exit always survives (+1 branch instruction);
   - register reads: a store *operand* register (value or address — not
     the guard, which combine rewrites) with no definition in either
     block stays a block input: VN canonicalizes operands toward the
     oldest register holding a value, which for a block input is the
     input register itself, and guarded-copy substitution only replaces
     registers defined by in-block movs.

   Everything else — arithmetic (cross-block CSE), compares (the merged
   branch test), movs (copy propagation), loads (store-to-load
   forwarding), logical ops (predicate simplification), fanout movs,
   null writes, register writes — can in principle be optimized to
   nothing, so it contributes zero.  The result is deliberately weak but
   sound; it fires hardest exactly where trials are most wasted: unroll
   and retry-pool attempts on store-carrying loops, where stores
   accumulate additively and are never optimized away. *)

type floor = {
  fl_stores : int;
  fl_store_inputs : IntSet.t;
      (* store operand registers defined nowhere in the block *)
  fl_defs : IntSet.t;  (* every register the block may define *)
}

(* Value and address operand registers of a store; guard registers are
   excluded because combine replaces guards wholesale. *)
let store_operand_regs (i : Instr.t) =
  match i.Instr.op with
  | Instr.Store (v, a, _) ->
    List.filter_map Instr.reg_of_operand [ v; a ]
  | _ -> []

(** Per-block ingredients of {!merge_lower_bound}; cheap to compute and
    cacheable per block record. *)
let block_floor (b : Block.t) : floor =
  let defs = Block.defs b in
  let store_inputs =
    List.fold_left
      (fun acc (i : Instr.t) ->
        List.fold_left
          (fun acc r -> if IntSet.mem r defs then acc else IntSet.add r acc)
          acc (store_operand_regs i))
      IntSet.empty b.Block.instrs
  in
  {
    fl_stores = List.length (List.filter Instr.is_store b.Block.instrs);
    fl_store_inputs = store_inputs;
    fl_defs = defs;
  }

(** Lower bound on {!estimate} of the optimized merge of [s] into [hb]:
    additive store floors plus the one exit that always survives.  [s]'s
    store inputs only stay inputs when [hb] (whose instructions precede
    [s]'s in the merged block) cannot define them; [hb]'s own store
    inputs are read before any [s] definition, so they stay exposed
    unconditionally. *)
let merge_lower_bound ~(hb : floor) ~(s : floor) : estimate =
  {
    instrs = hb.fl_stores + s.fl_stores + 1;
    loads_stores = hb.fl_stores + s.fl_stores;
    reads =
      IntSet.cardinal
        (IntSet.union hb.fl_store_inputs
           (IntSet.diff s.fl_store_inputs hb.fl_defs));
    writes = 0;
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
