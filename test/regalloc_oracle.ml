(* Reference register allocator and bank checker.

   The clique formulation of [Reg_alloc]: every block inserts a full
   clique over live-in ∪ live-out ∪ its definitions, over every register
   (block-local temporaries included), and the boundary-live virtual
   registers are colored greedily, highest degree first, onto the lowest
   free architectural register.  [bank_violations] recomputes each
   block's per-bank architectural reads and writes from a fresh liveness
   solve.  It is the executable specification the regalloc suite
   compares [Reg_alloc.run]'s mapping and [Backend.offenders]' bank
   violations against; nothing outside the tests uses it. *)

open Trips_ir
open Trips_analysis

exception Out_of_registers

(* Virtual registers live at any block boundary. *)
let boundary_values cfg live =
  List.fold_left
    (fun acc id ->
      IntSet.union acc
        (IntSet.union (Liveness.live_in live id) (Liveness.live_out live id)))
    IntSet.empty (Cfg.block_ids cfg)

let interference cfg live =
  let edges : (int, IntSet.t) Hashtbl.t = Hashtbl.create 64 in
  let add a b =
    if a <> b then
      Hashtbl.replace edges a
        (IntSet.add b (Option.value ~default:IntSet.empty (Hashtbl.find_opt edges a)))
  in
  let clique set =
    IntSet.iter (fun a -> IntSet.iter (fun b -> add a b) set) set
  in
  List.iter
    (fun id ->
      let b = Cfg.block cfg id in
      clique
        (IntSet.union (Block.defs b)
           (IntSet.union (Liveness.live_in live id) (Liveness.live_out live id))))
    (Cfg.block_ids cfg);
  edges

let color values edges =
  let degree r =
    IntSet.cardinal
      (Option.value ~default:IntSet.empty (Hashtbl.find_opt edges r))
  in
  let order =
    List.sort
      (fun a b ->
        match compare (degree b) (degree a) with 0 -> compare a b | c -> c)
      (IntSet.elements values)
  in
  let assignment = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let neighbors =
        Option.value ~default:IntSet.empty (Hashtbl.find_opt edges r)
      in
      let taken =
        IntSet.fold
          (fun n acc ->
            if Machine.is_arch n then IntSet.add n acc  (* precolored *)
            else
              match Hashtbl.find_opt assignment n with
              | Some c -> IntSet.add c acc
              | None -> acc)
          neighbors IntSet.empty
      in
      let rec first_free c =
        if c >= Machine.num_arch_regs then raise Out_of_registers
        else if IntSet.mem c taken then first_free (c + 1)
        else c
      in
      Hashtbl.replace assignment r (first_free 0))
    order;
  assignment

(** The virtual -> architectural mapping the clique allocator gives
    [cfg]; [cfg] is not rewritten. *)
let mapping cfg =
  let live = Liveness.compute cfg in
  let values =
    IntSet.filter
      (fun r -> not (Machine.is_arch r))
      (boundary_values cfg live)
  in
  let edges = interference cfg live in
  let assignment = color values edges in
  Hashtbl.fold (fun r c acc -> IntMap.add r c acc) assignment IntMap.empty

(* Reads/writes of *architectural* registers per bank for one block. *)
let bank_pressure cfg live id =
  let b = Cfg.block cfg id in
  let arch s = IntSet.filter Machine.is_arch s in
  let reads =
    arch (Liveness.block_inputs b ~live_out:(Liveness.live_out live id))
  in
  let writes =
    arch (IntSet.inter (Block.defs b) (Liveness.live_out live id))
  in
  let per_bank s =
    let a = Array.make Machine.num_banks 0 in
    IntSet.iter (fun r -> a.(Machine.bank_of r) <- a.(Machine.bank_of r) + 1) s;
    a
  in
  (per_bank reads, per_bank writes)

(** Blocks whose per-bank read or write counts exceed the TRIPS budget,
    as [(block, reads_over, writes_over)] in [Cfg.block_ids] order. *)
let bank_violations cfg =
  let live = Liveness.compute cfg in
  List.filter_map
    (fun id ->
      let reads, writes = bank_pressure cfg live id in
      let over a limit =
        Array.fold_left (fun acc n -> acc + max 0 (n - limit)) 0 a
      in
      let r = over reads Machine.max_reads_per_bank in
      let w = over writes Machine.max_writes_per_bank in
      if r > 0 || w > 0 then Some (id, r, w) else None)
    (Cfg.block_ids cfg)
