(* Register allocation for TRIPS.

   Only values live across a block boundary occupy architectural
   registers — intra-block values travel on the operand network in target
   form.  The allocator therefore:

   1. computes boundary liveness;
   2. builds one interference row per cross-block virtual register: the
      registers it shares a block with (see [rows]);
   3. greedily colors the values (highest degree first) onto the 128
      architectural registers; picking the lowest free color interleaves
      values across the four banks since bank = register mod 4;
   4. rewrites the CFG, renaming colored virtuals to architectural ids
      (block-local temporaries keep their virtual names).

   The back-end driver then reads the per-bank read/write counts of the
   rewritten blocks ([violations]) and repairs the blocks over budget by
   reverse if-conversion.

   With 128 registers and kernel-sized functions true spills are rare
   (the paper says the same); if coloring ever needs more than 128
   colors, [run] fails with "backend: <cfg>: out of registers …" and the
   cell fails like any other back-end failure. *)

open Trips_ir
open Trips_analysis

type result = {
  mapping : int IntMap.t;  (* virtual -> architectural *)
  cross_block_values : int;
}

(* Interference.  Each block [b] contributes the set
   S_b = live-in ∪ live-out ∪ defs(b), every two members of which
   interfere.  The live-in/live-out union (rather than two separate
   boundary sets) makes a value defined mid-block conflict with a
   live-in value that is still read after the definition point;
   including *all* definitions matters because under the refined
   predication-aware liveness a guarded definition can be dead (its
   value provably unobservable) yet it still physically writes its
   register, so it must not share a home with anything live in the
   block.  With 128 registers the conservatism is harmless.

   Only the cross-block virtual registers are colored, so only they get
   a row: the union of the S_b that contain them, minus themselves.
   That row is exactly the neighbourhood the per-block cliques over
   every register would give them, block-local temporaries included, so
   its cardinal is the degree that orders the coloring.  Architectural
   registers (from a previous round, when allocation repeats after
   reverse if-conversion) appear in rows and act as precolored nodes. *)
let rows cfg live =
  let rows = Hashtbl.create 64 in
  let block_sets =
    List.map
      (fun id ->
        let boundary =
          IntSet.union (Liveness.live_in live id) (Liveness.live_out live id)
        in
        (* the values: virtual registers live at some block boundary *)
        IntSet.iter
          (fun r ->
            if not (Machine.is_arch r) then Hashtbl.replace rows r IntSet.empty)
          boundary;
        IntSet.union (Block.defs (Cfg.block cfg id)) boundary)
      (Cfg.block_ids cfg)
  in
  List.iter
    (fun s ->
      IntSet.iter
        (fun r ->
          match Hashtbl.find_opt rows r with
          | Some row -> Hashtbl.replace rows r (IntSet.union s row)
          | None -> ())
        s)
    block_sets;
  Hashtbl.filter_map_inplace (fun r row -> Some (IntSet.remove r row)) rows;
  rows

let color cfg rows =
  let order =
    Hashtbl.fold (fun r row acc -> (IntSet.cardinal row, r) :: acc) rows []
    |> List.sort (fun (da, a) (db, b) ->
           match compare db da with 0 -> compare a b | c -> c)
  in
  let assignment = Hashtbl.create 64 in
  let taken = Array.make Machine.num_arch_regs false in
  List.iter
    (fun (degree, r) ->
      Array.fill taken 0 Machine.num_arch_regs false;
      IntSet.iter
        (fun n ->
          if Machine.is_arch n then taken.(n) <- true  (* precolored *)
          else
            match Hashtbl.find_opt assignment n with
            | Some c -> taken.(c) <- true
            | None -> ())
        (Hashtbl.find rows r);
      let rec first_free c =
        if c >= Machine.num_arch_regs then
          Fmt.failwith
            "backend: %s: out of registers: r%d interferes with %d registers and \
             every architectural register is taken"
            cfg.Cfg.name r degree
        else if taken.(c) then first_free (c + 1)
        else c
      in
      Hashtbl.replace assignment r (first_free 0))
    order;
  assignment

let rewrite cfg mapping =
  let rename r = IntMap.find_or ~default:r r mapping in
  List.iter
    (fun id ->
      let b = Cfg.block cfg id in
      let instrs = List.map (Instr.map_regs rename) b.Block.instrs in
      let exits =
        List.map
          (fun (e : Block.exit_) ->
            let eguard =
              Option.map
                (fun g -> { g with Instr.greg = rename g.Instr.greg })
                e.Block.eguard
            in
            let target =
              match e.Block.target with
              | Block.Ret (Some (Instr.Reg r)) ->
                Block.Ret (Some (Instr.Reg (rename r)))
              | t -> t
            in
            { Block.eguard; target })
          b.Block.exits
      in
      Cfg.set_block cfg { b with Block.instrs; exits })
    (Cfg.block_ids cfg)

(** Allocate architectural registers; rewrites the CFG in place. *)
let run cfg : result =
  let live = Liveness.compute cfg in
  let rows = rows cfg live in
  let assignment = color cfg rows in
  let mapping =
    Hashtbl.fold (fun r c acc -> IntMap.add r c acc) assignment IntMap.empty
  in
  rewrite cfg mapping;
  { mapping; cross_block_values = Hashtbl.length rows }

(* ---- bank-budget checking --------------------------------------------- *)

type violation = { block : int; reads_over : int; writes_over : int }

(* Registers per bank among the architectural members of [s]. *)
let per_bank s =
  let a = Array.make Machine.num_banks 0 in
  IntSet.iter
    (fun r ->
      if Machine.is_arch r then
        a.(Machine.bank_of r) <- a.(Machine.bank_of r) + 1)
    s;
  a

(** Blocks whose per-bank read or write counts exceed the TRIPS budget,
    read off the estimates of one {!Chf.Constraints.scan}. *)
let violations scan : violation list =
  List.filter_map
    (fun (id, (e : Chf.Constraints.estimate)) ->
      let over s limit =
        Array.fold_left (fun acc n -> acc + max 0 (n - limit)) 0 (per_bank s)
      in
      let r = over e.Chf.Constraints.inputs Machine.max_reads_per_bank in
      let w = over e.Chf.Constraints.outputs Machine.max_writes_per_bank in
      if r > 0 || w > 0 then Some { block = id; reads_over = r; writes_over = w }
      else None)
    scan
