(* Back-end driver: register allocation, reverse if-conversion on
   constraint violations, then fanout insertion — the lower half of the
   compiler flow in Figure 6 of the paper. *)

open Trips_ir

type report = {
  mapping : int IntMap.t;  (* original virtual register -> architectural *)
  cross_block_values : int;
  splits : int;  (* blocks split by reverse if-conversion *)
  fanout_movs : int;
  rounds : int;  (* allocation rounds run *)
}

(* Blocks whose size estimate exceeds the hard TRIPS frame limits.
   Formation checks each merge against this estimate, but a later merge
   into a different hyperblock can extend a live range through an
   already-formed block, inflating its fanout and null-write overhead
   past the 128-slot frame after the fact; fanout materialization can
   also exceed the estimate's idealized mov count (the tree reserves the
   producer's root slot and fans each definition site separately).
   Reverse if-conversion is the paper's repair for any structural
   constraint the allocator's view exposes (Section 6), so these are
   split and re-processed like bank violations. *)
let over_budget_blocks cfg =
  List.map fst (Chf.Constraints.over_budget Chf.Constraints.trips_limits cfg)

(* What an allocation round must repair, read off one scan: the bank
   violations and the blocks over budget. *)
let offenders cfg =
  let scan = Chf.Constraints.scan cfg in
  ( Reg_alloc.violations scan,
    List.filter_map
      (fun (id, e) ->
        if Chf.Constraints.legal Chf.Constraints.trips_limits e then None
        else Some id)
      scan )

(* Allocation rounds before the back end gives up, and re-split rounds
   after fanout insertion. *)
let max_rounds = 8
let max_refan_rounds = 4

let give_up cfg ~bank ~budget ~after =
  Fmt.failwith "backend: %s: %d bank / %d budget violations remain after %s"
    cfg.Cfg.name bank budget after

(** Run the back end on a formed CFG, in place.  Returns the allocation
    report; the [mapping] lets callers translate front-end register names
    (e.g. kernel parameters) to their architectural homes.  Raises
    [Failure] when allocation runs out of registers or reverse
    if-conversion cannot bring every block within the TRIPS budgets. *)
let run cfg : report =
  let splits = ref 0 in
  let split_all blocks =
    List.fold_left
      (fun acc id ->
        match Reverse_if_convert.split_block cfg id with
        | Some _ ->
          incr splits;
          true
        | None -> acc)
      false blocks
  in
  let rec allocate mapping round =
    let result = Reg_alloc.run cfg in
    (* compose: earlier names may map through this round's renaming *)
    let mapping =
      IntMap.map
        (fun v -> IntMap.find_or ~default:v v result.Reg_alloc.mapping)
        mapping
      |> IntMap.union (fun _ a _ -> Some a) result.Reg_alloc.mapping
    in
    match offenders cfg with
    | [], [] -> (mapping, result.Reg_alloc.cross_block_values, round)
    | viols, over when round < max_rounds ->
      let blocks =
        List.sort_uniq compare
          (List.map (fun (v : Reg_alloc.violation) -> v.Reg_alloc.block) viols
          @ over)
      in
      ignore (split_all blocks);
      allocate mapping (round + 1)
    | viols, over ->
      give_up cfg ~bank:(List.length viols) ~budget:(List.length over)
        ~after:(Fmt.str "%d allocation rounds" round)
  in
  let mapping, cross_block_values, rounds = allocate IntMap.empty 1 in
  let fanout_movs = ref (Fanout.run cfg) in
  (* the materialized fanout trees can overshoot the pre-fanout
     estimate; split the overflowing block and re-fan the halves (a
     second [Fanout.run] is a no-op on untouched blocks) *)
  let rec refan round =
    match over_budget_blocks cfg with
    | [] -> ()
    | over when round <= max_refan_rounds && split_all over ->
      fanout_movs := !fanout_movs + Fanout.run cfg;
      refan (round + 1)
    | over ->
      give_up cfg ~bank:0 ~budget:(List.length over)
        ~after:(Fmt.str "fanout and %d re-split rounds" (round - 1))
  in
  refan 1;
  Cfg.validate cfg;
  { mapping; cross_block_values; splits = !splits; fanout_movs = !fanout_movs; rounds }
