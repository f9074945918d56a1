(* Back-end driver: register allocation, reverse if-conversion on
   constraint violations, then fanout insertion — the lower half of the
   compiler flow in Figure 6 of the paper. *)

open Trips_ir
open Trips_analysis

type report = {
  mapping : int IntMap.t;  (* original virtual register -> architectural *)
  cross_block_values : int;
  splits : int;  (* blocks split by reverse if-conversion *)
  fanout_movs : int;
  rounds : int;  (* allocation rounds run *)
}

(* Test-only fault injection: while positive, every [run] decrements the
   counter and raises as a budget rejection would.  Lets the degradation
   tests drive the pipeline's split-and-retry and backend-off paths on
   demand (same idiom as [Engine.spawn_limit_for_tests]). *)
let reject_for_tests : int ref = ref 0

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
  let live = Liveness.compute cfg in
  List.filter_map
    (fun (b : Block.t) ->
      let live_out = Liveness.live_out live b.Block.id in
      if
        Chf.Constraints.legal Chf.Constraints.trips_limits
          (Chf.Constraints.estimate b ~live_out)
      then None
      else Some b.Block.id)
    (Cfg.blocks cfg)

(* Allocation rounds before the back end gives up and reports the
   remaining violations. *)
let max_rounds = 8

(** Run the back end on a formed CFG, in place.  Returns the allocation
    report; the [mapping] lets callers translate front-end register names
    (e.g. kernel parameters) to their architectural homes. *)
let run cfg : report =
  if !reject_for_tests > 0 then begin
    decr reject_for_tests;
    failwith "backend: injected rejection (reject_for_tests)"
  end;
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
    let over = over_budget_blocks cfg in
    match (Reg_alloc.violations cfg, over) with
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
      (* give up: report rather than loop; the cycle model still runs *)
      Logs.warn (fun m ->
          m "%s: %d bank / %d budget violations remain after %d allocation \
             rounds"
            cfg.Cfg.name (List.length viols) (List.length over) round);
      (mapping, result.Reg_alloc.cross_block_values, round)
  in
  let mapping, cross_block_values, rounds = allocate IntMap.empty 1 in
  let fanout_movs = ref (Fanout.run cfg) in
  (* the materialized fanout trees can overshoot the pre-fanout
     estimate; split the overflowing block and re-fan the halves (a
     second [Fanout.run] is a no-op on untouched blocks) *)
  let outer = ref 0 in
  let continue_ = ref true in
  while !continue_ && !outer < 4 do
    incr outer;
    match over_budget_blocks cfg with
    | [] -> continue_ := false
    | over ->
      if split_all over then fanout_movs := !fanout_movs + Fanout.run cfg
      else continue_ := false
  done;
  Cfg.validate cfg;
  { mapping; cross_block_values; splits = !splits; fanout_movs = !fanout_movs; rounds }
