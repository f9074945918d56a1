(* Discrete unroll/peel phases for the classical orderings of Table 1.

   UPIO runs loop unrolling and peeling *before* if-conversion: the loop
   body is replicated at the CFG level (tests retained, no predication)
   and the unroll factor must be chosen from a pessimistic pre-predication
   size estimate — the phase-ordering handicap the paper describes.

   IUPO runs them *after* if-conversion: loops are single self-looping
   hyperblocks by then, so the unroller sees exact block sizes and picks
   an accurate factor, but applies it in one shot with no interleaved
   optimization (that last step is what distinguishes it from convergent
   formation). *)

open Trips_ir
open Trips_analysis
open Trips_profile

(* Largest peel count k <= max_peel such that at least [coverage] of the
   loop's entries run >= k iterations. *)
let peel_count profile ~header ~max_peel ~coverage =
  match Profile.trip_histogram profile header with
  | [] -> 0
  | _ ->
    let rec grow k =
      if k >= max_peel then k
      else if Profile.trip_count_at_least profile header (k + 1) >= coverage
      then grow (k + 1)
      else k
    in
    grow 0

(* ---- pre-formation (UPIO) --------------------------------------------- *)

(* Pessimistic whole-loop size estimate before if-conversion: body
   instruction counts inflated by a predication-overhead guess, plus one
   branch per block. *)
let pre_formation_loop_estimate cfg (l : Loops.loop) =
  let raw =
    IntSet.fold
      (fun id acc ->
        let b = Cfg.block cfg id in
        acc + Block.size b + List.length b.Block.exits)
      l.Loops.body 0
  in
  int_of_float (float_of_int raw *. 1.4)

(** UPIO's U and P: CFG-level replication of loop bodies, innermost loops
    first, before any if-conversion.  Returns (unrolled, peeled) iteration
    counts for the statistics columns. *)
let run_before_formation (config : Policy.config) cfg profile =
  let loops = Loops.compute cfg in
  (* Only innermost loops are unrolled/peeled, and the unroll factor is
     capped low: before if-conversion the unroller cannot predict how the
     body will pack into hyperblocks, so a fixed conservative bound is
     the realistic discrete-phase policy (it is also why UPIO trails the
     orderings that see post-if-conversion sizes). *)
  let innermost (l : Loops.loop) =
    List.for_all
      (fun (o : Loops.loop) ->
        o.Loops.header = l.Loops.header
        || not (IntSet.subset o.Loops.body l.Loops.body))
      (Loops.all_loops loops)
  in
  let by_depth =
    List.sort
      (fun a b -> compare b.Loops.depth a.Loops.depth)
      (List.filter innermost (Loops.all_loops loops))
  in
  let unrolled = ref 0 and peeled = ref 0 in
  List.iter
    (fun (l : Loops.loop) ->
      (* loop structure may have changed as inner loops were processed *)
      let current = Loops.compute cfg in
      match Loops.loop_headed_by current l.Loops.header with
      | None -> ()
      | Some l ->
        let p =
          peel_count profile ~header:l.Loops.header
            ~max_peel:config.Policy.max_peel
            ~coverage:config.Policy.peel_coverage
        in
        if p > 0 then begin
          ignore (Trips_transform.Cfg_loop.peel cfg l ~count:p);
          peeled := !peeled + p
        end;
        (* re-read the loop after peeling rewired its entries *)
        let current = Loops.compute cfg in
        (match Loops.loop_headed_by current l.Loops.header with
        | None -> ()
        | Some l ->
          let est = max 1 (pre_formation_loop_estimate cfg l) in
          let budget = config.Policy.limits.Constraints.max_instrs - config.Policy.slack in
          let factor = min 4 (max 1 (budget / est)) in
          if factor > 1 then begin
            ignore (Trips_transform.Cfg_loop.unroll cfg l ~factor);
            unrolled := !unrolled + (factor - 1)
          end))
    by_depth;
  Cfg.validate cfg;
  (!unrolled, !peeled)

(* ---- post-formation (IUPO) -------------------------------------------- *)

let self_loop_blocks cfg =
  List.filter
    (fun id -> List.mem id (Cfg.successors cfg id))
    (Cfg.block_ids cfg)

(** IUPO's U and P: peel and unroll single-block loops after
    if-conversion, with exact sizes, by driving the head-duplication merge
    primitive a fixed number of times (no optimization in the loop).
    Accumulates into [stats]. *)
let run_after_formation (config : Policy.config) cfg profile
    (stats : Formation.stats) =
  let config = { config with Policy.enable_head_dup = true; iterate_opt = false } in
  let st = Formation.make config cfg profile in
  List.iter
    (fun loop_id ->
      if Cfg.mem cfg loop_id then begin
        (* peeling: merge copies of the loop into each outside
           predecessor, as many iterations as the trip histogram covers *)
        let p =
          peel_count profile ~header:loop_id ~max_peel:config.Policy.max_peel
            ~coverage:config.Policy.peel_coverage
        in
        let preds = Cfg.predecessors cfg loop_id in
        let outside = List.filter (fun q -> q <> loop_id) preds in
        List.iter
          (fun pred ->
            let rec peel_iter k =
              if k < p then
                match
                  Formation.merge_blocks st ~hb_id:pred ~s_id:loop_id
                    ~kind:Formation.Peel
                with
                | Formation.Success _ -> peel_iter (k + 1)
                | Formation.Structural_failure _ | Formation.Size_rejected _ ->
                  ()
            in
            peel_iter 0)
          outside;
        (* unrolling: exact factor from the actual hyperblock size *)
        if Cfg.mem cfg loop_id then begin
          let live = Liveness.compute cfg in
          let b = Cfg.block cfg loop_id in
          let est =
            Constraints.estimate b ~live_out:(Liveness.live_out live loop_id)
          in
          let budget =
            config.Policy.limits.Constraints.max_instrs - config.Policy.slack
          in
          let extra =
            min config.Policy.max_unroll
              (max 0 ((budget / max 1 est.Constraints.instrs) - 1))
          in
          let rec unroll_iter k =
            if k < extra then
              match
                Formation.merge_blocks st ~hb_id:loop_id ~s_id:loop_id
                  ~kind:Formation.Unroll
              with
              | Formation.Success _ -> unroll_iter (k + 1)
              | Formation.Structural_failure _ | Formation.Size_rejected _ ->
                ()
          in
          unroll_iter 0
        end
      end)
    (self_loop_blocks cfg);
  Order.prune_unreachable cfg;
  Cfg.validate cfg;
  Formation.accum ~into:stats (Formation.stats st);
  Formation.publish_metrics st
