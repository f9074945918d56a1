(* The phase orderings compared in Table 1.

   Parenthesized phases are merged into convergent formation's iterative
   loop; unparenthesized ones run as discrete passes:

   - BB      : basic blocks as TRIPS blocks (baseline);
   - UPIO    : CFG-level Unroll+Peel, then incremental If-conversion with
               tail duplication, then scalar Optimization;
   - IUPO    : If-conversion first, then Unroll+Peel with accurate
               post-if-conversion sizes, then Optimization;
   - (IUP)O  : convergent formation with head duplication (I, U and P
               interleaved) but optimization only at the end;
   - (IUPO)  : full convergent formation — optimization runs after every
               merge, so size estimates are tight and more blocks fit. *)

open Trips_profile

type ordering =
  | Basic_blocks
  | Upio
  | Iupo
  | Iup_o  (* (IUP)O *)
  | Iupo_merged  (* (IUPO) *)

let all = [ Basic_blocks; Upio; Iupo; Iup_o; Iupo_merged ]

(* The four formed configurations every experiment sweeps against the
   basic-block baseline (Tables 1 and 3, Figure 7): adding an ordering
   here updates every table. *)
let table_orderings = [ Upio; Iupo; Iup_o; Iupo_merged ]

let name = function
  | Basic_blocks -> "BB"
  | Upio -> "UPIO"
  | Iupo -> "IUPO"
  | Iup_o -> "(IUP)O"
  | Iupo_merged -> "(IUPO)"

type step = { step_name : string; step_run : unit -> unit }

(** Decompose ordering [o] over [cfg] into named steps.  Running every
    step in order is exactly {!apply}; the per-phase verifier interleaves
    structural and differential checks between steps.  The returned stats
    record is accumulated into as steps run. *)
let plan ?(config = Policy.edge_default) o cfg (profile : Profile.t) :
    Formation.stats * step list =
  let stats = Formation.empty_stats () in
  let optimize name =
    { step_name = name;
      step_run = (fun () -> Trips_opt.Optimizer.optimize_cfg cfg) }
  in
  let formation config' =
    { step_name = "formation";
      step_run =
        (fun () ->
          Formation.accum ~into:stats (Formation.run config' cfg profile)) }
  in
  let steps =
    match o with
    | Basic_blocks -> [ optimize "optimize" ]
    | Upio ->
      [
        optimize "optimize";
        {
          step_name = "unroll+peel";
          step_run =
            (fun () ->
              let u, p = Discrete_up.run_before_formation config cfg profile in
              stats.Formation.unrolls <- stats.Formation.unrolls + u;
              stats.Formation.peels <- stats.Formation.peels + p);
        };
        formation
          { config with Policy.enable_head_dup = false; iterate_opt = false };
        optimize "final-optimize";
      ]
    | Iupo ->
      [
        optimize "optimize";
        formation
          { config with Policy.enable_head_dup = false; iterate_opt = false };
        {
          step_name = "unroll+peel";
          step_run =
            (fun () -> Discrete_up.run_after_formation config cfg profile stats);
        };
        optimize "final-optimize";
      ]
    | Iup_o ->
      [
        optimize "optimize";
        formation
          { config with Policy.enable_head_dup = true; iterate_opt = false };
        optimize "final-optimize";
      ]
    | Iupo_merged ->
      (* the policy as given: every named policy already enables head
         duplication and iterative optimization, and the ablation turns
         them off one at a time *)
      [ optimize "optimize"; formation config; optimize "final-optimize" ]
  in
  (stats, steps)

(** Apply phase ordering [o] to [cfg] in place.  [config] supplies the
    block-selection policy and structural limits (Table 1 uses the greedy
    breadth-first EDGE policy throughout).  Classical scalar optimization
    runs first in every configuration, mirroring the Scale front end.
    Returns m/t/u/p statistics. *)
let apply ?config o cfg (profile : Profile.t) : Formation.stats =
  let stats, steps = plan ?config o cfg profile in
  List.iter (fun s -> s.step_run ()) steps;
  stats
