(* A gallery of the paper's Figures 2-4: classical tail duplication, head
   duplication implementing peeling, and head duplication implementing
   unrolling — each shown as CFG-before / merged-block-after, driving the
   low-level merge machinery directly.

     dune exec examples/duplication_gallery.exe *)

open Trips_ir
open Trips_lang
open Trips_sim

let show title cfg =
  Fmt.pr "--- %s ---@.%a@.@." title Cfg.pp cfg

(* Run formation restricted to one seed so the transformation sequence is
   easy to follow, and verify semantics against the untouched program. *)
let demo name program memory_init expand_seed =
  Fmt.pr "==================== %s ====================@." name;
  let cfg, _ = Lower.lower program in
  show "original CFG" cfg;
  let loops = Trips_analysis.Loops.compute cfg in
  let memory = Array.init 128 memory_init in
  let baseline, profile = Func_sim.run_profiled ~loops ~memory cfg in
  let cfg2, _ = Lower.lower program in
  let st = Chf.Formation.make Chf.Policy.edge_default cfg2 profile in
  Chf.Formation.expand_block st expand_seed;
  Trips_analysis.Order.prune_unreachable cfg2;
  Cfg.validate cfg2;
  show "after ExpandBlock on the entry" cfg2;
  Fmt.pr "merge statistics m/t/u/p: %a@." Chf.Formation.pp_stats
    (Chf.Formation.stats st);
  let memory2 = Array.init 128 memory_init in
  let r = Func_sim.run ~memory:memory2 cfg2 in
  assert (r.Func_sim.checksum = baseline.Func_sim.checksum);
  Fmt.pr "semantics verified (ret = %a)@.@." Fmt.(option int) r.Func_sim.ret

(* Figure 2: a diamond whose merge point D has two predecessors; merging
   A, B and D forces tail duplication of D. *)
let tail_dup_demo =
  let open Ast in
  {
    prog_name = "fig2_tail_dup";
    params = [];
    body =
      [
        "x" <-- mem (i 0);
        (* A: branch *)
        If (v "x" > i 5, [ "y" <-- (v "x" * i 2) ] (* B *),
           [ "y" <-- (v "x" + i 100) ] (* C *));
        (* D: merge point *)
        "z" <-- (v "y" + i 7);
        Return (Some (v "z"));
      ];
  }

(* Figure 3: B is a loop header entered from A; merging A with B peels an
   iteration via head duplication. *)
let peel_demo =
  let open Ast in
  {
    prog_name = "fig3_peel";
    params = [];
    body =
      [
        "acc" <-- mem (i 1);
        "k" <-- i 0;
        While (v "k" < mem (i 2),
          [ "acc" <-- (v "acc" + v "k"); "k" <-- (v "k" + i 1) ]);
        Return (Some (v "acc"));
      ];
  }

(* Figure 4: after the loop body collapses into its header, the block has
   a self back edge; merging the block with itself unrolls the loop. *)
let unroll_demo =
  let open Ast in
  {
    prog_name = "fig4_unroll";
    params = [];
    body =
      [
        "acc" <-- i 0;
        "k" <-- i 0;
        DoWhile
          ( [ "acc" <-- (v "acc" + mem (v "k")); "k" <-- (v "k" + i 1) ],
            v "k" < i 64 );
        Return (Some (v "acc"));
      ];
  }

let () =
  demo "Figure 2: tail duplication" tail_dup_demo (fun k -> k + 3) 0;
  demo "Figure 3: head duplication as peeling" peel_demo
    (fun k -> (k mod 5) + 2)
    0;
  demo "Figure 4: head duplication as unrolling" unroll_demo (fun k -> k * k) 0
