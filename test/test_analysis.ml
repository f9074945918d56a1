(* Tests for the CFG analyses: orders, dominators (cross-checked against a
   naive set-based solver on random CFGs), natural loops, refined liveness
   and guard implication. *)

open Trips_ir
open Trips_analysis

let check = Alcotest.check

(* ---- a naive dominator solver for cross-checking ---------------------- *)

(* dom(entry) = {entry}; dom(b) = {b} ∪ ⋂ dom(pred). *)
let naive_dominators cfg =
  let ids = Order.postorder cfg in
  let all = IntSet.of_list_fold ids in
  let dom = Hashtbl.create 16 in
  List.iter
    (fun id ->
      Hashtbl.replace dom id
        (if id = cfg.Cfg.entry then IntSet.singleton id else all))
    ids;
  let preds = Cfg.predecessor_map cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if id <> cfg.Cfg.entry then begin
          let ps =
            IntSet.elements (IntMap.find_or ~default:IntSet.empty id preds)
          in
          let ps = List.filter (fun p -> IntSet.mem p all) ps in
          let inter =
            match ps with
            | [] -> IntSet.singleton id
            | first :: rest ->
              List.fold_left
                (fun acc p -> IntSet.inter acc (Hashtbl.find dom p))
                (Hashtbl.find dom first) rest
          in
          let now = IntSet.add id inter in
          if not (IntSet.equal now (Hashtbl.find dom id)) then begin
            Hashtbl.replace dom id now;
            changed := true
          end
        end)
      ids
  done;
  dom

let dominators_match_naive =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"CHK dominators match naive solver" ~count:150
       Generators.random_cfg_gen (fun spec ->
         let cfg = Generators.build_random_cfg spec in
         let dom = Dominators.compute cfg in
         let naive = naive_dominators cfg in
         let ids = Order.postorder cfg in
         List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 Dominators.dominates dom a b
                 = IntSet.mem a (Hashtbl.find naive b))
               ids)
           ids))

let idom_is_dominator =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"idom strictly dominates" ~count:150
       Generators.random_cfg_gen (fun spec ->
         let cfg = Generators.build_random_cfg spec in
         let dom = Dominators.compute cfg in
         List.for_all
           (fun b ->
             match Dominators.idom dom b with
             | None -> b = cfg.Cfg.entry
             | Some p -> p <> b && Dominators.dominates dom p b)
           (Order.postorder cfg)))

let tree_preorder_complete =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"dominator-tree preorder covers reachable blocks"
       ~count:100 Generators.random_cfg_gen (fun spec ->
         let cfg = Generators.build_random_cfg spec in
         let dom = Dominators.compute cfg in
         let pre = Dominators.tree_preorder dom in
         List.sort compare pre = List.sort compare (Order.postorder cfg)))

(* Formation leaves sparse block ids: absorbed blocks are removed and
   fresh ones take ids past every original one.  On each kernel's formed
   CFG, plus one unreachable block (a fresh id, so the largest) that
   branches into the graph, the array-based tree must still match the
   naive solver, and the unreachable block must dominate nothing and be
   dominated by nothing. *)
let test_dominators_sparse_ids () =
  let sparse = ref 0 in
  List.iter
    (fun (w : Trips_workloads.Workload.t) ->
      let profile, _ = Trips_harness.Pipeline.profile_workload w in
      let cfg, _ = Trips_harness.Pipeline.lower_workload w in
      Trips_opt.Optimizer.optimize_cfg cfg;
      ignore (Chf.Formation.run Chf.Policy.edge_default cfg profile);
      let ids = Cfg.block_ids cfg in
      if List.length ids < 1 + List.fold_left max 0 ids then incr sparse;
      let reachable = Order.postorder cfg in
      let u = Cfg.fresh_block_id cfg in
      Cfg.set_block cfg
        (Block.make u []
           [ { Block.eguard = None; target = Block.Goto (List.hd reachable) } ]);
      let dom = Dominators.compute cfg in
      let naive = naive_dominators cfg in
      let fail fmt = Alcotest.failf ("%s: " ^^ fmt) w.Trips_workloads.Workload.name in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if Dominators.dominates dom a b <> IntSet.mem a (Hashtbl.find naive b)
              then fail "dominates b%d b%d differs from the naive solver" a b)
            reachable)
        reachable;
      List.iter
        (fun a ->
          if Dominators.dominates dom a u || Dominators.dominates dom u a then
            fail "unreachable b%d related to b%d" u a)
        (u :: ids);
      if Dominators.idom dom u <> None then fail "unreachable b%d has an idom" u;
      if
        List.sort compare (Dominators.tree_preorder dom)
        <> List.sort compare reachable
      then fail "tree preorder is not the reachable set")
    Trips_workloads.Micro.all;
  check Alcotest.bool "some formed CFG has sparse ids" true (!sparse > 0)

(* ---- orders ------------------------------------------------------------ *)

let rpo_respects_edges =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"entry is first in reverse postorder" ~count:100
       Generators.random_cfg_gen (fun spec ->
         let cfg = Generators.build_random_cfg spec in
         match Order.reverse_postorder cfg with
         | first :: _ -> first = cfg.Cfg.entry
         | [] -> false))

let test_prune_unreachable () =
  let cfg = Cfg.create () in
  let a = Cfg.fresh_block_id cfg in
  let dead = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- a;
  let ret = [ { Block.eguard = None; target = Block.Ret None } ] in
  Cfg.set_block cfg (Block.make a [] ret);
  Cfg.set_block cfg (Block.make dead [] ret);
  Order.prune_unreachable cfg;
  check Alcotest.bool "dead block removed" false (Cfg.mem cfg dead);
  check Alcotest.bool "entry kept" true (Cfg.mem cfg a)

(* ---- loops ------------------------------------------------------------- *)

let loop_program =
  let open Trips_lang.Ast in
  {
    prog_name = "nest";
    params = [];
    body =
      [
        "acc" <-- i 0;
        for_ "x" (i 0) (i 4)
          [ for_ "y" (i 0) (i 3) [ "acc" <-- (v "acc" + v "y") ] ];
        Return (Some (v "acc"));
      ];
  }

let test_loop_nest () =
  let cfg, _ = Trips_lang.Lower.lower loop_program in
  let loops = Loops.compute cfg in
  let all = Loops.all_loops loops in
  check Alcotest.int "two loops" 2 (List.length all);
  let outer = List.find (fun l -> l.Loops.depth = 1) all in
  let inner = List.find (fun l -> l.Loops.depth = 2) all in
  check Alcotest.bool "inner nested in outer" true
    (IntSet.subset inner.Loops.body outer.Loops.body);
  check Alcotest.bool "inner header inside outer body" true
    (IntSet.mem inner.Loops.header outer.Loops.body);
  check Alcotest.bool "back edge detected" true
    (IntSet.exists
       (fun l -> Loops.is_back_edge loops ~src:l ~dst:inner.Loops.header)
       inner.Loops.latches)

let headers_dominate_bodies =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"loop headers dominate their bodies" ~count:150
       Generators.random_cfg_gen (fun spec ->
         let cfg = Generators.build_random_cfg spec in
         let dom = Dominators.compute cfg in
         let loops = Loops.compute cfg in
         List.for_all
           (fun l ->
             IntSet.for_all
               (fun b -> Dominators.dominates dom l.Loops.header b)
               l.Loops.body)
           (Loops.all_loops loops)))

let loop_exits_leave_body =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"loop exits lead outside the body" ~count:150
       Generators.random_cfg_gen (fun spec ->
         let cfg = Generators.build_random_cfg spec in
         let loops = Loops.compute cfg in
         List.for_all
           (fun l ->
             List.for_all
               (fun (src, dst) ->
                 IntSet.mem src l.Loops.body && not (IntSet.mem dst l.Loops.body))
               l.Loops.exits)
           (Loops.all_loops loops)))

(* ---- guard logic ------------------------------------------------------- *)

let test_guard_implication () =
  let cfg = Cfg.create () in
  let gi op = Cfg.instr cfg op in
  let instrs =
    [
      gi (Instr.Cmp (Opcode.Lt, 10, Instr.Reg 1, Instr.Imm 5));
      gi (Instr.Cmp (Opcode.Eq, 11, Instr.Reg 2, Instr.Imm 0));
      gi (Instr.Binop (Opcode.And, 12, Instr.Reg 10, Instr.Reg 11));
      gi (Instr.Binop (Opcode.And, 13, Instr.Reg 12, Instr.Reg 14));
    ]
  in
  let defs = Guard_logic.build_defs instrs in
  let g r = { Instr.greg = r; sense = true } in
  check Alcotest.bool "reflexive" true (Guard_logic.implies defs (g 10) (g 10));
  check Alcotest.bool "and implies operand" true
    (Guard_logic.implies defs (g 12) (g 10));
  check Alcotest.bool "nested and implies grand-operand" true
    (Guard_logic.implies defs (g 13) (g 11));
  check Alcotest.bool "operand does not imply and" false
    (Guard_logic.implies defs (g 10) (g 12));
  check Alcotest.bool "negative sense only matches exactly" false
    (Guard_logic.implies defs { Instr.greg = 12; sense = false } (g 10))

let test_guard_logic_multidef () =
  let cfg = Cfg.create () in
  let instrs =
    [
      Cfg.instr cfg (Instr.Binop (Opcode.And, 12, Instr.Reg 10, Instr.Reg 11));
      Cfg.instr cfg (Instr.Binop (Opcode.And, 12, Instr.Reg 20, Instr.Reg 21));
    ]
  in
  let defs = Guard_logic.build_defs instrs in
  let g r = { Instr.greg = r; sense = true } in
  check Alcotest.bool "multiply-defined guard is opaque" false
    (Guard_logic.implies defs (g 12) (g 10))

(* ---- liveness ---------------------------------------------------------- *)

let test_liveness_basic () =
  let cfg, _ = Trips_lang.Lower.lower loop_program in
  let live = Liveness.compute cfg in
  (* the loop header must keep the accumulator alive around the back edge *)
  let loops = Loops.compute cfg in
  let outer = List.find (fun l -> l.Loops.depth = 1) (Loops.all_loops loops) in
  check Alcotest.bool "something is live around the outer loop" true
    (not (IntSet.is_empty (Liveness.live_in live outer.Loops.header)))

let test_refined_liveness_soft () =
  (* A guarded definition of a temp whose only later use is under the
     same guard must NOT be live-in when nothing downstream reads it. *)
  let cfg = Cfg.create () in
  let b0 = Cfg.fresh_block_id cfg in
  let b1 = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- b0;
  let g = { Instr.greg = 1; sense = true } in
  let instrs =
    [
      Cfg.instr cfg (Instr.Cmp (Opcode.Lt, 1, Instr.Reg 2, Instr.Imm 5));
      Cfg.instr ~guard:g cfg (Instr.Mov (10, Instr.Imm 7));
      Cfg.instr ~guard:g cfg (Instr.Binop (Opcode.Add, 3, Instr.Reg 3, Instr.Reg 10));
    ]
  in
  Cfg.set_block cfg
    (Block.make b0 instrs
       [
         { Block.eguard = Some g; target = Block.Goto b0 };
         { Block.eguard = Some { g with Instr.sense = false }; target = Block.Goto b1 };
       ]);
  Cfg.set_block cfg
    (Block.make b1
       [ Cfg.instr cfg (Instr.Store (Instr.Reg 3, Instr.Imm 0, 0)) ]
       [ { Block.eguard = None; target = Block.Ret None } ]);
  Cfg.validate cfg;
  let live = Liveness.compute cfg in
  check Alcotest.bool "temp r10 not live around self loop" false
    (IntSet.mem 10 (Liveness.live_in live b0));
  check Alcotest.bool "accumulator r3 live around self loop" true
    (IntSet.mem 3 (Liveness.live_in live b0));
  check Alcotest.bool "r3 is a block input" true
    (IntSet.mem 3 (Liveness.block_inputs (Cfg.block cfg b0)
                     ~live_out:(Liveness.live_out live b0)))

let test_hard_exposure_on_weak_guard () =
  (* A use under an unrelated guard after a guarded def exposes the
     register: the incoming value can be observed. *)
  let b =
    Block.make 0
      [
        Instr.make ~guard:{ Instr.greg = 1; sense = true } 0 (Instr.Mov (10, Instr.Imm 7));
        Instr.make ~guard:{ Instr.greg = 2; sense = true } 1
          (Instr.Binop (Opcode.Add, 11, Instr.Reg 10, Instr.Imm 1));
      ]
      [ { Block.eguard = None; target = Block.Ret None } ]
  in
  let gk = Liveness.gen_kill b in
  check Alcotest.bool "r10 hard-exposed" true (IntSet.mem 10 gk.Liveness.hard)

(* ---- gen/kill against the quadratic reference -------------------------- *)

(* [Liveness.gen_kill] as it was first written: every definition scans
   the whole [last_def] table and turns each record whose guard reads the
   defined register opaque.  Quadratic per block, but its poisoning is
   the specification that the linear, count-stamped records must match. *)
type reference_def = Ref_must | Ref_may of Instr.guard | Ref_opaque

let reference_gen_kill (b : Block.t) =
  let defs = Guard_logic.build_defs b.Block.instrs in
  let last_def : (int, reference_def) Hashtbl.t = Hashtbl.create 32 in
  let hard = ref IntSet.empty and soft = ref IntSet.empty in
  let observe_use ~pos guard r =
    match Hashtbl.find_opt last_def r with
    | Some Ref_must -> ()
    | Some (Ref_may g) ->
      if not (Guard_logic.option_implies ~use_pos:pos defs guard g) then
        hard := IntSet.add r !hard
    | Some Ref_opaque | None -> hard := IntSet.add r !hard
  in
  List.iteri
    (fun pos (i : Instr.t) ->
      (match i.Instr.guard with
      | Some g -> observe_use ~pos None g.Instr.greg
      | None -> ());
      List.iter
        (observe_use ~pos i.Instr.guard)
        (List.filter
           (fun r ->
             match i.Instr.guard with
             | Some g -> r <> g.Instr.greg
             | None -> true)
           (Instr.uses i));
      List.iter
        (fun d ->
          (match i.Instr.guard with
          | Some _ when Hashtbl.find_opt last_def d <> Some Ref_must ->
            soft := IntSet.add d !soft
          | Some _ | None -> ());
          Hashtbl.replace last_def d
            (match i.Instr.guard with None -> Ref_must | Some g -> Ref_may g);
          Hashtbl.filter_map_inplace
            (fun _ entry ->
              match entry with
              | Ref_may g when g.Instr.greg = d -> Some Ref_opaque
              | other -> Some other)
            last_def)
        (Instr.defs i))
    b.Block.instrs;
  IntSet.iter (fun r -> observe_use ~pos:max_int None r) (Block.exit_uses b);
  let kill = Block.must_defs b in
  (!hard, IntSet.diff (IntSet.diff !soft !hard) kill, kill)

let gen_kill_matches_reference b =
  let hard, soft, kill = reference_gen_kill b in
  let gk = Liveness.gen_kill b in
  IntSet.equal hard gk.Liveness.hard
  && IntSet.equal soft gk.Liveness.soft
  && IntSet.equal kill gk.Liveness.kill

(* Random straight-line blocks over three predicate and five value
   registers, so guards, guard registers and definitions collide often:
   predicates come from [cmp] and [and] chains (which give guard
   implication something to find) and are sometimes redefined between a
   guarded definition and its use. *)
let random_block_gen =
  QCheck2.Gen.(
    let pred = int_range 1 3 and value = int_range 4 8 in
    let reg = oneof [ pred; value ] in
    let operand r =
      frequency [ (4, map (fun r -> Instr.Reg r) r); (1, map (fun k -> Instr.Imm k) (int_bound 3)) ]
    in
    let guard =
      opt ~ratio:0.6 (map2 (fun greg sense -> { Instr.greg; sense }) pred bool)
    in
    let op =
      frequency
        [
          (2, map3 (fun d a b -> Instr.Cmp (Opcode.Lt, d, a, b)) pred (operand value) (operand value));
          (2, map3 (fun d a b -> Instr.Binop (Opcode.And, d, a, b)) pred (operand pred) (operand reg));
          (3, map2 (fun d a -> Instr.Mov (d, a)) reg (operand reg));
          (2, map3 (fun d a b -> Instr.Binop (Opcode.Add, d, a, b)) value (operand value) (operand value));
          (1, map2 (fun a v -> Instr.Store (a, v, 0)) (operand value) (operand value));
          (1, map (fun d -> Instr.Nullw d) reg);
        ]
    in
    let* body = list_size (int_range 1 16) (pair guard op) in
    let* branch = pred and* ret = opt (map (fun r -> Instr.Reg r) value) in
    let instrs = List.mapi (fun id (guard, op) -> Instr.make ?guard id op) body in
    let exits =
      [
        { Block.eguard = Some { Instr.greg = branch; sense = true }; target = Block.Goto 0 };
        { Block.eguard = Some { Instr.greg = branch; sense = false }; target = Block.Ret ret };
      ]
    in
    return (Block.make 0 instrs exits))

let gen_kill_random_blocks =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"CHK gen/kill matches the quadratic reference"
       ~count:500 ~print:(Fmt.to_to_string Block.pp) random_block_gen
       gen_kill_matches_reference)

(* The region solve's transfer is [hard ∪ (live_out − kill)]; it equals
   the three-term equation liveness_oracle.ml keeps as the specification
   only because [soft] never meets [kill] (nor [hard]). *)
let soft_is_disjoint =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"gen/kill: soft is disjoint from hard and kill"
       ~count:500 ~print:(Fmt.to_to_string Block.pp) random_block_gen
       (fun b ->
         let gk = Liveness.gen_kill b in
         IntSet.disjoint gk.Liveness.soft gk.Liveness.hard
         && IntSet.disjoint gk.Liveness.soft gk.Liveness.kill))

(* Every block formation leaves behind on the 24 kernels. *)
let test_gen_kill_formed_blocks () =
  List.iter
    (fun (w : Trips_workloads.Workload.t) ->
      let profile, _ = Trips_harness.Pipeline.profile_workload w in
      let cfg, _ = Trips_harness.Pipeline.lower_workload w in
      Trips_opt.Optimizer.optimize_cfg cfg;
      ignore (Chf.Formation.run Chf.Policy.edge_default cfg profile);
      Cfg.iter_blocks
        (fun b ->
          if not (gen_kill_matches_reference b) then
            Alcotest.failf "gen/kill differs from the reference on %s b%d"
              w.Trips_workloads.Workload.name b.Block.id)
        cfg)
    Trips_workloads.Micro.all

(* p and q = p & r5 are defined unconditionally first, so the guarded
   reads below are implied by name unless a record went stale. *)
let guard_prefix =
  let p = 1 and q = 3 in
  ( p,
    q,
    [
      Instr.make 0 (Instr.Cmp (Opcode.Lt, p, Instr.Reg 2, Instr.Imm 5));
      Instr.make 1 (Instr.Binop (Opcode.And, q, Instr.Reg p, Instr.Reg 5));
    ] )

let ret_block instrs =
  Block.make 0 instrs [ { Block.eguard = None; target = Block.Ret None } ]

let test_gen_kill_self_guard () =
  (* [<p> mov p, 0] redefines its own guard register: its record is
     stale at once, so the later read of p under q (which implies the old
     p) is a hard exposure *)
  let p, q, prefix = guard_prefix in
  let sg = { Instr.greg = p; sense = true } in
  let b =
    ret_block
      (prefix
      @ [
          Instr.make ~guard:sg 2 (Instr.Mov (p, Instr.Imm 0));
          Instr.make ~guard:{ Instr.greg = q; sense = true } 3
            (Instr.Binop (Opcode.Add, 4, Instr.Reg p, Instr.Imm 1));
        ])
  in
  check Alcotest.bool "matches the reference" true (gen_kill_matches_reference b);
  check Alcotest.bool "p hard-exposed" true
    (IntSet.mem p (Liveness.gen_kill b).Liveness.hard)

let test_gen_kill_guard_redefined () =
  (* [<p> mov r10] then p is redefined before [<q> add _, r10]: q implied
     the old p, not the new one, so r10 is hard-exposed; without the
     redefinition the implication holds and r10 stays out of [hard] *)
  let p, q, prefix = guard_prefix in
  let guarded_def =
    Instr.make ~guard:{ Instr.greg = p; sense = true } 2 (Instr.Mov (10, Instr.Imm 7))
  in
  let redefine = Instr.make 3 (Instr.Cmp (Opcode.Lt, p, Instr.Reg 6, Instr.Imm 9)) in
  let use =
    Instr.make ~guard:{ Instr.greg = q; sense = true } 4
      (Instr.Binop (Opcode.Add, 4, Instr.Reg 10, Instr.Imm 1))
  in
  let with_redef = ret_block (prefix @ [ guarded_def; redefine; use ]) in
  let without = ret_block (prefix @ [ guarded_def; use ]) in
  check Alcotest.bool "matches the reference" true
    (gen_kill_matches_reference with_redef && gen_kill_matches_reference without);
  check Alcotest.bool "r10 hard after the guard is redefined" true
    (IntSet.mem 10 (Liveness.gen_kill with_redef).Liveness.hard);
  check Alcotest.bool "r10 implied without the redefinition" false
    (IntSet.mem 10 (Liveness.gen_kill without).Liveness.hard)

let liveness_upper_bounded_by_classic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"refined live-in is a subset of classic exposure closure"
       ~count:100 Generators.random_cfg_gen (fun spec ->
         let cfg = Generators.build_random_cfg spec in
         let live = Liveness.compute cfg in
         List.for_all
           (fun id ->
             let b = Cfg.block cfg id in
             let classic =
               IntSet.union
                 (Block.upward_exposed_uses b)
                 (Liveness.live_out live id)
             in
             IntSet.subset (Liveness.live_in live id) classic)
           (Order.postorder cfg)))

(* ---- incremental liveness ---------------------------------------------- *)

(* Random CFG, then a random sequence of edits shaped like the ones
   formation performs: body rewrites, exit retargets, spliced-in fresh
   blocks, and simple merges that delete the absorbed successor.  After
   every edit, [Liveness.update] seeded with the pre-edit solution must
   agree block-for-block with the round-robin reference in
   test/liveness_oracle.ml on the edited graph — the update is exact,
   not approximate. *)
let incremental_edit_gen =
  QCheck2.Gen.(
    let* spec = Generators.random_cfg_gen in
    let* edits = list_repeat 24 (int_bound 100_000) in
    return (spec, edits))

(* [pick bound] draws the next generated cell modulo [bound]. *)
let picker edits =
  let cells = ref edits in
  fun bound ->
    match !cells with
    | [] -> 0
    | c :: rest ->
      cells := rest;
      c mod bound

(* [live_in]/[live_out] of every reachable block agree with the oracle. *)
let agrees_with_oracle cfg ~live_in ~live_out =
  let o = Liveness_oracle.compute cfg in
  List.for_all
    (fun id ->
      IntSet.equal (live_in id) (Liveness_oracle.live_in o id)
      && IntSet.equal (live_out id) (Liveness_oracle.live_out o id))
    (Order.postorder cfg)

(* Applies one edit; returns the touched block ids ([] for a no-op). *)
let apply_random_edit cfg pick =
  let ids = Order.postorder cfg in
  let n = List.length ids in
  let k = List.nth ids (pick n) in
  let b = Cfg.block cfg k in
  let append_store () =
    let i =
      Cfg.instr cfg (Instr.Store (Instr.Reg (1 + pick 8), Instr.Imm 0, 0))
    in
    Cfg.set_block cfg { b with Block.instrs = b.Block.instrs @ [ i ] };
    [ k ]
  in
  match pick 5 with
  | 0 -> append_store ()
  | 1 ->
    (* an unconditional definition kills the register at the block top *)
    let i = Cfg.instr cfg (Instr.Mov (1 + pick 8, Instr.Imm 3)) in
    Cfg.set_block cfg { b with Block.instrs = i :: b.Block.instrs };
    [ k ]
  | 2 ->
    (* retarget the first Goto exit to another existing block (may
       orphan blocks — update must not care about unreachable ones) *)
    let tgt = List.nth ids (pick n) in
    let replaced = ref false in
    let exits =
      List.map
        (fun e ->
          match e.Block.target with
          | Block.Goto _ when not !replaced ->
            replaced := true;
            { e with Block.target = Block.Goto tgt }
          | _ -> e)
        b.Block.exits
    in
    if !replaced then begin
      Cfg.set_block cfg { b with Block.exits };
      [ k ]
    end
    else []
  | 3 -> (
    (* splice a fresh empty forwarding block into the first Goto edge:
       exercises the added-block path *)
    let goto_tgt =
      List.find_map
        (fun e ->
          match e.Block.target with Block.Goto t -> Some t | _ -> None)
        b.Block.exits
    in
    match goto_tgt with
    | None -> []
    | Some t ->
      let nb = Cfg.fresh_block_id cfg in
      Cfg.set_block cfg
        (Block.make nb [] [ { Block.eguard = None; target = Block.Goto t } ]);
      let replaced = ref false in
      let exits =
        List.map
          (fun e ->
            match e.Block.target with
            | Block.Goto t' when t' = t && not !replaced ->
              replaced := true;
              { e with Block.target = Block.Goto nb }
            | _ -> e)
          b.Block.exits
      in
      Cfg.set_block cfg { b with Block.exits };
      [ k; nb ])
  | _ -> (
    (* simple merge: absorb a unique successor with a unique
       predecessor, deleting it — the removed-block path *)
    let preds = Cfg.predecessor_map cfg in
    let candidate =
      List.find_map
        (fun k ->
          let b = Cfg.block cfg k in
          match b.Block.exits with
          | [ { Block.eguard = None; target = Block.Goto t } ]
            when t <> k
                 && t <> cfg.Cfg.entry
                 && IntSet.equal
                      (IntMap.find_or ~default:IntSet.empty t preds)
                      (IntSet.singleton k) ->
            Some (k, t)
          | _ -> None)
        ids
    in
    match candidate with
    | None -> append_store ()
    | Some (k, t) ->
      let bk = Cfg.block cfg k and bt = Cfg.block cfg t in
      Cfg.set_block cfg
        {
          bk with
          Block.instrs = bk.Block.instrs @ bt.Block.instrs;
          exits = bt.Block.exits;
        };
      Cfg.remove_block cfg t;
      [ k; t ])

let incremental_liveness_matches_full =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"CHK incremental liveness update equals full recompute"
       ~count:120 incremental_edit_gen (fun (spec, edits) ->
         let cfg = Generators.build_random_cfg spec in
         let pick = picker edits in
         let live = ref (Liveness.compute cfg) in
         let ok = ref true in
         for _ = 1 to 5 do
           let touched = apply_random_edit cfg pick in
           live := Liveness.update !live cfg ~touched;
           ok :=
             !ok
             && agrees_with_oracle cfg ~live_in:(Liveness.live_in !live)
                  ~live_out:(Liveness.live_out !live)
         done;
         !ok))

(* The trial read: after 1-5 accumulated edits and no [update] between
   them, [live_out_at] over the pre-edit solution and the accumulated
   dirty set must give every reachable block the oracle's live-out — the
   region solve is exact, not approximate.  Odd blocks pass their
   gen/kill lazily, even ones let the solve compute it. *)
let region_solve_matches_full =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"CHK region live-out over accumulated edits equals full recompute"
       ~count:120 incremental_edit_gen (fun (spec, edits) ->
         let cfg = Generators.build_random_cfg spec in
         let pick = picker edits in
         let live = Liveness.compute cfg in
         let dirty = ref IntSet.empty in
         for _ = 1 to 1 + pick 5 do
           dirty := IntSet.union !dirty (IntSet.of_list (apply_random_edit cfg pick))
         done;
         let full = Liveness_oracle.compute cfg in
         List.for_all
           (fun id ->
             let gk =
               if id land 1 = 1 then
                 Some (lazy (Liveness.gen_kill (Cfg.block cfg id)))
               else None
             in
             let lo, _ = Liveness.live_out_at ?gk live cfg ~dirty:!dirty id in
             IntSet.equal lo (Liveness_oracle.live_out full id))
           (Order.postorder cfg)))

(* All three entry points share one region solve, so none of them can
   referee the others: after every random edit, a fresh [compute], the
   chained [update] and [live_out_at] over the pre-edit solution must
   each equal the round-robin oracle on every reachable block. *)
let liveness_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"CHK compute, update and live_out_at equal the round-robin oracle"
       ~count:120 incremental_edit_gen (fun (spec, edits) ->
         let cfg = Generators.build_random_cfg spec in
         let pick = picker edits in
         let agrees live ~live_out =
           agrees_with_oracle cfg ~live_in:(Liveness.live_in live) ~live_out
         in
         let live = ref (Liveness.compute cfg) in
         let ok = ref (agrees !live ~live_out:(Liveness.live_out !live)) in
         for _ = 1 to 5 do
           let before = !live in
           let touched = apply_random_edit cfg pick in
           let dirty = IntSet.of_list touched in
           let full = Liveness.compute cfg in
           live := Liveness.update before cfg ~touched;
           let at id = fst (Liveness.live_out_at before cfg ~dirty id) in
           ok :=
             !ok
             && agrees full ~live_out:(Liveness.live_out full)
             && agrees !live ~live_out:(Liveness.live_out !live)
             && agrees !live ~live_out:at
         done;
         !ok))

(* The stale-cycle trap (DESIGN.md §12): r5's only upward-exposed use
   sits in b2 of the cycle b1 <-> b2, so the cached solution has r5 live
   around the cycle and out of the entry b0.  Deleting that use leaves
   nothing to sustain r5 but the cycle itself; a region solve that
   started from the cached values would keep it live forever. *)
let test_region_solve_stale_cycle () =
  let cfg = Cfg.create () in
  let b0 = Cfg.fresh_block_id cfg in
  let b1 = Cfg.fresh_block_id cfg in
  let b2 = Cfg.fresh_block_id cfg in
  let b3 = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- b0;
  let goto t = { Block.eguard = None; target = Block.Goto t } in
  let g = { Instr.greg = 1; sense = true } in
  Cfg.set_block cfg
    (Block.make b0 [ Cfg.instr cfg (Instr.Mov (2, Instr.Imm 0)) ] [ goto b1 ]);
  Cfg.set_block cfg
    (Block.make b1 [ Cfg.instr cfg (Instr.Mov (3, Instr.Imm 1)) ] [ goto b2 ]);
  let b2_exits =
    [
      { Block.eguard = Some g; target = Block.Goto b1 };
      { Block.eguard = Some { g with Instr.sense = false }; target = Block.Goto b3 };
    ]
  in
  let cmp = Cfg.instr cfg (Instr.Cmp (Opcode.Lt, 1, Instr.Reg 2, Instr.Imm 5)) in
  Cfg.set_block cfg
    (Block.make b2
       [ cmp; Cfg.instr cfg (Instr.Store (Instr.Reg 5, Instr.Reg 3, 0)) ]
       b2_exits);
  Cfg.set_block cfg
    (Block.make b3 [] [ { Block.eguard = None; target = Block.Ret None } ]);
  Cfg.validate cfg;
  let live = Liveness.compute cfg in
  check Alcotest.bool "r5 live out of b0 before the edit" true
    (IntSet.mem 5 (Liveness.live_out live b0));
  check Alcotest.bool "r5 live around the cycle before the edit" true
    (IntSet.mem 5 (Liveness.live_in live b1) && IntSet.mem 5 (Liveness.live_in live b2));
  Cfg.set_block cfg (Block.make b2 [ cmp ] b2_exits);
  let dirty = IntSet.singleton b2 in
  List.iter
    (fun (id, what) ->
      let lo, solved = Liveness.live_out_at live cfg ~dirty id in
      check Alcotest.bool ("r5 dropped from the live-out of " ^ what) false
        (IntSet.mem 5 lo);
      check Alcotest.bool ("the cycle is re-solved for " ^ what) true (solved >= 2))
    [ (b0, "b0"); (b2, "b2") ];
  check Alcotest.bool "the cached solution is left as it was" true
    (IntSet.mem 5 (Liveness.live_out live b0))

(* A block the solution never solved (here unreachable when it was
   computed) can join the graph through an edited block; it has no
   cached live-in to freeze, so it must be solved like an edited one. *)
let test_rejoined_block_is_solved () =
  let cfg = Cfg.create () in
  let b0 = Cfg.fresh_block_id cfg in
  let b1 = Cfg.fresh_block_id cfg in
  let u = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- b0;
  let goto t = [ { Block.eguard = None; target = Block.Goto t } ] in
  let ret = [ { Block.eguard = None; target = Block.Ret None } ] in
  Cfg.set_block cfg (Block.make b0 [] (goto b1));
  Cfg.set_block cfg (Block.make b1 [] ret);
  Cfg.set_block cfg
    (Block.make u [ Cfg.instr cfg (Instr.Store (Instr.Reg 7, Instr.Imm 0, 0)) ] ret);
  let live = Liveness.compute cfg in
  check Alcotest.bool "nothing live into b0 before the edit" true
    (IntSet.is_empty (Liveness.live_in live b0));
  Cfg.set_block cfg (Block.make b1 [] (goto u));
  let updated = Liveness.update live cfg ~touched:[ b1 ] in
  check Alcotest.(list int) "update: r7 live into b0" [ 7 ]
    (IntSet.elements (Liveness.live_in updated b0));
  check Alcotest.(list int) "the oracle agrees" [ 7 ]
    (IntSet.elements (Liveness_oracle.live_in (Liveness_oracle.compute cfg) b0));
  check Alcotest.(list int) "live_out_at: r7 live out of b0" [ 7 ]
    (IntSet.elements
       (fst (Liveness.live_out_at live cfg ~dirty:(IntSet.singleton b1) b0)))

(* Registers are any integers: negative ones and ones above 2^30 must
   order, merge and survive the solve like small ones.  b0 -> b1 <-> b2
   -> b3, with a guarded definition in the loop so a register is soft
   there; every block of [compute], of [update] after an edit and of
   [live_out_at] over the pre-edit solution must match the oracle. *)
let test_liveness_extreme_registers () =
  let neg = -7 and big = (1 lsl 30) + 3 and huge = 1 lsl 40 and low = -(1 lsl 40) in
  let cfg = Cfg.create () in
  let b0 = Cfg.fresh_block_id cfg in
  let b1 = Cfg.fresh_block_id cfg in
  let b2 = Cfg.fresh_block_id cfg in
  let b3 = Cfg.fresh_block_id cfg in
  cfg.Cfg.entry <- b0;
  let goto ?guard t = { Block.eguard = guard; target = Block.Goto t } in
  let g = { Instr.greg = big; sense = true } in
  Cfg.set_block cfg (Block.make b0 [] [ goto b1 ]);
  Cfg.set_block cfg
    (Block.make b1
       [
         Cfg.instr cfg (Instr.Cmp (Opcode.Lt, big, Instr.Reg neg, Instr.Imm 4));
         Cfg.instr cfg ~guard:g (Instr.Mov (huge, Instr.Reg low));
       ]
       [ goto b2 ]);
  Cfg.set_block cfg
    (Block.make b2
       [ Cfg.instr cfg (Instr.Store (Instr.Reg huge, Instr.Reg neg, 0)) ]
       [ goto ~guard:g b1; goto ~guard:{ g with Instr.sense = false } b3 ]);
  Cfg.set_block cfg
    (Block.make b3 [] [ { Block.eguard = None; target = Block.Ret (Some (Instr.Reg low)) } ]);
  Cfg.validate cfg;
  let live = Liveness.compute cfg in
  check Alcotest.bool "compute agrees with the oracle" true
    (agrees_with_oracle cfg ~live_in:(Liveness.live_in live)
       ~live_out:(Liveness.live_out live));
  check Alcotest.(list int) "live into b0" [ low; neg; huge ]
    (IntSet.elements (Liveness.live_in live b0));
  (* b3 now defines [low] and reads [big]: [low] leaves the loop's live
     sets and [big] joins them *)
  Cfg.set_block cfg
    (Block.make b3
       [ Cfg.instr cfg (Instr.Mov (low, Instr.Reg big)) ]
       [ { Block.eguard = None; target = Block.Ret (Some (Instr.Reg low)) } ]);
  let updated = Liveness.update live cfg ~touched:[ b3 ] in
  check Alcotest.bool "update agrees with the oracle" true
    (agrees_with_oracle cfg ~live_in:(Liveness.live_in updated)
       ~live_out:(Liveness.live_out updated));
  let dirty = IntSet.singleton b3 in
  check Alcotest.bool "live_out_at agrees with the oracle" true
    (agrees_with_oracle cfg ~live_in:(Liveness.live_in updated) ~live_out:(fun id ->
         fst (Liveness.live_out_at live cfg ~dirty id)));
  check Alcotest.(list int) "live out of b2 after the edit" [ low; neg; big; huge ]
    (IntSet.elements (Liveness.live_out updated b2))

let suite =
  ( "analysis",
    [
      dominators_match_naive;
      idom_is_dominator;
      tree_preorder_complete;
      Alcotest.test_case "dominators on sparse ids" `Quick
        test_dominators_sparse_ids;
      rpo_respects_edges;
      Alcotest.test_case "prune unreachable" `Quick test_prune_unreachable;
      Alcotest.test_case "loop nest" `Quick test_loop_nest;
      headers_dominate_bodies;
      loop_exits_leave_body;
      Alcotest.test_case "guard implication" `Quick test_guard_implication;
      Alcotest.test_case "guard logic multidef" `Quick test_guard_logic_multidef;
      Alcotest.test_case "liveness basic" `Quick test_liveness_basic;
      Alcotest.test_case "refined liveness drops dead temps" `Quick
        test_refined_liveness_soft;
      Alcotest.test_case "weak guard exposes" `Quick test_hard_exposure_on_weak_guard;
      gen_kill_random_blocks;
      soft_is_disjoint;
      Alcotest.test_case "gen/kill on formed blocks" `Quick
        test_gen_kill_formed_blocks;
      Alcotest.test_case "gen/kill: guard redefines itself" `Quick
        test_gen_kill_self_guard;
      Alcotest.test_case "gen/kill: guard redefined before a use" `Quick
        test_gen_kill_guard_redefined;
      liveness_upper_bounded_by_classic;
      incremental_liveness_matches_full;
      region_solve_matches_full;
      liveness_matches_oracle;
      Alcotest.test_case "region solve: a stale cycle drops the register" `Quick
        test_region_solve_stale_cycle;
      Alcotest.test_case "a block that rejoins the graph is solved" `Quick
        test_rejoined_block_is_solved;
      Alcotest.test_case "liveness over negative and large registers" `Quick
        test_liveness_extreme_registers;
    ] )
