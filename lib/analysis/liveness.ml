(* Backward liveness over blocks, predication-refined.

   Classic predication-aware liveness treats every guarded definition as
   exposing its register (the incoming value flows through when the guard
   is false).  That is sound but catastrophically conservative for
   hyperblocks: a temporary whose guarded definition sits in a self-loop
   block becomes live around the loop forever, which blocks predicate
   optimization and inflates register pressure.

   We split each block's upward-exposed set in two:

   - [hard]: registers whose incoming value some instruction or exit can
     definitely observe — a use with no prior unconditional definition,
     unless the last prior definition is guarded and the use's own guard
     *implies* that guard (then the use only executes when the definition
     did);
   - [soft]: registers with a guarded definition whose flow-through value
     escapes only if the register is live out of the block.

   The dataflow equation  live_in = hard ∪ (soft ∩ live_out) ∪
   (live_out − kill)  is monotone in live_out, so the least fixpoint is
   well-defined; it certifies exactly that a soft register's stale value
   can never reach an observer. *)

open Trips_ir

type gen_kill = { hard : IntSet.t; soft : IntSet.t; kill : IntSet.t }

(** Per-block generator/killer sets (see module comment). *)
type last_def = Must | May of Trips_ir.Instr.guard * int
(* [May (g, n)]: conditional definition under guard [g], recorded when
   [g]'s register had been defined [n] times in the block.  Once that
   count moves on, the guard register was redefined after the record, so
   the guard can no longer be compared by name and the record is stale. *)

let gen_kill (b : Block.t) : gen_kill =
  let defs = Guard_logic.build_defs b.Block.instrs in
  let last_def : (int, last_def) Hashtbl.t = Hashtbl.create 32 in
  let def_count : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let count r = Option.value ~default:0 (Hashtbl.find_opt def_count r) in
  let hard = ref IntSet.empty in
  let soft = ref IntSet.empty in
  let observe_use ~pos guard r =
    match Hashtbl.find_opt last_def r with
    | Some Must -> ()  (* dominated by an unconditional definition *)
    | Some (May (g, n)) when n = count g.Instr.greg ->
      if not (Guard_logic.option_implies ~use_pos:pos defs guard g) then
        hard := IntSet.add r !hard
    | Some (May _) | None -> hard := IntSet.add r !hard
  in
  List.iteri
    (fun pos (i : Instr.t) ->
      (* the guard register itself is read unconditionally *)
      (match i.Instr.guard with
      | Some g -> observe_use ~pos None g.Instr.greg
      | None -> ());
      let operand_regs =
        List.filter
          (fun r ->
            match i.Instr.guard with
            | Some g -> r <> g.Instr.greg
            | None -> true)
          (Instr.uses i)
      in
      List.iter (observe_use ~pos i.Instr.guard) operand_regs;
      List.iter
        (fun d ->
          (match (i.Instr.guard, Hashtbl.find_opt last_def d) with
          | Some _, (Some (May _) | None) ->
            (* incoming value may still flow through this conditional
               definition: exposure pending liveness *)
            soft := IntSet.add d !soft
          | Some _, Some Must | None, _ -> ());
          Hashtbl.replace last_def d
            (match i.Instr.guard with
            | None -> Must
            | Some g -> May (g, count g.Instr.greg));
          (* a definition of a register that some recorded guard reads
             makes that record stale (including this instruction's own,
             when it redefines its guard register) *)
          Hashtbl.replace def_count d (count d + 1))
        (Instr.defs i))
    b.Block.instrs;
  (* exits: guard registers are evaluated unconditionally; return
     operands are read when the exit fires (conservatively: hard) *)
  IntSet.iter (fun r -> observe_use ~pos:max_int None r) (Block.exit_uses b);
  let kill = Block.must_defs b in
  let soft = IntSet.diff (IntSet.diff !soft !hard) kill in
  { hard = !hard; soft; kill }

type t = {
  live_in : IntSet.t IntMap.t;
  live_out : IntSet.t IntMap.t;
  gk : gen_kill IntMap.t;
  succs : int list IntMap.t;  (* successor lists at solve time *)
  preds : IntSet.t IntMap.t;  (* inverse of [succs] *)
  order : int IntMap.t;  (* postorder position, worklist priority only *)
  solved : int;  (* blocks the producing compute/update solved *)
}

(* The dataflow equation of the module comment. *)
let transfer g out =
  IntSet.union g.hard (IntSet.union (IntSet.inter g.soft out) (IntSet.diff out g.kill))

let compute cfg =
  let ids = Order.postorder cfg in
  let gk =
    List.fold_left
      (fun acc id -> IntMap.add id (gen_kill (Cfg.block cfg id)) acc)
      IntMap.empty ids
  in
  (* successor lists are loop-invariant across fixpoint rounds *)
  let succs =
    List.fold_left
      (fun acc id -> IntMap.add id (Cfg.successors cfg id) acc)
      IntMap.empty ids
  in
  let live_in = Hashtbl.create 64 and live_out = Hashtbl.create 64 in
  List.iter
    (fun id ->
      Hashtbl.replace live_in id IntSet.empty;
      Hashtbl.replace live_out id IntSet.empty)
    ids;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        let out =
          List.fold_left
            (fun acc s ->
              IntSet.union acc
                (Option.value ~default:IntSet.empty (Hashtbl.find_opt live_in s)))
            IntSet.empty
            (IntMap.find_or ~default:[] id succs)
        in
        let inn = transfer (IntMap.find id gk) out in
        if
          not
            (IntSet.equal out (Hashtbl.find live_out id)
            && IntSet.equal inn (Hashtbl.find live_in id))
        then begin
          Hashtbl.replace live_out id out;
          Hashtbl.replace live_in id inn;
          changed := true
        end)
      ids
  done;
  let to_map h =
    Hashtbl.fold (fun k v acc -> IntMap.add k v acc) h IntMap.empty
  in
  let preds =
    IntMap.fold
      (fun src ss acc ->
        List.fold_left
          (fun acc s ->
            IntMap.add s
              (IntSet.add src (IntMap.find_or ~default:IntSet.empty s acc))
              acc)
          acc ss)
      succs IntMap.empty
  in
  let order =
    List.fold_left
      (fun (k, acc) id -> (k + 1, IntMap.add id k acc))
      (0, IntMap.empty) ids
    |> snd
  in
  {
    live_in = to_map live_in;
    live_out = to_map live_out;
    gk;
    succs;
    preds;
    order;
    solved = List.length ids;
  }

(* ---- incremental re-solve ---------------------------------------------- *)

(* After an edit that replaced or removed a handful of blocks, the least
   fixpoint can change only where the edit is *backward-reachable*: a
   block's live sets depend on its forward cone, so a block that cannot
   reach any edited block keeps its exact old solution.  Re-running the
   worklist from the stale solution is NOT sound — a register whose
   liveness was sustained through a cycle of un-edited blocks can keep
   itself alive forever once its real source disappeared (the classic
   stale-overapproximation trap).  Instead we reset the affected region
   (ancestors of the edited blocks) to bottom and ascend again; the
   boundary (non-ancestors) is frozen at its old — still exact — values,
   so the ascent converges to the global least fixpoint, identical to a
   full {!compute}.  See DESIGN.md §12. *)
let update t cfg ~touched =
  let present, removed = List.partition (Cfg.mem cfg) touched in
  (* 1. refresh the edge maps and gen/kill for the edited blocks *)
  let preds = ref t.preds in
  let retarget id old_s new_s =
    List.iter
      (fun s ->
        preds :=
          IntMap.add s
            (IntSet.remove id (IntMap.find_or ~default:IntSet.empty s !preds))
            !preds)
      old_s;
    List.iter
      (fun s ->
        preds :=
          IntMap.add s
            (IntSet.add id (IntMap.find_or ~default:IntSet.empty s !preds))
            !preds)
      new_s
  in
  let succs = ref t.succs and gk = ref t.gk in
  let seeds = ref IntSet.empty in
  List.iter
    (fun id ->
      let new_s = Cfg.successors cfg id in
      retarget id (IntMap.find_or ~default:[] id !succs) new_s;
      succs := IntMap.add id new_s !succs;
      gk := IntMap.add id (gen_kill (Cfg.block cfg id)) !gk;
      seeds := IntSet.add id !seeds)
    present;
  let live_in = ref t.live_in and live_out = ref t.live_out in
  List.iter
    (fun id ->
      retarget id (IntMap.find_or ~default:[] id !succs) [];
      (* un-edited blocks that still referenced the removed block's
         live-in are stale too *)
      seeds := IntSet.union !seeds (IntMap.find_or ~default:IntSet.empty id !preds);
      succs := IntMap.remove id !succs;
      gk := IntMap.remove id !gk;
      preds := IntMap.remove id !preds;
      live_in := IntMap.remove id !live_in;
      live_out := IntMap.remove id !live_out)
    removed;
  (* 2. affected region: backward closure of the seeds *)
  let affected = ref IntSet.empty in
  let rec close id =
    if not (IntSet.mem id !affected) then begin
      affected := IntSet.add id !affected;
      IntSet.iter close (IntMap.find_or ~default:IntSet.empty id !preds)
    end
  in
  IntSet.iter close !seeds;
  (* 3. reset the region to bottom, then ascend with a worklist *)
  IntSet.iter
    (fun id ->
      live_in := IntMap.add id IntSet.empty !live_in;
      live_out := IntMap.add id IntSet.empty !live_out)
    !affected;
  let position id = IntMap.find_or ~default:max_int id t.order in
  let queue = Queue.create () in
  let queued = Hashtbl.create 64 in
  let push id =
    if not (Hashtbl.mem queued id) then begin
      Hashtbl.replace queued id ();
      Queue.push id queue
    end
  in
  (* seed successors-first (postorder) so the first sweep is productive *)
  IntSet.elements !affected
  |> List.sort (fun a b -> compare (position a) (position b))
  |> List.iter push;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    Hashtbl.remove queued id;
    match IntMap.find_opt id !gk with
    | None -> ()  (* not part of the solved (reachable) region *)
    | Some g ->
      let out =
        List.fold_left
          (fun acc s ->
            IntSet.union acc (IntMap.find_or ~default:IntSet.empty s !live_in))
          IntSet.empty
          (IntMap.find_or ~default:[] id !succs)
      in
      let inn = transfer g out in
      let in_changed =
        not (IntSet.equal inn (IntMap.find_or ~default:IntSet.empty id !live_in))
      in
      if
        in_changed
        || not
             (IntSet.equal out
                (IntMap.find_or ~default:IntSet.empty id !live_out))
      then begin
        live_in := IntMap.add id inn !live_in;
        live_out := IntMap.add id out !live_out;
        if in_changed then
          IntSet.iter push (IntMap.find_or ~default:IntSet.empty id !preds)
      end
  done;
  {
    live_in = !live_in;
    live_out = !live_out;
    gk = !gk;
    succs = !succs;
    preds = !preds;
    order = t.order;
    solved = IntSet.cardinal !affected;
  }

let live_in t id = IntMap.find_or ~default:IntSet.empty id t.live_in
let live_out t id = IntMap.find_or ~default:IntSet.empty id t.live_out
let solved t = t.solved

(* ---- on-demand region solve -------------------------------------------- *)

(* [live_out id = ∪ live_in succ], and a block's live sets depend only on
   its forward cone.  After edits to the blocks in [dirty], a block of the
   successors' cone that cannot reach a dirty block therefore keeps its
   exact cached solution, and only the region R of cone blocks that can
   reach one is solved.  As in [update], R starts from bottom, not from
   the stale values (a register once sustained around a cycle through an
   edited block would keep itself live), and ascends against its
   boundary frozen at the exact cached values, so the answer is the one a
   full [compute] gives.  The cone is forward-closed, so R is the
   backward closure of the dirty cone blocks within the cone.  Nothing is
   stored. *)
let live_out_at ?gk t cfg ~dirty id =
  let is_dirty x = IntSet.mem x dirty in
  (* an edit leaves every clean block's successors as they were solved *)
  let succs x =
    match IntMap.find_opt x t.succs with
    | Some s when not (is_dirty x) -> s
    | _ -> Cfg.successors cfg x
  in
  let roots = succs id in
  (* 1. the roots' forward cone, in reverse postorder *)
  let seen = Hashtbl.create 64 in
  let cone = ref [] and hits = ref [] in
  let rec visit x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.replace seen x ();
      if is_dirty x then hits := x :: !hits;
      List.iter visit (succs x);
      cone := x :: !cone
    end
  in
  List.iter visit roots;
  let answer live_in =
    List.fold_left (fun acc s -> IntSet.union acc (live_in s)) IntSet.empty roots
  in
  if !hits = [] then (answer (live_in t), 0)
  else begin
    (* 2. R: the cone blocks that reach a dirty one, each with its in-R
       predecessors (a cone predecessor of an R block is in R) *)
    let preds = Hashtbl.create 64 in
    List.iter
      (fun x -> List.iter (fun y -> Hashtbl.add preds y x) (succs x))
      !cone;
    let cur = Hashtbl.create 16 in
    let rec close x =
      if not (Hashtbl.mem cur x) then begin
        Hashtbl.replace cur x IntSet.empty;
        List.iter close (Hashtbl.find_all preds x)
      end
    in
    List.iter close !hits;
    let gen_kill_of x =
      match gk with
      | Some g when x = id -> Lazy.force g
      | _ -> (
        match IntMap.find_opt x t.gk with
        | Some g when not (is_dirty x) -> g
        | _ -> gen_kill (Cfg.block cfg x))
    in
    let region = List.filter (Hashtbl.mem cur) (List.rev !cone) in
    let gks = Hashtbl.create 16 in
    List.iter (fun x -> Hashtbl.replace gks x (gen_kill_of x)) region;
    (* 3. ascend from bottom, successors first *)
    let live_in_of y =
      match Hashtbl.find_opt cur y with Some s -> s | None -> live_in t y
    in
    let queue = Queue.create () and queued = Hashtbl.create 16 in
    let push x =
      if not (Hashtbl.mem queued x) then begin
        Hashtbl.replace queued x ();
        Queue.push x queue
      end
    in
    List.iter push region;
    while not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      Hashtbl.remove queued x;
      let out =
        List.fold_left
          (fun acc y -> IntSet.union acc (live_in_of y))
          IntSet.empty (succs x)
      in
      let inn = transfer (Hashtbl.find gks x) out in
      if not (IntSet.equal inn (Hashtbl.find cur x)) then begin
        Hashtbl.replace cur x inn;
        List.iter push (Hashtbl.find_all preds x)
      end
    done;
    (answer live_in_of, List.length region)
  end

(** Registers a block must read as inputs given what is live out of it —
    the refined register-read set used by the structural-constraint
    estimator. *)
let block_inputs ?gk (b : Block.t) ~live_out =
  let g = match gk with Some g -> g | None -> gen_kill b in
  IntSet.union g.hard (IntSet.inter g.soft live_out)
