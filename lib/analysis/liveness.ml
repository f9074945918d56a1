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

(* ---- register sets as sorted arrays ------------------------------------ *)

(* Inside a solution and the region solve a register set is a strictly
   increasing [int array]: union, difference and equality are linear
   merges, any integer may name a register, and a result equal to an
   operand is that operand, so an unchanged set allocates nothing.  The
   exported functions take and return [IntSet.t]. *)
module Regs = struct
  type t = int array

  let empty : t = [||]

  let of_set s =
    let a = Array.make (IntSet.cardinal s) 0 in
    ignore (IntSet.fold (fun r k -> a.(k) <- r; k + 1) s 0);
    a

  let to_set (a : t) = Array.fold_left (fun s r -> IntSet.add r s) IntSet.empty a

  (* Both merges count their result first, so it is allocated at its
     exact length, or not at all when it equals an operand. *)
  let union (a : t) (b : t) : t =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 || a == b then a
    else begin
      let rec count i j n =
        if i = la then n + lb - j
        else if j = lb then n + la - i
        else
          let x = a.(i) and y = b.(j) in
          if x < y then count (i + 1) j (n + 1)
          else if y < x then count i (j + 1) (n + 1)
          else count (i + 1) (j + 1) (n + 1)
      in
      let n = count 0 0 0 in
      if n = la then a
      else if n = lb then b
      else begin
        let out = Array.make n 0 in
        let rec fill i j k =
          if i = la then Array.blit b j out k (lb - j)
          else if j = lb then Array.blit a i out k (la - i)
          else
            let x = a.(i) and y = b.(j) in
            if x < y then (out.(k) <- x; fill (i + 1) j (k + 1))
            else if y < x then (out.(k) <- y; fill i (j + 1) (k + 1))
            else (out.(k) <- x; fill (i + 1) (j + 1) (k + 1))
        in
        fill 0 0 0;
        out
      end
    end

  let diff (a : t) (b : t) : t =
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then a
    else begin
      let rec count i j n =
        if i = la then n
        else if j = lb then n + la - i
        else
          let x = a.(i) and y = b.(j) in
          if x < y then count (i + 1) j (n + 1)
          else if y < x then count i (j + 1) n
          else count (i + 1) (j + 1) n
      in
      let n = count 0 0 0 in
      if n = la then a
      else if n = 0 then empty
      else begin
        let out = Array.make n 0 in
        (* stops once [n] are kept, so [i] is in range while [k < n] *)
        let rec fill i j k =
          if k < n then
            if j = lb then Array.blit a i out k (la - i)
            else
              let x = a.(i) and y = b.(j) in
              if x < y then (out.(k) <- x; fill (i + 1) j (k + 1))
              else if y < x then fill i (j + 1) k
              else fill (i + 1) (j + 1) k
        in
        fill 0 0 0;
        out
      end
    end

  let equal (a : t) (b : t) =
    a == b
    || Array.length a = Array.length b
       &&
       let rec from k = k = Array.length a || (a.(k) = b.(k) && from (k + 1)) in
       from 0
end

(* What the solve needs of a block's gen/kill: [soft] drops out of the
   transfer (see [transfer]). *)
type hard_kill = { hard : Regs.t; kill : Regs.t }

let hard_kill (g : gen_kill) = { hard = Regs.of_set g.hard; kill = Regs.of_set g.kill }

type t = {
  live_in : Regs.t IntMap.t;
  gk : hard_kill IntMap.t;
  succs : int list IntMap.t;  (* successor lists at solve time *)
  solved : int;  (* blocks the producing compute/update solved *)
}

(* The dataflow equation of the module comment, as
   [hard ∪ (live_out − kill)]: [gen_kill] builds [soft] disjoint from
   [kill], so [soft ∩ live_out ⊆ live_out − kill] and the middle term
   adds nothing. *)
let transfer g out = Regs.union g.hard (Regs.diff out g.kill)

let live_in_regs t id = IntMap.find_or ~default:Regs.empty id t.live_in
let live_in t id = Regs.to_set (live_in_regs t id)

let union_live_in live_in ss =
  List.fold_left (fun acc s -> Regs.union acc (live_in s)) Regs.empty ss

let live_out t id =
  Regs.to_set (union_live_in (live_in_regs t) (IntMap.find_or ~default:[] id t.succs))

let solved t = t.solved

(* ---- the region solve -------------------------------------------------- *)

module Tbl = Hashtbl.Make (Int)

type region = {
  cone : int list Tbl.t;  (* cone block -> its successors *)
  blocks : int list;  (* R, in postorder *)
  solution : (Regs.t * hard_kill) Tbl.t;  (* R block -> live-in, gen/kill *)
}

let region_live_in t r y =
  match Tbl.find_opt r.solution y with Some (s, _) -> s | None -> live_in_regs t y

(* [x]'s successors as solved in [t], unless [x] counts as edited. *)
let solved_succs t edited x = if edited x then None else IntMap.find_opt x t.succs

(* [compute], [update] and [live_out_at] are one solve.  A block's live
   sets depend only on its forward cone, so after edits to the blocks
   satisfying [edited] (a block [t] has no solution for counts as edited)
   a block whose cone holds no edited block keeps its exact solution in
   [t].  The solve walks the roots' forward cone, reading each clean
   block's successors from [t] and each edited one's from [cfg], and
   re-solves only the region R of cone blocks that can reach an edited
   one.  R starts from bottom, not from the values in [t]: a register
   once sustained around a cycle through an edited block would otherwise
   keep itself live after its real use is gone (the stale-cycle trap).
   It ascends against its boundary frozen at the exact values of [t], so
   the result is the unique least fixpoint on the edited graph.  The cone
   is forward-closed, so R is the backward closure of the edited cone
   blocks within the cone.  See DESIGN.md §12. *)
let solve ?gen_kill_of t cfg ~edited roots =
  let gen_kill_of =
    Option.value gen_kill_of ~default:(fun x -> gen_kill (Cfg.block cfg x))
  in
  (* 1. the roots' forward cone, in postorder *)
  let cone = Tbl.create 64 in
  let post = ref [] and hits = ref [] in
  let rec visit x =
    if not (Tbl.mem cone x) then begin
      let ss =
        match solved_succs t edited x with
        | Some ss -> ss
        | None ->
          hits := x :: !hits;
          Cfg.successors cfg x
      in
      Tbl.replace cone x ss;
      List.iter visit ss;
      post := x :: !post
    end
  in
  List.iter visit roots;
  let solution = Tbl.create 16 in
  if !hits = [] then { cone; blocks = []; solution }
  else begin
    (* 2. R, each block with its cone predecessors (all of them in R) *)
    let preds = Tbl.create 64 in
    Tbl.iter (fun x ss -> List.iter (fun y -> Tbl.add preds y x) ss) cone;
    let rec close x =
      if not (Tbl.mem solution x) then begin
        let g =
          match solved_succs t edited x with
          | Some _ -> IntMap.find x t.gk
          | None -> hard_kill (gen_kill_of x)
        in
        Tbl.replace solution x (Regs.empty, g);
        List.iter close (Tbl.find_all preds x)
      end
    in
    List.iter close !hits;
    let blocks = List.filter (Tbl.mem solution) (List.rev !post) in
    let r = { cone; blocks; solution } in
    (* 3. ascend from bottom, successors first *)
    let queue = Queue.create () and queued = Tbl.create 16 in
    let push x =
      if not (Tbl.mem queued x) then begin
        Tbl.replace queued x ();
        Queue.push x queue
      end
    in
    List.iter push r.blocks;
    while not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      Tbl.remove queued x;
      let inn, g = Tbl.find solution x in
      let out = union_live_in (region_live_in t r) (Tbl.find cone x) in
      let inn' = transfer g out in
      if not (Regs.equal inn' inn) then begin
        Tbl.replace solution x (inn', g);
        List.iter push (Tbl.find_all preds x)
      end
    done;
    r
  end

(* [update] and [compute] store the entry cone's solution: R's new
   values over [t]'s, and nothing outside the cone. *)
let refresh ?gen_kill_of t cfg ~touched =
  let touched = IntSet.of_list touched in
  let r =
    solve ?gen_kill_of t cfg ~edited:(fun x -> IntSet.mem x touched) [ cfg.Cfg.entry ]
  in
  let in_cone k _ = Tbl.mem r.cone k in
  let add f m =
    List.fold_left
      (fun m x -> IntMap.add x (f x) m)
      (IntMap.filter in_cone m) r.blocks
  in
  {
    live_in = add (fun x -> fst (Tbl.find r.solution x)) t.live_in;
    gk = add (fun x -> snd (Tbl.find r.solution x)) t.gk;
    succs = add (Tbl.find r.cone) t.succs;
    solved = List.length r.blocks;
  }

let update t cfg ~touched = refresh t cfg ~touched

(* With no solution, every block counts as edited. *)
let compute ?gen_kill_of cfg =
  refresh ?gen_kill_of
    { live_in = IntMap.empty; gk = IntMap.empty; succs = IntMap.empty; solved = 0 }
    cfg ~touched:[]

let live_out_at ?gk t cfg ~dirty id =
  let edited x = IntSet.mem x dirty in
  let gen_kill_of x =
    match gk with
    | Some g when x = id -> Lazy.force g
    | _ -> gen_kill (Cfg.block cfg x)
  in
  let roots =
    match solved_succs t edited id with
    | Some ss -> ss
    | None -> Cfg.successors cfg id
  in
  let r = solve ~gen_kill_of t cfg ~edited roots in
  (Regs.to_set (union_live_in (region_live_in t r) roots), List.length r.blocks)

(** Registers a block must read as inputs given what is live out of it —
    the refined register-read set used by the structural-constraint
    estimator. *)
let block_inputs ?gk (b : Block.t) ~live_out =
  let g = match gk with Some g -> g | None -> gen_kill b in
  IntSet.union g.hard (IntSet.inter g.soft live_out)
