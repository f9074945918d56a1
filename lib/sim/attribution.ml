(* Runtime attribution of simulated work back to lineage classes.

   The collector answers the question the paper's evaluation keeps
   asking: of everything a hyperblock fetched, executed and paid cycles
   for, how much was original work and how much was placed there by a
   formation decision (if-conversion, tail duplication, unrolling,
   peeling, predication helpers)?  [Cycle_sim] feeds it per retired
   block instance (fetch slots, fired instructions, the block's share of
   total cycles, flushes).

   Counting rule: every dynamic fetch slot is attributed to exactly one
   lineage class — the class of its instruction's lineage record — so
   the per-class fetched counts partition a block's fetch total, and
   per-block cycle shares partition the run's total cycles. *)

open Trips_ir

type class_stats = { mutable c_fetched : int; mutable c_fired : int }

type block_stats = {
  b_id : int;
  mutable executions : int;  (* dynamic block instances *)
  mutable fetched : int;  (* dynamic instruction slots mapped *)
  mutable fired : int;  (* slots that actually executed *)
  mutable cycles : int;  (* this block's share of total cycles *)
  mutable flushes : int;  (* mispredictions resolved by this block *)
  classes : (string, class_stats) Hashtbl.t;
}

type t = { blocks : (int, block_stats) Hashtbl.t }

let create () = { blocks = Hashtbl.create 32 }

let block_stats t id =
  match Hashtbl.find_opt t.blocks id with
  | Some b -> b
  | None ->
    let b =
      {
        b_id = id;
        executions = 0;
        fetched = 0;
        fired = 0;
        cycles = 0;
        flushes = 0;
        classes = Hashtbl.create 4;
      }
    in
    Hashtbl.add t.blocks id b;
    b

let class_stats (b : block_stats) name =
  match Hashtbl.find_opt b.classes name with
  | Some c -> c
  | None ->
    let c = { c_fetched = 0; c_fired = 0 } in
    Hashtbl.add b.classes name c;
    c

let count_execution t ~block =
  let b = block_stats t block in
  b.executions <- b.executions + 1

let count_instr t ~block (i : Instr.t) ~fired =
  let b = block_stats t block in
  b.fetched <- b.fetched + 1;
  if fired then b.fired <- b.fired + 1;
  let c = class_stats b (Lineage.class_name i.Instr.lineage) in
  c.c_fetched <- c.c_fetched + 1;
  if fired then c.c_fired <- c.c_fired + 1

let add_cycles t ~block n =
  let b = block_stats t block in
  b.cycles <- b.cycles + n

let add_flush t ~block =
  let b = block_stats t block in
  b.flushes <- b.flushes + 1

(* ---- export ------------------------------------------------------------- *)

type row = {
  r_block : int;
  r_execs : int;
  r_fetched : int;
  r_fired : int;
  r_cycles : int;
  r_flushes : int;
  r_classes : (string * int * int) list;
      (* (class, fetched, fired), sorted by class name *)
}

(** Plain-data rows sorted by block id; class lists sorted by name, so
    rows are deterministic however the run interleaved. *)
let rows t =
  Hashtbl.fold (fun _ b acc -> b :: acc) t.blocks []
  |> List.sort (fun a b -> compare a.b_id b.b_id)
  |> List.map (fun b ->
         let classes =
           Hashtbl.fold
             (fun name c acc -> (name, c.c_fetched, c.c_fired) :: acc)
             b.classes []
           |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
         in
         {
           r_block = b.b_id;
           r_execs = b.executions;
           r_fetched = b.fetched;
           r_fired = b.fired;
           r_cycles = b.cycles;
           r_flushes = b.flushes;
           r_classes = classes;
         })
