(* Reference liveness solver.

   The straightforward formulation of [Liveness]: every block reachable
   from the entry starts at bottom, and round-robin sweeps in postorder
   re-evaluate every block's live-out (the union of its successors'
   live-ins) and live-in (the dataflow equation of liveness.ml) until a
   whole sweep changes nothing.  No cached solution, no region, no
   worklist.  It is the executable specification the analysis suite
   compares [Liveness.compute], [Liveness.update] and
   [Liveness.live_out_at] against; nothing outside the tests uses it. *)

open Trips_ir
open Trips_analysis

type t = { live_in : (int, IntSet.t) Hashtbl.t; live_out : (int, IntSet.t) Hashtbl.t }

let transfer (g : Liveness.gen_kill) out =
  IntSet.union g.Liveness.hard
    (IntSet.union (IntSet.inter g.Liveness.soft out) (IntSet.diff out g.Liveness.kill))

let compute cfg =
  let ids = Order.postorder cfg in
  let gk = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace gk id (Liveness.gen_kill (Cfg.block cfg id))) ids;
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
            IntSet.empty (Cfg.successors cfg id)
        in
        let inn = transfer (Hashtbl.find gk id) out in
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
  { live_in; live_out }

let live_in t id = Option.value ~default:IntSet.empty (Hashtbl.find_opt t.live_in id)
let live_out t id = Option.value ~default:IntSet.empty (Hashtbl.find_opt t.live_out id)
