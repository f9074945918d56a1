(* Immediate dominators by the Cooper-Harvey-Kennedy iterative algorithm.

   A depth-first walk from the entry numbers the reachable blocks in
   postorder; the algorithm then visits them in reverse postorder,
   intersecting the dominator chains of already-processed predecessors
   (walking a chain up raises the postorder number), which for reducible
   graphs converges in two passes.

   Every table is an int array indexed by block id, sized by the largest
   id present in the CFG rather than by [next_block]: formation removes
   blocks and allocates fresh ids, so the ids it leaves are sparse, but
   never larger than the largest live one. *)

open Trips_ir

type t = {
  entry : int;
  idom : int array;
      (* block -> immediate dominator; entry -> entry; -1 when unreachable *)
  post : int array;  (* block -> postorder number; -1 when unreachable *)
}

let compute cfg =
  let entry = cfg.Cfg.entry in
  let n =
    Hashtbl.fold (fun id _ m -> max m (id + 1)) cfg.Cfg.blocks (entry + 1)
  in
  let post = Array.make n (-1) in
  let seen = Array.make n false in
  let succs = Array.make n [] in
  let by_post = Array.make n 0 in
  let count = ref 0 in
  let rec visit id =
    seen.(id) <- true;
    let ss = Cfg.successors cfg id in
    succs.(id) <- ss;
    List.iter (fun s -> if not seen.(s) then visit s) ss;
    post.(id) <- !count;
    by_post.(!count) <- id;
    incr count
  in
  visit entry;
  let preds = Array.make n [] in
  for k = 0 to !count - 1 do
    let b = by_post.(k) in
    List.iter (fun s -> preds.(s) <- b :: preds.(s)) succs.(b)
  done;
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let rec intersect a b =
    if a = b then a
    else if post.(a) < post.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* reverse postorder; the entry is numbered last and skipped *)
    for k = !count - 2 downto 0 do
      let id = by_post.(k) in
      let new_idom =
        List.fold_left
          (fun acc p ->
            if idom.(p) < 0 then acc else if acc < 0 then p else intersect p acc)
          (-1) preds.(id)
      in
      if new_idom >= 0 && idom.(id) <> new_idom then begin
        idom.(id) <- new_idom;
        changed := true
      end
    done
  done;
  { entry; idom; post }

let reachable t id = id >= 0 && id < Array.length t.idom && t.idom.(id) >= 0

(** Immediate dominator of [id]; [None] for the entry or unreachable
    blocks. *)
let idom t id =
  if id = t.entry || not (reachable t id) then None else Some t.idom.(id)

(** [dominates t a b] holds when every path from the entry to [b] passes
    through [a] (reflexive).  A dominator finishes after the blocks it
    dominates, so the walk up [b]'s chain stops once it passes [a]'s
    postorder number. *)
let dominates t a b =
  reachable t a && reachable t b
  &&
  let pa = t.post.(a) in
  let rec walk b = b = a || (t.post.(b) < pa && walk t.idom.(b)) in
  walk b

(** Children map of the dominator tree. *)
let children t =
  let kids = ref IntMap.empty in
  Array.iteri
    (fun id parent ->
      if parent >= 0 && id <> t.entry then
        kids :=
          IntMap.add parent (id :: IntMap.find_or ~default:[] parent !kids) !kids)
    t.idom;
  !kids

(** Reachable blocks in a preorder walk of the dominator tree, so every
    block appears after its dominator (used by dominator-based value
    numbering). *)
let tree_preorder t =
  let kids = children t in
  let rec visit id =
    id
    :: List.concat_map visit (List.sort compare (IntMap.find_or ~default:[] id kids))
  in
  visit t.entry
