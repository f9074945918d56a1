(* Natural-loop discovery.

   A back edge is an edge [t -> h] whose target dominates its source; the
   natural loop of [h] is the union, over its back edges, of all blocks
   that reach a latch without passing through [h].  Irreducible cycles
   (which head and tail duplication do not create from our reducible front
   end, but random tests might) are simply not reported as loops. *)

open Trips_ir

type loop = {
  header : int;
  body : IntSet.t;  (* includes the header *)
  latches : IntSet.t;  (* sources of back edges into the header *)
  exits : (int * int) list;  (* edges (from-in-body, to-outside) *)
  depth : int;  (* nesting depth, outermost = 1 *)
}

type t = {
  loops : loop IntMap.t;  (* keyed by header *)
  loop_of_block : int IntMap.t;
      (* block -> header of the innermost loop containing it *)
}

let compute cfg =
  let dom = Dominators.compute cfg in
  let preds = Cfg.predecessor_map cfg in
  let reachable = Order.reachable cfg in
  (* Collect back edges grouped by header. *)
  let back_edges = Hashtbl.create 8 in
  IntSet.iter
    (fun src ->
      List.iter
        (fun dst ->
          if Dominators.dominates dom dst src then
            Hashtbl.replace back_edges dst
              (IntSet.add src
                 (Option.value ~default:IntSet.empty
                    (Hashtbl.find_opt back_edges dst))))
        (Cfg.successors cfg src))
    reachable;
  (* Natural loop body: backward reachability from the latches, stopping
     at the header. *)
  let body_of header latches =
    let body = ref (IntSet.singleton header) in
    let rec add id =
      if not (IntSet.mem id !body) then begin
        body := IntSet.add id !body;
        IntSet.iter add (IntMap.find_or ~default:IntSet.empty id preds)
      end
    in
    IntSet.iter add latches;
    !body
  in
  let loops =
    Hashtbl.fold
      (fun header latches acc ->
        let body = body_of header latches in
        let exits =
          IntSet.fold
            (fun b acc ->
              List.fold_left
                (fun acc s ->
                  if IntSet.mem s body then acc else (b, s) :: acc)
                acc
                (Cfg.successors cfg b))
            body []
        in
        IntMap.add header { header; body; latches; exits; depth = 1 } acc)
      back_edges IntMap.empty
  in
  (* Nesting depth: a loop is nested in every other loop whose body
     contains its header. *)
  let loops =
    IntMap.map
      (fun l ->
        let depth =
          IntMap.fold
            (fun h other acc ->
              if h <> l.header && IntSet.mem l.header other.body then acc + 1
              else acc)
            loops 1
        in
        { l with depth })
      loops
  in
  (* Innermost loop per block = containing loop with the greatest depth. *)
  let loop_of_block =
    IntMap.fold
      (fun _ l acc ->
        IntSet.fold
          (fun b acc ->
            match IntMap.find_opt b acc with
            | Some h when (IntMap.find h loops).depth >= l.depth -> acc
            | _ -> IntMap.add b l.header acc)
          l.body acc)
      loops IntMap.empty
  in
  { loops; loop_of_block }

let loop_headed_by t header = IntMap.find_opt header t.loops
let is_loop_header t id = IntMap.mem id t.loops

(** Innermost loop containing [id], if any. *)
let innermost t id =
  Option.bind (IntMap.find_opt id t.loop_of_block) (fun h ->
      IntMap.find_opt h t.loops)

(** [is_back_edge t ~src ~dst] holds when [src -> dst] closes a natural
    loop, i.e. [dst] is a header and [src] one of its latches. *)
let is_back_edge t ~src ~dst =
  match IntMap.find_opt dst t.loops with
  | Some l -> IntSet.mem src l.latches
  | None -> false

let all_loops t = IntMap.values t.loops
