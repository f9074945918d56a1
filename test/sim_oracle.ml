(* Reference functional simulator and profile collector.

   The straightforward implementations the decoded interpreter and the
   dense collector replaced: registers in a hashtable read through an
   option, exits filtered into a list, profile counters keyed by block id
   and (source, target) pair.  They are the executable specification the
   sim suite compares [Func_sim] and [Profile] against, event for event;
   nothing outside the tests uses them. *)

open Trips_ir
open Trips_sim

(* ---- reference profile collector --------------------------------------- *)

module EdgeTbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash (a, b) = (a * 65599) + b
end)

type profile = {
  block_counts : (int, int) Hashtbl.t;
  edge_counts : int EdgeTbl.t;
  trip_histograms : (int, (int, int) Hashtbl.t) Hashtbl.t;
      (* loop header -> (trip count -> occurrences) *)
}

type collector = {
  profile : profile;
  loops : Trips_analysis.Loops.t option;
  mutable prev : int option;
  active_trips : (int, int) Hashtbl.t;  (* header -> iterations so far *)
}

let collector ?loops () =
  {
    profile =
      {
        block_counts = Hashtbl.create 64;
        edge_counts = EdgeTbl.create 64;
        trip_histograms = Hashtbl.create 8;
      };
    loops;
    prev = None;
    active_trips = Hashtbl.create 8;
  }

let incr_tbl tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let record_trip p ~header ~trips =
  let hist =
    match Hashtbl.find_opt p.trip_histograms header with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.add p.trip_histograms header h;
      h
  in
  incr_tbl hist trips

let flush_trip c header =
  match Hashtbl.find_opt c.active_trips header with
  | Some n ->
    record_trip c.profile ~header ~trips:n;
    Hashtbl.remove c.active_trips header
  | None -> ()

let record_block c id =
  let is_header loops = Trips_analysis.Loops.is_loop_header loops id in
  incr_tbl c.profile.block_counts id;
  (match c.prev with
  | Some src -> (
    let n =
      1 + Option.value ~default:0 (EdgeTbl.find_opt c.profile.edge_counts (src, id))
    in
    EdgeTbl.replace c.profile.edge_counts (src, id) n;
    match c.loops with
    | Some loops when is_header loops ->
      if Trips_analysis.Loops.is_back_edge loops ~src ~dst:id then
        incr_tbl c.active_trips id
      else begin
        flush_trip c id;
        Hashtbl.replace c.active_trips id 0
      end
    | Some _ | None -> ())
  | None -> (
    match c.loops with
    | Some loops when is_header loops -> Hashtbl.replace c.active_trips id 0
    | Some _ | None -> ()));
  c.prev <- Some id

let finish c =
  Hashtbl.iter
    (fun header n -> record_trip c.profile ~header ~trips:n)
    c.active_trips;
  Hashtbl.reset c.active_trips;
  c.profile

let block_count p id = Option.value ~default:0 (Hashtbl.find_opt p.block_counts id)

let edge_count p ~src ~dst =
  Option.value ~default:0 (EdgeTbl.find_opt p.edge_counts (src, dst))

let edges p = EdgeTbl.fold (fun (s, d) n acc -> (s, d, n) :: acc) p.edge_counts []

let trip_histogram p header =
  match Hashtbl.find_opt p.trip_histograms header with
  | None -> []
  | Some h ->
    Hashtbl.fold (fun trips occ acc -> (trips, occ) :: acc) h [] |> List.sort compare

let pp fmt p =
  Fmt.pf fmt "@[<v>profile:";
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) p.block_counts []
  |> List.sort compare
  |> List.iter (fun (id, n) -> Fmt.pf fmt "@,b%d: %d" id n);
  Fmt.pf fmt "@]"

(* ---- reference interpreter --------------------------------------------- *)

type state = { regs : (int, int) Hashtbl.t; memory : int array; mutable fuel : int }

let read_reg st r = Option.value ~default:0 (Hashtbl.find_opt st.regs r)
let write_reg st r v = Hashtbl.replace st.regs r v

let operand_value st = function
  | Instr.Reg r -> read_reg st r
  | Instr.Imm n -> n

let guard_holds st = function
  | None -> true
  | Some g -> read_reg st g.Instr.greg <> 0 = g.Instr.sense

let wrap_addr st a =
  let n = Array.length st.memory in
  if n = 0 then 0 else ((a mod n) + n) mod n

let exec_instr st i =
  match i.Instr.op with
  | Instr.Binop (op, d, a, b) ->
    write_reg st d (Opcode.eval_binop op (operand_value st a) (operand_value st b));
    None
  | Instr.Cmp (op, d, a, b) ->
    write_reg st d (Opcode.eval_cmp op (operand_value st a) (operand_value st b));
    None
  | Instr.Mov (d, a) ->
    write_reg st d (operand_value st a);
    None
  | Instr.Load (d, a, off) ->
    if Array.length st.memory = 0 then begin
      write_reg st d 0;
      None
    end
    else begin
      let addr = wrap_addr st (operand_value st a + off) in
      write_reg st d st.memory.(addr);
      Some addr
    end
  | Instr.Store (v, a, off) ->
    if Array.length st.memory = 0 then None
    else begin
      let addr = wrap_addr st (operand_value st a + off) in
      st.memory.(addr) <- operand_value st v;
      Some addr
    end
  | Instr.Nullw _ -> None

let run ?(fuel = 50_000_000) ?(strict_exits = true) ?(hooks = Func_sim.no_hooks)
    ?(registers = []) ~memory cfg : Func_sim.result =
  let st = { regs = Hashtbl.create 256; memory; fuel } in
  List.iter (fun (r, v) -> write_reg st r v) registers;
  let blocks_executed = ref 0 in
  let instrs_executed = ref 0 in
  let instrs_fetched = ref 0 in
  let rec step id =
    Trips_obs.Watchdog.check ();
    let b = Cfg.block cfg id in
    incr blocks_executed;
    hooks.Func_sim.on_block id;
    List.iter
      (fun i ->
        if st.fuel <= 0 then
          raise
            (Func_sim.Out_of_fuel
               (Fmt.str "%s: fuel exhausted in b%d" cfg.Cfg.name id));
        st.fuel <- st.fuel - 1;
        incr instrs_fetched;
        let fired = guard_holds st i.Instr.guard in
        let addr = if fired then exec_instr st i else None in
        if fired then incr instrs_executed;
        hooks.Func_sim.on_instr i ~fired ~addr:(Option.value ~default:(-1) addr))
      b.Block.instrs;
    let holding = List.filter (fun e -> guard_holds st e.Block.eguard) b.Block.exits in
    (match holding with
    | [] ->
      raise
        (Func_sim.Exit_invariant_violated
           (Fmt.str "%s: no exit guard holds in b%d" cfg.Cfg.name id))
    | _ :: _ :: _ when strict_exits ->
      raise
        (Func_sim.Exit_invariant_violated
           (Fmt.str "%s: %d exit guards hold in b%d" cfg.Cfg.name
              (List.length holding) id))
    | _ -> ());
    let e = List.hd holding in
    hooks.Func_sim.on_exit e;
    match e.Block.target with
    | Block.Goto next -> step next
    | Block.Ret v -> Option.map (operand_value st) v
  in
  let ret = step cfg.Cfg.entry in
  {
    Func_sim.ret;
    blocks_executed = !blocks_executed;
    instrs_executed = !instrs_executed;
    instrs_fetched = !instrs_fetched;
    checksum = (Func_sim.memory_checksum memory * 31) + Option.value ~default:(-1) ret;
  }

let run_profiled ?fuel ?strict_exits ?registers ?loops ~memory cfg =
  let c = collector ?loops () in
  let hooks = { Func_sim.no_hooks with Func_sim.on_block = record_block c } in
  let result = run ?fuel ?strict_exits ~hooks ?registers ~memory cfg in
  (result, finish c)
