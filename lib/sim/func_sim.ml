(* Functional (architectural) simulator.

   Interprets a CFG over an integer register file and a word-addressed
   memory.  It executes basic blocks and predicated hyperblocks uniformly:
   instructions run in program order, an instruction fires only when its
   guard holds, and the block's exit is the unique exit whose guard holds.
   Strict mode asserts that uniqueness, which is the central dataflow
   invariant every transformation must preserve.

   Semantics are total: memory addresses are wrapped into the memory size,
   a zero-length memory reads 0 and absorbs stores, division by zero
   yields zero, so speculative code can never fault — mirroring how an
   EDGE machine squashes mis-speculated work.

   The simulator reports block and instruction counts (the paper's
   Table 3 metric) and exposes per-step hooks used by the profiler and by
   the cycle-level timing model.

   Each run first decodes the CFG (DESIGN.md §18): registers and
   immediates become slots of one flat register file, blocks become
   array slots, Goto targets become slot numbers, and each instruction
   becomes one closure specialised on its opcode and guard.  The
   interpreter loop makes one indirect call per instruction, does no
   opcode match and allocates nothing.  Decoding is per run because CFGs
   are mutable between runs, and the closures die with the run. *)

open Trips_ir

exception Out_of_fuel of string
exception Exit_invariant_violated of string

type hooks = {
  on_block : int -> unit;  (* dynamic block instance begins *)
  on_instr : Instr.t -> fired:bool -> addr:int -> unit;
      (* per instruction in program order; [addr] is the memory address
         a fired memory operation touched, -1 for none *)
  on_exit : Block.exit_ -> unit;  (* the exit that fired *)
}

let no_hooks =
  {
    on_block = (fun _ -> ());
    on_instr = (fun _ ~fired:_ ~addr:_ -> ());
    on_exit = (fun _ -> ());
  }

type result = {
  ret : int option;  (* value returned by the final Ret, if any *)
  blocks_executed : int;
  instrs_executed : int;  (* instructions whose guard held *)
  instrs_fetched : int;  (* all instructions of executed blocks *)
  checksum : int;  (* digest of return value and final memory *)
}

(* ---- decoded form ----------------------------------------------------- *)

(* Every operand is a register-file slot: each distinct register gets
   one, numbered densely (corpus files may name any integer, so the file
   is sized by the count, not the largest number), and each distinct
   immediate gets a slot preloaded with its value that no instruction
   writes.

   A decoded instruction is one closure, specialised on its opcode and
   its guard, over the run's memory and its operands' slots.  Applied to
   the register file it returns [not_fired] when its guard does not
   hold; otherwise it fires and returns the memory address it touched,
   -1 for none. *)
type code = int array -> int

let not_fired = -2

type dexit = {
  eguard : int;  (* the guard's slot, -1 when unguarded *)
  esense : bool;
  next : int;  (* Goto: target block slot; Ret: -1 *)
  ret : int;  (* Ret: returned operand's slot, -1 for none *)
  edge : int;  (* Goto: profile edge index *)
  exit_ : Block.exit_;
}

(* [present] is false for a Goto target the CFG lacks: entering it fails
   the way [Cfg.block] does.  [instrs.(k)] is the instruction [code.(k)]
   was decoded from, for the hooks. *)
type dblock = {
  id : int;
  present : bool;
  code : code array;
  instrs : Instr.t array;
  exits : dexit array;
}

type program = {
  name : string;
  blocks : dblock array;
  entry : int;
  init : int array;  (* register file at start: parameters and immediates *)
  edges : (int * int) array;  (* distinct (source, target) block-slot pairs *)
}

(* [a] wrapped into [0, n): an address already in range is returned as
   it is *)
let[@inline] wrap_addr n a = if a >= 0 && a < n then a else ((a mod n) + n) mod n

(* The closures of [Opcode.eval_binop] and [Opcode.eval_cmp], which stay
   the specification (the sim suite compares against a reference
   interpreter that evaluates through them). *)
let binop (op : Opcode.binop) d a b : code =
  match op with
  | Add -> fun r -> r.(d) <- r.(a) + r.(b); -1
  | Sub -> fun r -> r.(d) <- r.(a) - r.(b); -1
  | Mul -> fun r -> r.(d) <- r.(a) * r.(b); -1
  | Div -> fun r -> let y = r.(b) in r.(d) <- (if y = 0 then 0 else r.(a) / y); -1
  | Rem -> fun r -> let y = r.(b) in r.(d) <- (if y = 0 then 0 else r.(a) mod y); -1
  | And -> fun r -> r.(d) <- r.(a) land r.(b); -1
  | Or -> fun r -> r.(d) <- r.(a) lor r.(b); -1
  | Xor -> fun r -> r.(d) <- r.(a) lxor r.(b); -1
  | Shl -> fun r -> r.(d) <- r.(a) lsl (r.(b) land 63); -1
  | Shr -> fun r -> r.(d) <- r.(a) lsr (r.(b) land 63); -1
  | Asr -> fun r -> r.(d) <- r.(a) asr (r.(b) land 63); -1

let cmp (op : Opcode.cmpop) d a b : code =
  match op with
  | Eq -> fun r -> r.(d) <- Bool.to_int (r.(a) = r.(b)); -1
  | Ne -> fun r -> r.(d) <- Bool.to_int (r.(a) <> r.(b)); -1
  | Lt -> fun r -> r.(d) <- Bool.to_int (r.(a) < r.(b)); -1
  | Le -> fun r -> r.(d) <- Bool.to_int (r.(a) <= r.(b)); -1
  | Gt -> fun r -> r.(d) <- Bool.to_int (r.(a) > r.(b)); -1
  | Ge -> fun r -> r.(d) <- Bool.to_int (r.(a) >= r.(b)); -1

(* A zero-length memory has no addresses at all: loads read 0, stores
   vanish, and neither reports an address (there is no memory system to
   charge), keeping the semantics total on every input. *)
let load memory d a off : code =
  let n = Array.length memory in
  if n = 0 then fun r -> r.(d) <- 0; -1
  else fun r ->
    let addr = wrap_addr n (r.(a) + off) in
    r.(d) <- memory.(addr);
    addr

let store memory v a off : code =
  let n = Array.length memory in
  if n = 0 then fun _ -> -1
  else fun r ->
    let addr = wrap_addr n (r.(a) + off) in
    memory.(addr) <- r.(v);
    addr

(* [fire] behind the guard test of slot [g] ([g < 0]: unguarded) *)
let guarded g sense (fire : code) : code =
  if g < 0 then fire
  else if sense then fun r -> if r.(g) <> 0 then fire r else not_fired
  else fun r -> if r.(g) = 0 then fire r else not_fired

(* The number [tbl] gives [key], taking the next value of the counter
   [n] on first sight. *)
let intern tbl n key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
    let s = !n in
    incr n;
    Hashtbl.add tbl key s;
    s

(* Numbering [tbl]'s keys by their values. *)
let by_number tbl n dummy =
  let a = Array.make n dummy in
  Hashtbl.iter (fun key s -> a.(s) <- key) tbl;
  a

let decode ~registers ~memory (cfg : Cfg.t) =
  let regs = Hashtbl.create 256 and consts = Hashtbl.create 64 and n_slots = ref 0 in
  let reg = intern regs n_slots in
  let operand = function Instr.Reg r -> reg r | Instr.Imm n -> intern consts n_slots n in
  let guard = function None -> (-1, true) | Some g -> (reg g.Instr.greg, g.Instr.sense) in
  (* present blocks take the first slots, in id order; Goto targets the
     CFG lacks are numbered after them *)
  let present = Cfg.block_ids cfg in
  let slots = Hashtbl.create 64 and n_blocks = ref 0 in
  List.iter (fun id -> ignore (intern slots n_blocks id)) present;
  let edges = Hashtbl.create 64 and n_edges = ref 0 in
  let decode_instr (i : Instr.t) =
    let fire =
      match i.Instr.op with
      | Instr.Binop (op, d, a, b) -> binop op (reg d) (operand a) (operand b)
      | Instr.Cmp (op, d, a, b) -> cmp op (reg d) (operand a) (operand b)
      | Instr.Mov (d, a) ->
        let d = reg d and a = operand a in
        fun r -> r.(d) <- r.(a); -1
      | Instr.Load (d, a, off) -> load memory (reg d) (operand a) off
      | Instr.Store (v, a, off) -> store memory (operand v) (operand a) off
      | Instr.Nullw _ -> fun _ -> -1
    in
    let g, sense = guard i.Instr.guard in
    guarded g sense fire
  in
  let decode_exit src (e : Block.exit_) =
    let eguard, esense = guard e.Block.eguard in
    match e.Block.target with
    | Block.Goto id ->
      let next = intern slots n_blocks id in
      let edge = intern edges n_edges (src, next) in
      { eguard; esense; next; ret = -1; edge; exit_ = e }
    | Block.Ret v ->
      let ret = match v with Some o -> operand o | None -> -1 in
      { eguard; esense; next = -1; ret; edge = -1; exit_ = e }
  in
  let decoded =
    List.mapi
      (fun src id ->
        let b = Cfg.block cfg id in
        let instrs = Array.of_list b.Block.instrs in
        {
          id;
          present = true;
          code = Array.map decode_instr instrs;
          instrs;
          exits = Array.of_list (List.map (decode_exit src) b.Block.exits);
        })
      present
  in
  let entry = intern slots n_blocks cfg.Cfg.entry in
  let absent = { id = 0; present = false; code = [||]; instrs = [||]; exits = [||] } in
  let blocks = Array.map (fun id -> { absent with id }) (by_number slots !n_blocks 0) in
  List.iteri (fun s b -> blocks.(s) <- b) decoded;
  let params = List.map (fun (r, v) -> (reg r, v)) registers in
  let init = Array.make !n_slots 0 in
  Hashtbl.iter (fun n s -> init.(s) <- n) consts;
  List.iter (fun (s, v) -> init.(s) <- v) params;
  { name = cfg.Cfg.name; blocks; entry; init; edges = by_number edges !n_edges (0, 0) }

(* ---- interpreter -------------------------------------------------------- *)

let holds regs g sense = g < 0 || regs.(g) <> 0 = sense

let memory_checksum memory =
  Array.fold_left (fun acc v -> (acc * 31) + v) 5381 memory

let exec ~fuel ~strict_exits ~hooks ~profile ~memory p =
  let regs = Array.copy p.init in
  let observe = hooks != no_hooks in
  let fuel = ref fuel in
  let blocks_executed = ref 0 and instrs_executed = ref 0 and instrs_fetched = ref 0 in
  let cur = ref p.entry and via = ref (-1) and ret = ref None and running = ref true in
  (* watchdog: one poll per dynamic block.  Fuel only bounds dynamic
     *instructions*, so an empty self-looping block would spin forever
     without this; under an active scope the spin becomes a structured
     [Watchdog.Timed_out] instead.  A scope only ever wraps a whole call,
     so one that is not active when the run starts never is during it. *)
  let watched = Trips_obs.Watchdog.active () in
  while !running do
    if watched then Trips_obs.Watchdog.check ();
    let b = p.blocks.(!cur) in
    if not b.present then
      Fmt.invalid_arg "Cfg.block: no block b%d in %s" b.id p.name;
    incr blocks_executed;
    (match profile with
    | Some c ->
      if !via < 0 then Trips_profile.Profile.record_entry c !cur
      else Trips_profile.Profile.record_edge c !via
    | None -> ());
    if observe then hooks.on_block b.id;
    (* fuel is the number of dynamic instructions the run may execute, so
       a program needing exactly [fuel] instructions completes and the
       [fuel+1]-th raises *)
    let code = b.code in
    let n = Array.length code in
    let admitted = if !fuel >= n then n else Int.max !fuel 0 in
    if observe then
      for k = 0 to admitted - 1 do
        let r = code.(k) regs in
        let fired = r <> not_fired in
        if fired then incr instrs_executed;
        hooks.on_instr b.instrs.(k) ~fired ~addr:(if fired then r else -1)
      done
    else
      for k = 0 to admitted - 1 do
        if code.(k) regs <> not_fired then incr instrs_executed
      done;
    instrs_fetched := !instrs_fetched + admitted;
    fuel := !fuel - admitted;
    if admitted < n then
      raise (Out_of_fuel (Fmt.str "%s: fuel exhausted in b%d" p.name b.id));
    (* the first holding exit fires; strict mode counts the rest *)
    let exits = b.exits in
    let n_exits = Array.length exits in
    let first = ref 0 in
    while
      !first < n_exits
      && not (holds regs exits.(!first).eguard exits.(!first).esense)
    do
      incr first
    done;
    if !first = n_exits then
      raise
        (Exit_invariant_violated
           (Fmt.str "%s: no exit guard holds in b%d" p.name b.id));
    if strict_exits then begin
      let holding = ref 1 in
      for k = !first + 1 to n_exits - 1 do
        if holds regs exits.(k).eguard exits.(k).esense then incr holding
      done;
      if !holding > 1 then
        raise
          (Exit_invariant_violated
             (Fmt.str "%s: %d exit guards hold in b%d" p.name !holding b.id))
    end;
    let e = exits.(!first) in
    if observe then hooks.on_exit e.exit_;
    if e.next >= 0 then begin
      cur := e.next;
      via := e.edge
    end
    else begin
      if e.ret >= 0 then ret := Some regs.(e.ret);
      running := false
    end
  done;
  let ret = !ret in
  let checksum =
    (memory_checksum memory * 31) + Option.value ~default:(-1) ret
  in
  Trips_obs.Metrics.incr ~by:!blocks_executed "sim.func.blocks";
  Trips_obs.Metrics.incr ~by:!instrs_executed "sim.func.instrs_executed";
  Trips_obs.Metrics.incr ~by:!instrs_fetched "sim.func.instrs_fetched";
  {
    ret;
    blocks_executed = !blocks_executed;
    instrs_executed = !instrs_executed;
    instrs_fetched = !instrs_fetched;
    checksum;
  }

(** Run [cfg] to completion (first firing [Ret] exit).

    @param fuel maximum dynamic instructions before raising [Out_of_fuel].
    @param strict_exits check that exactly one exit guard holds per block.
    @param registers initial register values (e.g. kernel parameters).
    @param memory the data memory, mutated in place. *)
let run ?(fuel = 50_000_000) ?(strict_exits = true) ?(hooks = no_hooks)
    ?(registers = []) ~memory cfg =
  exec ~fuel ~strict_exits ~hooks ~profile:None ~memory
    (decode ~registers ~memory cfg)

(** Run while collecting an edge/block/trip-count profile; returns the
    result and the profile.  Loop information, when provided, enables
    trip-count histograms. *)
let run_profiled ?(fuel = 50_000_000) ?(strict_exits = true) ?(registers = [])
    ?loops ~memory cfg =
  let p = decode ~registers ~memory cfg in
  let c =
    Trips_profile.Profile.collector ?loops
      ~ids:(Array.map (fun b -> b.id) p.blocks)
      ~edges:p.edges ()
  in
  let result =
    exec ~fuel ~strict_exits ~hooks:no_hooks ~profile:(Some c) ~memory p
  in
  (result, Trips_profile.Profile.finish c)
