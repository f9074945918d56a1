(* Trace-driven TRIPS cycle-level timing model.

   The functional simulator supplies, per dynamic block instance, which
   instructions fired, the memory addresses they touched and the exit that
   fired; this module converts that trace into cycles online (no trace is
   stored).  The model charges the costs the paper's analysis rests on:

   - per-block *mapping overhead*: a fixed dispatch cost plus fetch
     bandwidth, amortized better by fuller blocks (the [overhead] term of
     the Section 7.3 cost equation);
   - *dataflow issue*: an instruction becomes ready when its operands —
     including its predicate — are produced, plus an operand-network hop;
     issue contends for the 16-wide execution resources;
   - *dataflow predication*: nullified (guard-false) instructions never
     issue; guarded instructions wait for their guard, which is exactly
     why tail-duplicating an induction-variable update serializes an
     otherwise parallel loop (the bzip2_3 effect);
   - *speculative next-block fetch*: up to 8 blocks in flight, in-order
     commit, and a flush penalty paid from branch-resolution time on a
     next-block misprediction;
   - *block commit*: a block commits once all its outputs (register
     writes, stores, the branch) are produced — a short untaken path
     never waits for a long one, the key EDGE/VLIW contrast of Section 5;
   - a small direct-mapped L1 with per-access hit/miss latency.

   Cross-block dependences flow through [reg_ready]: a consumer of a
   register written by an earlier block waits for the producing write,
   which keeps loop-carried dependence chains serial no matter how many
   blocks are in flight.

   One exact path (DESIGN.md §16), byte-compared by the sim suite against
   the per-instruction reference in test/cycle_oracle.ml, keeps this the
   cheap stage of a sweep.  Each run first *decodes* the CFG: every
   block becomes a record of flat per-instruction arrays (latency,
   memory kind, use and def slots), its registers renumbered into dense
   block-local slots that map to dense run registers, so [reg_ready] is
   an array and the timing path never matches an opcode or hashes a
   register.  An instance finds its decoded block with one table probe,
   on entry.  The functional hooks record only each instruction's fired
   flag and address; the issue loop then reads the decoded arrays,
   probes the cache in program order and takes issue slots from a
   bounded ring whose slots are tagged with the absolute cycle they
   represent.
   Cycles below the current block's dispatch point are dead by
   construction (every future probe starts at or after it), so stale
   slots are reclaimed lazily by tag comparison and the ring only ever
   spans the in-flight window, not the whole simulated time axis.
   Operand wakeup is batched: per signature (block, firing exit's guard
   slot, fired bitmask) the external inputs and outputs are listed once,
   and each instance seeds its slot-indexed availability table with
   every external input's effective readiness (max of the register-read
   latency and the producer's completion plus a network hop).  Every
   block instance is timed by that one computation; nothing is recorded
   or replayed. *)

open Trips_ir

type timing = {
  fetch_bandwidth : int;  (* instructions mapped per cycle *)
  block_overhead : int;  (* fixed per-block dispatch/map cost *)
  issue_width : int;
  operand_hop : int;  (* operand-network latency per grid hop *)
  spatial_grid : int;
      (* side of the ALU grid for the *unoptimized-placement* mode:
         instructions are placed round-robin and producer->consumer
         latency is operand_hop * Manhattan distance.  0 (the default)
         charges a flat operand_hop per edge, which approximates a
         well-optimized SPDI placement; the grid mode exists to quantify
         what placement quality is worth. *)
  reg_read_latency : int;  (* block input availability after dispatch *)
  miss_penalty : int;  (* added to a load's latency on L1 miss *)
  flush_penalty : int;  (* misprediction redirect cost *)
  commit_overhead : int;
  window_blocks : int;
  cache_size_words : int;
  cache_line_words : int;
}

let default_timing =
  {
    fetch_bandwidth = Machine.issue_width;
    block_overhead = 6;
    issue_width = Machine.issue_width;
    operand_hop = 1;
    spatial_grid = 0;
    reg_read_latency = 2;
    miss_penalty = 12;
    flush_penalty = 12;
    commit_overhead = 2;
    window_blocks = Machine.max_blocks_in_flight;
    cache_size_words = 2048;
    cache_line_words = 8;
  }

type result = {
  cycles : int;
  blocks : int;
  instrs_fired : int;
  instrs_fetched : int;
  mispredictions : int;
  predictor_accuracy : float;
  cache_miss_rate : float;
  ret : int option;
  checksum : int;
}

(* ---- decoded blocks ----------------------------------------------------- *)

(* Instance signature: the firing exit's guard slot (-1 for none) and
   the fired bitmask; with the block they determine the
   instruction/def/use sequence and the branch resolution input, both
   per-dynamic-instance (predication).  Stored as a per-block list
   probed with inline integer comparisons against the live event
   buffers, so a lookup allocates nothing. *)
type sig_cell = { sc_guard : int; sc_mask : int array; sc_info : sig_info }

(* Per-signature analysis over the block's slots: which slots the
   instance reads from outside — a use with no earlier *fired* def, in
   first-use order, including the firing exit's guard — and which a
   fired def writes, each with its run register. *)
and sig_info = {
  si_ext_slots : int array;
  si_ext_regs : int array;  (* run registers, aligned with si_ext_slots *)
  si_out_slots : int array;
  si_out_regs : int array;  (* run registers, aligned with si_out_slots *)
  si_guard_slot : int;  (* firing exit's guard slot, -1 for none *)
}

(* Memory kind of an instruction, decoded once. *)
let mem_none = 0
let mem_load = 1
let mem_store = 2

(* A block decoded once per run.  Registers are numbered twice, both
   densely: block-local slots [0, Array.length d_regs) index the
   per-instance availability table, and [d_regs] maps a slot to its run
   register, the index into [reg_ready].  Corpus files may name any
   integer as a register or block id, so nothing is indexed by a raw
   number.  The [Instr.t] array is kept for attribution. *)
type dblock = {
  d_id : int;
  d_instrs : Instr.t array;
  d_lat : int array;  (* nominal latency *)
  d_mem : int array;  (* mem_none, mem_load or mem_store *)
  d_uses : int array array;  (* use slots per instruction *)
  d_defs : int array array;  (* def slots per instruction *)
  d_regs : int array;  (* slot -> run register *)
  d_guard_regs : int array;  (* distinct exit guard registers ... *)
  d_guard_slots : int array;  (* ... and their slots *)
  mutable d_sigs : sig_cell list;
}

module Id_tbl = Hashtbl.Make (Int)

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

(* Decode every block of [cfg]; returns the block table (raw id ->
   decoded block) and the number of run registers. *)
let decode (cfg : Cfg.t) =
  let run_regs = Hashtbl.create 256 and n_run = ref 0 in
  let blocks = Id_tbl.create 64 in
  Cfg.iter_blocks
    (fun (b : Block.t) ->
      let local = Hashtbl.create 32 and n_local = ref 0 and regs = ref [] in
      let slot r =
        let n = !n_local in
        let s = intern local n_local r in
        if s = n then regs := intern run_regs n_run r :: !regs;
        s
      in
      let instrs = Array.of_list b.Block.instrs in
      let slots f = Array.map (fun i -> Array.of_list (List.map slot (f i))) instrs in
      let uses = slots Instr.uses in
      let defs = slots Instr.defs in
      let guards =
        List.sort_uniq Int.compare
          (List.filter_map
             (fun (e : Block.exit_) -> Option.map (fun g -> g.Instr.greg) e.Block.eguard)
             b.Block.exits)
      in
      let guard_regs = Array.of_list guards in
      let guard_slots = Array.map slot guard_regs in
      Id_tbl.replace blocks b.Block.id
        {
          d_id = b.Block.id;
          d_instrs = instrs;
          d_lat = Array.map (fun (i : Instr.t) -> Latency.of_op i.Instr.op) instrs;
          d_mem =
            Array.map
              (fun (i : Instr.t) ->
                match i.Instr.op with
                | Instr.Load _ -> mem_load
                | Instr.Store _ -> mem_store
                | Instr.Binop _ | Instr.Cmp _ | Instr.Mov _ | Instr.Nullw _ -> mem_none)
              instrs;
          d_uses = uses;
          d_defs = defs;
          d_regs = Array.of_list (List.rev !regs);
          d_guard_regs = guard_regs;
          d_guard_slots = guard_slots;
          d_sigs = [];
        })
    cfg;
  (blocks, !n_run)

let no_block =
  {
    d_id = -1;
    d_instrs = [||];
    d_lat = [||];
    d_mem = [||];
    d_uses = [||];
    d_defs = [||];
    d_regs = [||];
    d_guard_regs = [||];
    d_guard_slots = [||];
    d_sigs = [];
  }

(* Mutable per-run machine state. *)
type machine = {
  t : timing;
  trace : int ref;  (* block instances still to trace *)
  trace_ppf : Format.formatter;
  predictor : Predictor.t;
  cache : Cache.t;
  blocks : dblock Id_tbl.t;  (* block id -> decoded block *)
  reg_ready : int array;  (* run register -> producer completion *)
  (* ring allocator: slot [c land ring_mask] holds cycle [ring_tags],
     occupancy [ring_used]; tags below the current dispatch point are
     dead and reclaimed lazily *)
  mutable ring_tags : int array;
  mutable ring_used : int array;
  mutable ring_mask : int;
  mutable ring_grows : int;
  (* event buffers, filled by the functional hooks in program order
     with no per-instruction allocation: fired flag and address, plus
     the fired bitmask and fired count folded into the same pass *)
  mutable ev_fired : bool array;
  mutable ev_addr : int array;
  mutable ev_mask : int array;
  mutable ev_n : int;
  mutable ev_fired_n : int;
  (* reused per-block scratch (hot path): the slot-indexed
     operand-availability table, completion and producer index
     (-1 = external input with the hop folded in) *)
  mutable avail_c : int array;
  mutable avail_p : int array;
  mutable prev_dispatch_end : int;
  mutable last_commit : int;
  commit_ring : int array;  (* commit times of the last [window] blocks *)
  mutable block_index : int;
  mutable redirect_at : int;  (* earliest next fetch after a misprediction *)
  mutable mispredictions : int;
  mutable instrs_fired : int;
  mutable instrs_fetched : int;
  (* current block instance being accumulated *)
  mutable cur : dblock;
  mutable cur_guard : int;  (* firing exit's guard slot, -1 for none *)
  mutable started : bool;
}

let ring_initial_capacity = 256
let ev_initial_capacity = 256

let make_machine ?(trace = 0) ?(trace_ppf = Fmt.stderr) t cfg =
  let blocks, n_regs = decode cfg in
  {
    t;
    trace = ref trace;
    trace_ppf;
    predictor = Predictor.create ();
    cache = Cache.create ~size_words:t.cache_size_words ~line_words:t.cache_line_words ();
    blocks;
    reg_ready = Array.make n_regs 0;
    ring_tags = Array.make ring_initial_capacity min_int;
    ring_used = Array.make ring_initial_capacity 0;
    ring_mask = ring_initial_capacity - 1;
    ring_grows = 0;
    ev_fired = Array.make ev_initial_capacity false;
    ev_addr = Array.make ev_initial_capacity (-1);
    ev_mask = Array.make ((ev_initial_capacity / 62) + 1) 0;
    ev_n = 0;
    ev_fired_n = 0;
    avail_c = Array.make 128 0;
    avail_p = Array.make 128 (-1);
    prev_dispatch_end = 0;
    last_commit = 0;
    commit_ring = Array.make t.window_blocks 0;
    block_index = 0;
    redirect_at = 0;
    mispredictions = 0;
    instrs_fired = 0;
    instrs_fetched = 0;
    cur = no_block;
    cur_guard = -1;
    started = false;
  }

(* ---- issue allocator ---------------------------------------------------- *)

(* Issue-slot occupancy lives in a ring.  [horizon] is the retiring
   block's dispatch-end: every future probe starts at or after it, so
   smaller tags are dead.  On a live collision the ring is rebuilt at
   the smallest power of two exceeding the live span, which makes
   residues collision-free (any two live tags then differ by less than
   the capacity). *)
let ring_grow m ~horizon ~need =
  let old_tags = m.ring_tags and old_used = m.ring_used in
  let max_tag =
    Array.fold_left (fun acc t -> if t >= horizon then max acc t else acc) need old_tags
  in
  let span = max_tag - horizon + 1 in
  let cap = ref (2 * (m.ring_mask + 1)) in
  while !cap < span + 1 do
    cap := !cap * 2
  done;
  m.ring_tags <- Array.make !cap min_int;
  m.ring_used <- Array.make !cap 0;
  m.ring_mask <- !cap - 1;
  m.ring_grows <- m.ring_grows + 1;
  Array.iteri
    (fun i tag ->
      if tag >= horizon then begin
        let j = tag land m.ring_mask in
        m.ring_tags.(j) <- tag;
        m.ring_used.(j) <- old_used.(i)
      end)
    old_tags

let rec ring_issue m ~horizon c =
  let i = c land m.ring_mask in
  let tag = m.ring_tags.(i) in
  if tag = c then
    if m.ring_used.(i) < m.t.issue_width then begin
      m.ring_used.(i) <- m.ring_used.(i) + 1;
      c
    end
    else ring_issue m ~horizon (c + 1)
  else if tag < horizon then begin
    m.ring_tags.(i) <- c;
    m.ring_used.(i) <- 1;
    c
  end
  else begin
    ring_grow m ~horizon ~need:c;
    ring_issue m ~horizon c
  end

(* ---- placement model ---------------------------------------------------- *)

(* Instructions are placed round-robin across the ALU grid in fetch
   order (the static-placement half of SPDI); operand latency between
   two instructions is the Manhattan distance between their ALUs, so
   dependence chains mapped far apart pay for the operand network, as
   on the real array.  Grid 0 charges a flat hop (optimized SPDI). *)
let hop_between t a b =
  let grid = max 0 t.spatial_grid in
  if grid = 0 then t.operand_hop
  else
    let cell_a = a mod (grid * grid) and cell_b = b mod (grid * grid) in
    let ax, ay = (cell_a mod grid, cell_a / grid) in
    let bx, by = (cell_b mod grid, cell_b / grid) in
    let manhattan = abs (ax - bx) + abs (ay - by) in
    t.operand_hop * max 1 manhattan

(* ---- timing body --------------------------------------------------------- *)

(* Per-signature analysis, computed once from the decoded arrays and the
   live fired flags. *)
let make_sig_info m (db : dblock) ~guard_slot =
  let n_slots = Array.length db.d_regs in
  let defined = Array.make n_slots false and external_ = Array.make n_slots false in
  let ext = ref [] in
  let note_ext s =
    if (not defined.(s)) && not external_.(s) then begin
      external_.(s) <- true;
      ext := s :: !ext
    end
  in
  for idx = 0 to m.ev_n - 1 do
    if m.ev_fired.(idx) then begin
      Array.iter note_ext db.d_uses.(idx);
      Array.iter (fun d -> defined.(d) <- true) db.d_defs.(idx)
    end
  done;
  if guard_slot >= 0 then note_ext guard_slot;
  let ext = Array.of_list (List.rev !ext) in
  let out = List.filter (fun s -> defined.(s)) (List.init n_slots Fun.id) in
  let out = Array.of_list out in
  {
    si_ext_slots = ext;
    si_ext_regs = Array.map (fun s -> db.d_regs.(s)) ext;
    si_out_slots = out;
    si_out_regs = Array.map (fun s -> db.d_regs.(s)) out;
    si_guard_slot = guard_slot;
  }

(* Signature lookup: scan the block's signatures comparing guard and
   mask words against the live buffers — a hit allocates nothing, and
   the per-block lists stay short (one cell per distinct predication
   outcome). *)
let rec mask_eq (stored : int array) (live : int array) words w =
  w >= words || (stored.(w) = live.(w) && mask_eq stored live words (w + 1))

let rec find_sig live words guard_slot = function
  | c :: rest ->
    if c.sc_guard = guard_slot && mask_eq c.sc_mask live words 0 then c.sc_info
    else find_sig live words guard_slot rest
  | [] -> raise Not_found

(* The timing body: look up the instance's signature over the event
   buffers the hooks filled, seed the external inputs, run the issue
   loop (probing the cache in program order), and write every register
   a fired def produced into [reg_ready] (the write never needs the
   commit — a fired def's completion is always known).  Returns
   block-done and branch times. *)
let time_block m ~dispatch_end =
  let t = m.t in
  let db = m.cur in
  let horizon = dispatch_end in
  let n_instrs = m.ev_n in
  let words = Int.max 1 ((n_instrs + 61) / 62) in
  m.instrs_fired <- m.instrs_fired + m.ev_fired_n;
  let guard_slot = m.cur_guard in
  let si =
    match find_sig m.ev_mask words guard_slot db.d_sigs with
    | si -> si
    | exception Not_found ->
      let si = make_sig_info m db ~guard_slot in
      db.d_sigs <-
        { sc_guard = guard_slot; sc_mask = Array.sub m.ev_mask 0 words; sc_info = si }
        :: db.d_sigs;
      si
  in
  let n_slots = Array.length db.d_regs in
  if Array.length m.avail_c < n_slots then begin
    m.avail_c <- Array.make (2 * n_slots) 0;
    m.avail_p <- Array.make (2 * n_slots) (-1)
  end;
  (* every slot an instance reads is seeded here or written by an
     earlier fired def, so the table needs no clearing *)
  let ac = m.avail_c and ap = m.avail_p in
  let ext_slots = si.si_ext_slots and ext_regs = si.si_ext_regs in
  for j = 0 to Array.length ext_slots - 1 do
    let s = ext_slots.(j) in
    ac.(s) <-
      Int.max (dispatch_end + t.reg_read_latency) (m.reg_ready.(ext_regs.(j)) + t.operand_hop);
    ap.(s) <- -1
  done;
  (* a flat grid charges one hop per edge, whatever the producer *)
  let flat = t.spatial_grid <= 0 in
  let input_ready ~consumer_idx s =
    let p = ap.(s) in
    if p < 0 then ac.(s)
    else if flat then ac.(s) + t.operand_hop
    else ac.(s) + hop_between t p consumer_idx
  in
  let block_done = ref dispatch_end in
  for idx = 0 to n_instrs - 1 do
    if m.ev_fired.(idx) then begin
      let ready = ref dispatch_end in
      let us = db.d_uses.(idx) in
      for k = 0 to Array.length us - 1 do
        let r = input_ready ~consumer_idx:idx us.(k) in
        if r > !ready then ready := r
      done;
      let issue = ring_issue m ~horizon !ready in
      let mem = db.d_mem.(idx) and addr = m.ev_addr.(idx) in
      let hit = mem = mem_none || addr < 0 || Cache.access m.cache ~addr in
      let latency =
        if hit || mem = mem_store then db.d_lat.(idx) else db.d_lat.(idx) + t.miss_penalty
      in
      let done_ = issue + latency in
      let ds = db.d_defs.(idx) in
      for k = 0 to Array.length ds - 1 do
        let d = ds.(k) in
        ac.(d) <- done_;
        ap.(d) <- idx
      done;
      if done_ > !block_done then block_done := done_
    end
  done;
  let branch_time =
    if si.si_guard_slot >= 0 then
      input_ready ~consumer_idx:n_instrs si.si_guard_slot
    else dispatch_end
  in
  let out_slots = si.si_out_slots and out_regs = si.si_out_regs in
  for j = 0 to Array.length out_slots - 1 do
    m.reg_ready.(out_regs.(j)) <- ac.(out_slots.(j))
  done;
  (!block_done, branch_time)

(* ---- event intake ------------------------------------------------------- *)

(* Block hook: the one table probe of an instance, and room in the
   event buffers for all its instructions. *)
let ev_enter m id =
  let db = Id_tbl.find m.blocks id in
  let n = Array.length db.d_lat in
  if n > Array.length m.ev_fired then begin
    m.ev_fired <- Array.make n false;
    m.ev_addr <- Array.make n (-1);
    m.ev_mask <- Array.make ((n / 62) + 1) 0
  end
  else begin
    let words = Int.max 1 ((m.ev_n + 61) / 62) in
    Array.fill m.ev_mask 0 words 0
  end;
  m.cur <- db;
  m.cur_guard <- -1;
  m.ev_n <- 0;
  m.ev_fired_n <- 0

(* Instruction hook: record the fired flag and address, folding the
   fired bitmask in.  The cache is probed later, by the issue loop, in
   the same program order. *)
let ev_push m ~fired ~addr =
  let idx = m.ev_n in
  m.ev_fired.(idx) <- fired;
  m.ev_addr.(idx) <- addr;
  m.ev_n <- idx + 1;
  if fired then begin
    m.ev_fired_n <- m.ev_fired_n + 1;
    m.ev_mask.(idx / 62) <- m.ev_mask.(idx / 62) lor (1 lsl (idx mod 62))
  end

(* Exit hook: the firing exit's guard slot, found among the block's few
   distinct guard registers. *)
let ev_exit m (e : Block.exit_) =
  match e.Block.eguard with
  | None -> m.cur_guard <- -1
  | Some g ->
    let db = m.cur in
    let k = ref 0 in
    while db.d_guard_regs.(!k) <> g.Instr.greg do
      incr k
    done;
    m.cur_guard <- db.d_guard_slots.(!k)

(* ---- retire -------------------------------------------------------------- *)

(* Retire the accumulated block instance: compute its dispatch, issue and
   commit times, update predictor/window bookkeeping.  [next] is the id of
   the actually-following block, or None at program end.  [attribution]
   receives the instance's fetch/fire counts per lineage class, its
   share of total cycles (the commit-time delta, which partitions the
   run total exactly) and any flush its branch resolution caused. *)
let retire ?attribution m ~next =
  if m.started then begin
    (* watchdog: the retire loop runs once per dynamic block instance;
       polling here bounds the timing model independently of the
       functional driver (whose own poll covers the fetch side) *)
    Trips_obs.Watchdog.check ();
    let t = m.t in
    let n_instrs = m.ev_n in
    let block = m.cur.d_id in
    m.instrs_fetched <- m.instrs_fetched + n_instrs;
    (* window: the (window-1)-blocks-ago commit gates dispatch *)
    let slot = m.block_index mod t.window_blocks in
    let window_gate = m.commit_ring.(slot) in
    let dispatch_start =
      Int.max (Int.max m.prev_dispatch_end m.redirect_at) window_gate
    in
    let dispatch_end =
      dispatch_start + t.block_overhead
      + ((n_instrs + t.fetch_bandwidth - 1) / t.fetch_bandwidth)
    in
    let block_done, branch_time = time_block m ~dispatch_end in
    let commit =
      Int.max (Int.max block_done branch_time) m.last_commit + t.commit_overhead
    in
    if !(m.trace) > 0 then begin
      decr m.trace;
      Fmt.pf m.trace_ppf
        "[trace] b%d n=%d dispatch=%d..%d done=%d branch=%d commit=%d@."
        block n_instrs dispatch_start dispatch_end block_done
        branch_time commit
    end;
    (match attribution with
    | Some a ->
      Attribution.count_execution a ~block;
      for idx = 0 to n_instrs - 1 do
        Attribution.count_instr a ~block m.cur.d_instrs.(idx)
          ~fired:m.ev_fired.(idx)
      done;
      Attribution.add_cycles a ~block (commit - m.last_commit)
    | None -> ());
    m.commit_ring.(slot) <- commit;
    m.last_commit <- commit;
    m.prev_dispatch_end <- dispatch_end;
    m.block_index <- m.block_index + 1;
    (* next-block prediction.  [Predictor.update]'s verdict is the one
       source of truth: it is exactly "the stored target equalled the
       actual successor", which is what a separate predict-then-compare
       would recompute — so flushes always reconcile with the
       predictor's own lookup/hit counters. *)
    (match next with
    | Some actual ->
      let correct = Predictor.update m.predictor ~block ~actual in
      if not correct then begin
        m.mispredictions <- m.mispredictions + 1;
        m.redirect_at <- branch_time + t.flush_penalty;
        match attribution with
        | Some a -> Attribution.add_flush a ~block
        | None -> ()
      end
    | None -> ())
  end

(** Run [cfg] under the timing model.  Functionally identical to
    [Func_sim.run]; additionally reports cycles and microarchitectural
    statistics. *)
let run ?(timing = default_timing) ?(trace = 0) ?trace_ppf ?attribution ?fuel
    ?strict_exits ?registers ~memory cfg : result =
  let m = make_machine ~trace ?trace_ppf timing cfg in
  let hooks =
    {
      Func_sim.on_block =
        (fun id ->
          retire ?attribution m ~next:(Some id);
          m.started <- true;
          ev_enter m id);
      on_instr = (fun _ ~fired ~addr -> ev_push m ~fired ~addr);
      on_exit = (fun e -> ev_exit m e);
    }
  in
  let fr = Func_sim.run ?fuel ?strict_exits ~hooks ?registers ~memory cfg in
  retire ?attribution m ~next:None;
  Trips_obs.Metrics.incr ~by:m.last_commit "sim.cycle.cycles";
  Trips_obs.Metrics.incr ~by:fr.Func_sim.blocks_executed "sim.cycle.commits";
  Trips_obs.Metrics.incr ~by:m.instrs_fetched "sim.cycle.fetched";
  Trips_obs.Metrics.incr ~by:m.instrs_fired "sim.cycle.fired";
  Trips_obs.Metrics.incr ~by:m.mispredictions "sim.cycle.flushes";
  Trips_obs.Metrics.incr ~by:m.ring_grows "sim.cycle.ring.grows";
  (* a per-run sample, not a counter: its max is the largest ring any
     run needed, comparable with one run's cycle count (kept only inside
     a Metrics.with_samples scope) *)
  Trips_obs.Metrics.observe "sim.cycle.ring.capacity"
    (float_of_int (m.ring_mask + 1));
  let lookups, hits = Predictor.counters m.predictor in
  Trips_obs.Metrics.incr ~by:lookups "sim.predictor.lookups";
  Trips_obs.Metrics.incr ~by:hits "sim.predictor.hits";
  let accesses, misses = Cache.counters m.cache in
  Trips_obs.Metrics.incr ~by:accesses "sim.dcache.accesses";
  Trips_obs.Metrics.incr ~by:misses "sim.dcache.misses";
  {
    cycles = m.last_commit;
    blocks = fr.Func_sim.blocks_executed;
    instrs_fired = m.instrs_fired;
    instrs_fetched = m.instrs_fetched;
    mispredictions = m.mispredictions;
    predictor_accuracy = Predictor.accuracy m.predictor;
    cache_miss_rate = Cache.miss_rate m.cache;
    ret = fr.Func_sim.ret;
    checksum = fr.Func_sim.checksum;
  }
