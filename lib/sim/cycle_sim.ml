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
   cheap stage of a sweep:

   - an *event-driven issue core*: block events land in flat machine
     buffers straight from the functional hooks (no per-instruction
     allocation), cache probes and the fired bitmask fold into that same
     pass, and issue-slot occupancy lives in a bounded ring whose slots
     are tagged with the absolute cycle they represent.  Cycles below
     the current block's dispatch point are dead by construction (every
     future probe starts at or after it), so stale slots are reclaimed
     lazily by tag comparison and the ring only ever spans the
     in-flight window, not the whole simulated time axis.  Operand
     wakeup is batched: the per-block availability table is seeded once
     with every external input's effective readiness (max of the
     register-read latency and the producer's completion plus a network
     hop — a lossless clamp, since every early-enough producer
     collapses to the same effective time) instead of consulting two
     hash tables per operand use;
   - *memoized block timing*: a block instance is keyed by its
     signature (block id, firing exit's guard register, fired bitmask)
     plus the clamped external-input readiness deltas and the load
     miss pattern.  On a key repeat, the recorded timing replays —
     commit/branch offsets, register exports and issue-slot
     insertions — after verifying that the pre-existing issue
     occupancy over the block's span matches the recording, which
     makes the replay bit-exact (every absolute quantity enters the
     computation only as a difference from the dispatch point). *)

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

(* memo guards: blocks whose issue span outruns the window bound are not
   worth replaying, and a runaway key population stops growing *)
let memo_max_span = 4096
let memo_max_entries = 16384

(* ---- memo tables -------------------------------------------------------- *)

(* Instance signature: everything structural — block id, the firing
   exit's guard register (-1 for none) and the fired bitmask; the mask
   determines the instruction/def/use sequence and the guard the branch
   resolution input, both per-dynamic-instance (predication).  Stored as
   a per-block list probed with inline integer comparisons against the
   live event buffers, so a lookup allocates nothing. *)
type sig_cell = { sc_guard : int; sc_mask : int array; sc_info : sig_info }

(* Instance key under a signature: the numeric inputs.  Deltas are the
   external inputs' effective readiness relative to dispatch-end — the
   clamp at [reg_read_latency] is lossless quantization (any producer
   finishing earlier yields the same effective time).  Miss bits carry
   the load hit/miss pattern the event pass resolved.  Entries live in
   an int-hashed bucket table probed with reusable scratch buffers;
   keys are snapshotted only when a new entry is stored. *)
and inst_key = { ik_deltas : int array; ik_miss : int array }

(* Recorded timing, all relative to dispatch-end: replaying under equal
   keys and equal pre-existing issue occupancy is exact because the
   computation is translation-invariant in absolute time. *)
and memo_entry = {
  e_span : int;  (* issue-occupancy span length *)
  e_pre : int array;  (* pre-existing occupancy over the span *)
  e_iss : int array;  (* this instance's issue insertions *)
  e_done_off : int;  (* block_done - dispatch_end *)
  e_branch_off : int;  (* branch_time - dispatch_end *)
  e_exports : (int * int) array;  (* reg, completion - dispatch_end *)
}

(* Per-signature static analysis.  Registers are renumbered into dense
   slots [0, si_nregs), so the per-instance operand-availability table
   is a pair of flat arrays instead of a hashtable; [si_names] maps a
   slot back to its architectural register for the export side. *)
and sig_info = {
  si_ext : int array;  (* external input registers, first-use order *)
  si_ext_slots : int array;  (* their dense slots, aligned with si_ext *)
  si_names : int array;  (* slot -> architectural register *)
  si_nregs : int;
  si_guard_slot : int;  (* firing exit's guard slot, -1 for none *)
  si_uses : int array array;  (* use slots per fired instruction *)
  si_defs : int array array;  (* def slots per fired instruction *)
  si_entries : (int, (inst_key * memo_entry) list) Hashtbl.t;
      (* int-hashed buckets; collisions resolved by full key compare *)
}

let dummy_instr = Instr.make 0 (Instr.Mov (0, Instr.Imm 0))

(* Mutable per-run machine state. *)
type machine = {
  t : timing;
  trace : int ref;  (* block instances still to trace *)
  trace_ppf : Format.formatter;
  predictor : Predictor.t;
  cache : Cache.t;
  reg_ready : (int, int) Hashtbl.t;  (* register -> producer completion *)
  (* ring allocator: slot [c land ring_mask] holds cycle [ring_tags],
     occupancy [ring_used]; tags below the current dispatch point are
     dead and reclaimed lazily *)
  mutable ring_tags : int array;
  mutable ring_used : int array;
  mutable ring_mask : int;
  mutable ring_grows : int;
  sigs : (int, sig_cell list) Hashtbl.t;  (* block id -> signatures *)
  (* event buffers, filled by the functional hooks in program order
     with no per-instruction allocation: instruction and fired flag,
     plus the fired bitmask, load-miss bits and fired count folded into
     the same pass *)
  mutable ev_ins : Instr.t array;
  mutable ev_fired : bool array;
  mutable ev_mask : int array;
  mutable ev_miss : int array;
  mutable ev_n : int;
  mutable ev_fired_n : int;
  (* reused per-block scratch, cleared instead of reallocated (hot
     path): the slot-indexed operand-availability table (completion and
     producer index; producer -2 = unset, -1 = external input with the
     hop folded in), the issue-cycle buffer, and the memo-key deltas *)
  mutable avail_c : int array;
  mutable avail_p : int array;
  mutable issue_buf : int array;
  mutable issue_n : int;
  mutable delta_buf : int array;
  mutable memo_entries : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable prev_dispatch_end : int;
  mutable last_commit : int;
  commit_ring : int array;  (* commit times of the last [window] blocks *)
  mutable block_index : int;
  mutable redirect_at : int;  (* earliest next fetch after a misprediction *)
  mutable mispredictions : int;
  mutable instrs_fired : int;
  mutable instrs_fetched : int;
  (* current block instance being accumulated *)
  mutable cur_block : int;
  mutable cur_exit : Block.exit_ option;
  mutable started : bool;
}

let ring_initial_capacity = 256
let ev_initial_capacity = 256

let make_machine ?(trace = 0) ?(trace_ppf = Fmt.stderr) t =
  {
    t;
    trace = ref trace;
    trace_ppf;
    predictor = Predictor.create ();
    cache = Cache.create ~size_words:t.cache_size_words ~line_words:t.cache_line_words ();
    reg_ready = Hashtbl.create 256;
    ring_tags = Array.make ring_initial_capacity min_int;
    ring_used = Array.make ring_initial_capacity 0;
    ring_mask = ring_initial_capacity - 1;
    ring_grows = 0;
    sigs = Hashtbl.create 64;
    ev_ins = Array.make ev_initial_capacity dummy_instr;
    ev_fired = Array.make ev_initial_capacity false;
    ev_mask = Array.make ((ev_initial_capacity / 62) + 1) 0;
    ev_miss = Array.make ((ev_initial_capacity / 62) + 1) 0;
    ev_n = 0;
    ev_fired_n = 0;
    avail_c = Array.make 128 0;
    avail_p = Array.make 128 (-2);
    issue_buf = Array.make 128 0;
    issue_n = 0;
    delta_buf = Array.make 64 0;
    memo_entries = 0;
    memo_hits = 0;
    memo_misses = 0;
    prev_dispatch_end = 0;
    last_commit = 0;
    commit_ring = Array.make t.window_blocks 0;
    block_index = 0;
    redirect_at = 0;
    mispredictions = 0;
    instrs_fired = 0;
    instrs_fetched = 0;
    cur_block = -1;
    cur_exit = None;
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

let ring_load m c =
  let i = c land m.ring_mask in
  if m.ring_tags.(i) = c then m.ring_used.(i) else 0

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

let rec ring_add m ~horizon c n =
  let i = c land m.ring_mask in
  let tag = m.ring_tags.(i) in
  if tag = c then m.ring_used.(i) <- m.ring_used.(i) + n
  else if tag < horizon then begin
    m.ring_tags.(i) <- c;
    m.ring_used.(i) <- n
  end
  else begin
    ring_grow m ~horizon ~need:c;
    ring_add m ~horizon c n
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

(* Hot-path hashtable read without the [find_opt] option allocation. *)
let ht_find0 tbl k =
  match Hashtbl.find tbl k with v -> v | exception Not_found -> 0

let bit_set words idx = words.(idx / 62) land (1 lsl (idx mod 62)) <> 0

(* Per-signature static analysis, computed once: dense register
   renumbering, each fired instruction's use/def slots as arrays (no
   per-instance list allocation), and which registers the instance
   reads from outside — a use with no earlier *fired* def, in
   first-use order, including the firing exit's guard.  Determined by
   the signature (block, fired mask, guard). *)
let make_sig_info m ~guard_reg =
  let n = m.ev_n in
  let uses = Array.make n [||] in
  let defs = Array.make n [||] in
  let slot_of = Hashtbl.create 32 in
  let names = ref [] in
  let nregs = ref 0 in
  let slot r =
    match Hashtbl.find slot_of r with
    | s -> s
    | exception Not_found ->
      let s = !nregs in
      Hashtbl.add slot_of r s;
      names := r :: !names;
      incr nregs;
      s
  in
  let defined = Hashtbl.create 32 in
  let ext_set = Hashtbl.create 16 in
  let ext = ref [] in
  let ext_slots = ref [] in
  let note_ext r s =
    if (not (Hashtbl.mem defined r)) && not (Hashtbl.mem ext_set r) then begin
      Hashtbl.add ext_set r ();
      ext := r :: !ext;
      ext_slots := s :: !ext_slots
    end
  in
  for idx = 0 to n - 1 do
    if m.ev_fired.(idx) then begin
      let i = m.ev_ins.(idx) in
      let us = Instr.uses i and ds = Instr.defs i in
      uses.(idx) <-
        Array.of_list
          (List.map
             (fun r ->
               let s = slot r in
               note_ext r s;
               s)
             us);
      defs.(idx) <- Array.of_list (List.map slot ds);
      List.iter (fun d -> Hashtbl.replace defined d ()) ds
    end
  done;
  let guard_slot =
    if guard_reg >= 0 then begin
      let s = slot guard_reg in
      note_ext guard_reg s;
      s
    end
    else -1
  in
  {
    si_ext = Array.of_list (List.rev !ext);
    si_ext_slots = Array.of_list (List.rev !ext_slots);
    si_names = Array.of_list (List.rev !names);
    si_nregs = !nregs;
    si_guard_slot = guard_slot;
    si_uses = uses;
    si_defs = defs;
    si_entries = Hashtbl.create 8;
  }

let apply_exports m ~dispatch_end (exports : (int * int) array) =
  Array.iter
    (fun (r, off) -> Hashtbl.replace m.reg_ready r (dispatch_end + off))
    exports

let push_issue m c =
  if m.issue_n = Array.length m.issue_buf then begin
    let bigger = Array.make (2 * m.issue_n) 0 in
    Array.blit m.issue_buf 0 bigger 0 m.issue_n;
    m.issue_buf <- bigger
  end;
  m.issue_buf.(m.issue_n) <- c;
  m.issue_n <- m.issue_n + 1

(* Full timing computation with batched wakeup; returns the
   recorded entry.  [deltas] are the external readiness offsets already
   gathered for the memo key, so the availability table is seeded from
   them — one lookup per external register per block, not per use. *)
let compute_entry m ~dispatch_end ~(si : sig_info) ~deltas =
  let t = m.t in
  let horizon = dispatch_end in
  let n_instrs = m.ev_n in
  let nregs = si.si_nregs in
  if Array.length m.avail_c < nregs then begin
    m.avail_c <- Array.make (2 * nregs) 0;
    m.avail_p <- Array.make (2 * nregs) (-2)
  end;
  let ac = m.avail_c and ap = m.avail_p in
  Array.fill ap 0 nregs (-2);
  Array.iteri
    (fun j s ->
      ac.(s) <- dispatch_end + deltas.(j);
      ap.(s) <- -1)
    si.si_ext_slots;
  let input_ready ~consumer_idx s =
    let p = ap.(s) in
    if p = -1 then ac.(s)
    else if p >= 0 then ac.(s) + hop_between t p consumer_idx
    else
      (* unreachable by construction of [si_ext]; kept total *)
      max (dispatch_end + t.reg_read_latency)
        (ht_find0 m.reg_ready si.si_names.(s) + t.operand_hop)
  in
  let block_done = ref dispatch_end in
  m.issue_n <- 0;
  let max_issue = ref (dispatch_end - 1) in
  for idx = 0 to n_instrs - 1 do
    if m.ev_fired.(idx) then begin
      let ready = ref dispatch_end in
      let us = si.si_uses.(idx) in
      for k = 0 to Array.length us - 1 do
        let r = input_ready ~consumer_idx:idx us.(k) in
        if r > !ready then ready := r
      done;
      let issue = ring_issue m ~horizon !ready in
      push_issue m issue;
      if issue > !max_issue then max_issue := issue;
      let latency =
        Latency.of_op m.ev_ins.(idx).Instr.op
        + (if bit_set m.ev_miss idx then t.miss_penalty else 0)
      in
      let done_ = issue + latency in
      let ds = si.si_defs.(idx) in
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
  (* exports: every slot a fired def finally wrote (producer >= 0), in
     slot order — order is irrelevant, each register appears once *)
  let nexp = ref 0 in
  for s = 0 to nregs - 1 do
    if ap.(s) >= 0 then incr nexp
  done;
  let exports = Array.make !nexp (0, 0) in
  let k = ref 0 in
  for s = 0 to nregs - 1 do
    if ap.(s) >= 0 then begin
      exports.(!k) <- (si.si_names.(s), ac.(s) - dispatch_end);
      incr k
    end
  done;
  apply_exports m ~dispatch_end exports;
  let span = if m.issue_n = 0 then 0 else !max_issue - dispatch_end + 1 in
  let full = span <= memo_max_span in
  let iss = Array.make (if full then span else 0) 0 in
  if full then
    for k = 0 to m.issue_n - 1 do
      let c = m.issue_buf.(k) - dispatch_end in
      iss.(c) <- iss.(c) + 1
    done;
  let pre =
    if full then
      Array.init span (fun k -> ring_load m (dispatch_end + k) - iss.(k))
    else [||]
  in
  let entry =
    {
      e_span = (if full then span else 0);
      e_pre = pre;
      e_iss = iss;
      e_done_off = !block_done - dispatch_end;
      e_branch_off = branch_time - dispatch_end;
      e_exports = exports;
    }
  in
  (entry, full)

(* The timing body: signature lookup over the event buffers the hooks
   filled, then memo replay or full computation.  Returns block-done and
   branch times; exports are applied inside (they never need the commit
   — a fired def's completion is always recorded). *)
let time_block m ~dispatch_end =
  let t = m.t in
  let horizon = dispatch_end in
  let words = max 1 ((m.ev_n + 61) / 62) in
  m.instrs_fired <- m.instrs_fired + m.ev_fired_n;
  let guard_reg =
    match m.cur_exit with
    | Some { Block.eguard = Some g; _ } -> g.Instr.greg
    | Some { Block.eguard = None; _ } | None -> -1
  in
  (* signature lookup: scan this block's signatures comparing guard and
     mask words against the live buffers — a hit allocates nothing, and
     the per-block lists stay short (one cell per distinct predication
     outcome) *)
  let mask_eq stored =
    let rec go w = w >= words || (stored.(w) = m.ev_mask.(w) && go (w + 1)) in
    go 0
  in
  let cells =
    match Hashtbl.find m.sigs m.cur_block with
    | l -> l
    | exception Not_found -> []
  in
  let si =
    let rec scan = function
      | c :: rest ->
        if c.sc_guard = guard_reg && mask_eq c.sc_mask then c.sc_info
        else scan rest
      | [] ->
        let si = make_sig_info m ~guard_reg in
        Hashtbl.replace m.sigs m.cur_block
          ({ sc_guard = guard_reg;
             sc_mask = Array.sub m.ev_mask 0 words;
             sc_info = si }
          :: cells);
        si
    in
    scan cells
  in
  (* memo-key deltas into the reusable scratch buffer, folding the
     bucket hash along the way; key arrays are only materialized when a
     new entry is stored *)
  let ext_n = Array.length si.si_ext in
  if Array.length m.delta_buf < ext_n then
    m.delta_buf <- Array.make (2 * ext_n) 0;
  let db = m.delta_buf in
  let h = ref 0 in
  for j = 0 to ext_n - 1 do
    let d =
      max t.reg_read_latency
        (ht_find0 m.reg_ready si.si_ext.(j) + t.operand_hop - dispatch_end)
    in
    db.(j) <- d;
    h := (!h * 31) + d
  done;
  for w = 0 to words - 1 do
    h := (!h * 31) + m.ev_miss.(w)
  done;
  let h = !h land max_int in
  let key_eq (k : inst_key) =
    Array.length k.ik_deltas = ext_n
    && (let rec go j = j >= ext_n || (k.ik_deltas.(j) = db.(j) && go (j + 1)) in
        go 0)
    && (let rec go w =
          w >= words || (k.ik_miss.(w) = m.ev_miss.(w) && go (w + 1))
        in
        go 0)
  in
  let bucket =
    match Hashtbl.find si.si_entries h with
    | l -> l
    | exception Not_found -> []
  in
  let cached =
    let rec scan = function
      | ((k, _) as p) :: rest -> if key_eq k then Some p else scan rest
      | [] -> None
    in
    scan bucket
  in
  let replayed =
    match cached with
    | Some (_, e) ->
      (* bit-exact only if the pre-existing occupancy over the recorded
         span matches the recording *)
      let ok = ref true in
      (try
         for k = 0 to e.e_span - 1 do
           if ring_load m (dispatch_end + k) <> e.e_pre.(k) then begin
             ok := false;
             raise Exit
           end
         done
       with Exit -> ());
      if !ok then Some e else None
    | None -> None
  in
  let entry =
    match replayed with
    | Some e ->
      m.memo_hits <- m.memo_hits + 1;
      for k = 0 to e.e_span - 1 do
        if e.e_iss.(k) > 0 then ring_add m ~horizon (dispatch_end + k) e.e_iss.(k)
      done;
      apply_exports m ~dispatch_end e.e_exports;
      e
    | None ->
      m.memo_misses <- m.memo_misses + 1;
      let entry, full = compute_entry m ~dispatch_end ~si ~deltas:db in
      if full && m.memo_entries < memo_max_entries then begin
        let ik =
          { ik_deltas = Array.sub db 0 ext_n; ik_miss = Array.sub m.ev_miss 0 words }
        in
        match cached with
        | Some (k0, _) ->
          (* stale recording under this key (occupancy drifted): swap it
             out in place, the key population is unchanged *)
          Hashtbl.replace si.si_entries h
            ((ik, entry) :: List.filter (fun (k, _) -> k != k0) bucket)
        | None ->
          Hashtbl.replace si.si_entries h ((ik, entry) :: bucket);
          m.memo_entries <- m.memo_entries + 1
      end;
      entry
  in
  (dispatch_end + entry.e_done_off, dispatch_end + entry.e_branch_off)

(* ---- event intake ------------------------------------------------------- *)

(* Instruction hook: append to the flat buffers, fold the fired bitmask
   in, and resolve cache accesses right here — the hooks fire in program
   order, exactly the order a per-instruction timing loop probes the
   cache in, and cache state never feeds back into functional execution,
   so probing early is byte-identical. *)
let ev_push m i ~fired ~addr =
  let idx = m.ev_n in
  if idx = Array.length m.ev_ins then begin
    let cap = 2 * idx in
    let ins = Array.make cap dummy_instr in
    let frd = Array.make cap false in
    let msk = Array.make ((cap / 62) + 1) 0 in
    let mis = Array.make ((cap / 62) + 1) 0 in
    Array.blit m.ev_ins 0 ins 0 idx;
    Array.blit m.ev_fired 0 frd 0 idx;
    Array.blit m.ev_mask 0 msk 0 (Array.length m.ev_mask);
    Array.blit m.ev_miss 0 mis 0 (Array.length m.ev_miss);
    m.ev_ins <- ins;
    m.ev_fired <- frd;
    m.ev_mask <- msk;
    m.ev_miss <- mis
  end;
  m.ev_ins.(idx) <- i;
  m.ev_fired.(idx) <- fired;
  m.ev_n <- idx + 1;
  if fired then begin
    m.ev_fired_n <- m.ev_fired_n + 1;
    m.ev_mask.(idx / 62) <- m.ev_mask.(idx / 62) lor (1 lsl (idx mod 62));
    match i.Instr.op with
    | Instr.Load _ when addr >= 0 ->
      if not (Cache.access m.cache ~addr) then
        m.ev_miss.(idx / 62) <- m.ev_miss.(idx / 62) lor (1 lsl (idx mod 62))
    | Instr.Store _ when addr >= 0 -> ignore (Cache.access m.cache ~addr)
    | _ -> ()
  end

let ev_reset m =
  let words = max 1 ((m.ev_n + 61) / 62) in
  Array.fill m.ev_mask 0 words 0;
  Array.fill m.ev_miss 0 words 0;
  m.ev_n <- 0;
  m.ev_fired_n <- 0

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
    m.instrs_fetched <- m.instrs_fetched + n_instrs;
    (* window: the (window-1)-blocks-ago commit gates dispatch *)
    let slot = m.block_index mod t.window_blocks in
    let window_gate = m.commit_ring.(slot) in
    let dispatch_start =
      max (max m.prev_dispatch_end m.redirect_at) window_gate
    in
    let dispatch_end =
      dispatch_start + t.block_overhead
      + ((n_instrs + t.fetch_bandwidth - 1) / t.fetch_bandwidth)
    in
    let block_done, branch_time = time_block m ~dispatch_end in
    let commit =
      max (max block_done branch_time) m.last_commit + t.commit_overhead
    in
    if !(m.trace) > 0 then begin
      decr m.trace;
      Fmt.pf m.trace_ppf
        "[trace] b%d n=%d dispatch=%d..%d done=%d branch=%d commit=%d@."
        m.cur_block n_instrs dispatch_start dispatch_end block_done
        branch_time commit
    end;
    (match attribution with
    | Some a ->
      Attribution.count_execution a ~block:m.cur_block;
      for idx = 0 to m.ev_n - 1 do
        Attribution.count_instr a ~block:m.cur_block m.ev_ins.(idx)
          ~fired:m.ev_fired.(idx)
      done;
      Attribution.add_cycles a ~block:m.cur_block (commit - m.last_commit)
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
      let correct = Predictor.update m.predictor ~block:m.cur_block ~actual in
      if not correct then begin
        m.mispredictions <- m.mispredictions + 1;
        m.redirect_at <- branch_time + t.flush_penalty;
        match attribution with
        | Some a -> Attribution.add_flush a ~block:m.cur_block
        | None -> ()
      end
    | None -> ())
  end

(** Run [cfg] under the timing model.  Functionally identical to
    [Func_sim.run]; additionally reports cycles and microarchitectural
    statistics. *)
let run ?(timing = default_timing) ?(trace = 0) ?trace_ppf ?attribution ?fuel
    ?strict_exits ?registers ~memory cfg : result =
  let m = make_machine ~trace ?trace_ppf timing in
  let hooks =
    {
      Func_sim.on_block =
        (fun id ->
          retire ?attribution m ~next:(Some id);
          m.started <- true;
          m.cur_block <- id;
          ev_reset m;
          m.cur_exit <- None);
      on_instr = (fun i ~fired ~addr -> ev_push m i ~fired ~addr);
      on_exit = (fun e -> m.cur_exit <- Some e);
    }
  in
  let fr = Func_sim.run ?fuel ?strict_exits ~hooks ?registers ~memory cfg in
  retire ?attribution m ~next:None;
  Trips_obs.Metrics.incr ~by:m.last_commit "sim.cycle.cycles";
  Trips_obs.Metrics.incr ~by:fr.Func_sim.blocks_executed "sim.cycle.commits";
  Trips_obs.Metrics.incr ~by:m.instrs_fetched "sim.cycle.fetched";
  Trips_obs.Metrics.incr ~by:m.instrs_fired "sim.cycle.fired";
  Trips_obs.Metrics.incr ~by:m.mispredictions "sim.cycle.flushes";
  Trips_obs.Metrics.incr ~by:m.memo_hits "sim.cycle.memo.hits";
  Trips_obs.Metrics.incr ~by:m.memo_misses "sim.cycle.memo.misses";
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
