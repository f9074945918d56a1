(* Reference cycle-level timing model.

   The straightforward formulation of [Cycle_sim]'s timing: every block
   instance keeps its (instruction, fired, address) events in a list,
   operands are looked up in two hashtables per use, the cache is probed
   inline while timing, and issue slots come from a (cycle -> issued)
   hashtable that is never pruned.  [Cycle_sim] computes the same timing
   from blocks decoded once per run into flat arrays (latencies, memory
   kinds, dense register slots), fired flags and addresses recorded per
   instance, external inputs seeded once per instance, and a ring of
   issue slots reclaimed behind the dispatch point.  The window, commit, flush, attribution and trace
   bookkeeping is the same as [Cycle_sim]'s.  It is the executable specification the sim suite
   compares [Cycle_sim.run] against byte for byte; nothing outside the
   tests uses it. *)

open Trips_ir
open Trips_sim

type machine = {
  t : Cycle_sim.timing;
  trace : int ref;  (* block instances still to trace *)
  trace_ppf : Format.formatter;
  predictor : Predictor.t;
  cache : Cache.t;
  reg_ready : (int, int) Hashtbl.t;  (* register -> producer completion *)
  issue_load : (int, int) Hashtbl.t;  (* cycle -> instructions issued *)
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
  mutable cur_events : (Instr.t * bool * int) list;  (* reversed; address -1 for none *)
  mutable cur_exit : Block.exit_ option;
  mutable started : bool;
}

(* Greedy issue-slot search from [ready]. *)
let issue_at m ~ready =
  let rec find c =
    let used = Option.value ~default:0 (Hashtbl.find_opt m.issue_load c) in
    if used < m.t.issue_width then begin
      Hashtbl.replace m.issue_load c (used + 1);
      c
    end
    else find (c + 1)
  in
  find ready

(* Round-robin placement over the ALU grid; grid 0 is a flat hop. *)
let hop_between (t : Cycle_sim.timing) a b =
  let grid = max 0 t.spatial_grid in
  if grid = 0 then t.operand_hop
  else
    let cell_a = a mod (grid * grid) and cell_b = b mod (grid * grid) in
    let ax, ay = (cell_a mod grid, cell_a / grid) in
    let bx, by = (cell_b mod grid, cell_b / grid) in
    let manhattan = abs (ax - bx) + abs (ay - by) in
    t.operand_hop * max 1 manhattan

(* Block-done and branch times plus a closure applying the register
   exports (which, in this formulation, needs the commit). *)
let time_block m ~dispatch_end ~events =
  let t = m.t in
  let local_done : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  (* register -> (completion, producer slot index) *)
  let input_ready ~consumer_idx r =
    match Hashtbl.find_opt local_done r with
    | Some (c, producer_idx) -> c + hop_between t producer_idx consumer_idx
    | None ->
      let produced = Option.value ~default:0 (Hashtbl.find_opt m.reg_ready r) in
      max (dispatch_end + t.reg_read_latency) (produced + t.operand_hop)
  in
  let block_done = ref dispatch_end in
  List.iteri
    (fun idx ((i : Instr.t), fired, addr) ->
      if fired then begin
        m.instrs_fired <- m.instrs_fired + 1;
        let ready =
          List.fold_left
            (fun acc r -> max acc (input_ready ~consumer_idx:idx r))
            dispatch_end (Instr.uses i)
        in
        let issue = issue_at m ~ready in
        let latency =
          Latency.of_op i.Instr.op
          +
          match i.Instr.op with
          | Instr.Load _ when addr >= 0 ->
            if Cache.access m.cache ~addr then 0 else t.miss_penalty
          | Instr.Store _ when addr >= 0 ->
            ignore (Cache.access m.cache ~addr);
            0
          | _ -> 0
        in
        let done_ = issue + latency in
        List.iter
          (fun d -> Hashtbl.replace local_done d (done_, idx))
          (Instr.defs i);
        if done_ > !block_done then block_done := done_
      end)
    events;
  (* branch resolution: the firing exit's guard producer (branches sit
     at the end of the mapped block) *)
  let n_instrs = List.length events in
  let branch_time =
    match m.cur_exit with
    | Some { Block.eguard = Some g; _ } ->
      input_ready ~consumer_idx:n_instrs g.Instr.greg
    | Some { Block.eguard = None; _ } | None -> dispatch_end
  in
  let export ~commit =
    List.iter
      (fun ((i : Instr.t), fired, _) ->
        if fired then
          List.iter
            (fun d ->
              Hashtbl.replace m.reg_ready d
                (match Hashtbl.find_opt local_done d with
                | Some (c, _) -> c
                | None -> commit))
            (Instr.defs i))
      events
  in
  (!block_done, branch_time, export)

let retire ?attribution m ~next =
  if m.started then begin
    let t = m.t in
    let events = List.rev m.cur_events in
    let n_instrs = List.length events in
    m.instrs_fetched <- m.instrs_fetched + n_instrs;
    (* window: the (window-1)-blocks-ago commit gates dispatch *)
    let slot = m.block_index mod t.window_blocks in
    let dispatch_start =
      max (max m.prev_dispatch_end m.redirect_at) m.commit_ring.(slot)
    in
    let dispatch_end =
      dispatch_start + t.block_overhead
      + ((n_instrs + t.fetch_bandwidth - 1) / t.fetch_bandwidth)
    in
    let block_done, branch_time, export = time_block m ~dispatch_end ~events in
    let commit =
      max (max block_done branch_time) m.last_commit + t.commit_overhead
    in
    export ~commit;
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
      List.iter
        (fun ((i : Instr.t), fired, _) ->
          Attribution.count_instr a ~block:m.cur_block i ~fired)
        events;
      Attribution.add_cycles a ~block:m.cur_block (commit - m.last_commit)
    | None -> ());
    m.commit_ring.(slot) <- commit;
    m.last_commit <- commit;
    m.prev_dispatch_end <- dispatch_end;
    m.block_index <- m.block_index + 1;
    match next with
    | Some actual ->
      if not (Predictor.update m.predictor ~block:m.cur_block ~actual) then begin
        m.mispredictions <- m.mispredictions + 1;
        m.redirect_at <- branch_time + t.flush_penalty;
        match attribution with
        | Some a -> Attribution.add_flush a ~block:m.cur_block
        | None -> ()
      end
    | None -> ()
  end

let run ?(timing = Cycle_sim.default_timing) ?(trace = 0) ?(trace_ppf = Fmt.stderr)
    ?attribution ?fuel ?strict_exits ?registers ~memory cfg : Cycle_sim.result =
  let t = timing in
  let m =
    {
      t;
      trace = ref trace;
      trace_ppf;
      predictor = Predictor.create ();
      cache =
        Cache.create ~size_words:t.cache_size_words ~line_words:t.cache_line_words ();
      reg_ready = Hashtbl.create 256;
      issue_load = Hashtbl.create 4096;
      prev_dispatch_end = 0;
      last_commit = 0;
      commit_ring = Array.make t.window_blocks 0;
      block_index = 0;
      redirect_at = 0;
      mispredictions = 0;
      instrs_fired = 0;
      instrs_fetched = 0;
      cur_block = -1;
      cur_events = [];
      cur_exit = None;
      started = false;
    }
  in
  let hooks =
    {
      Func_sim.on_block =
        (fun id ->
          retire ?attribution m ~next:(Some id);
          m.started <- true;
          m.cur_block <- id;
          m.cur_events <- [];
          m.cur_exit <- None);
      on_instr = (fun i ~fired ~addr -> m.cur_events <- (i, fired, addr) :: m.cur_events);
      on_exit = (fun e -> m.cur_exit <- Some e);
    }
  in
  let fr = Func_sim.run ?fuel ?strict_exits ~hooks ?registers ~memory cfg in
  retire ?attribution m ~next:None;
  {
    Cycle_sim.cycles = m.last_commit;
    blocks = fr.Func_sim.blocks_executed;
    instrs_fired = m.instrs_fired;
    instrs_fetched = m.instrs_fetched;
    mispredictions = m.mispredictions;
    predictor_accuracy = Predictor.accuracy m.predictor;
    cache_miss_rate = Cache.miss_rate m.cache;
    ret = fr.Func_sim.ret;
    checksum = fr.Func_sim.checksum;
  }
