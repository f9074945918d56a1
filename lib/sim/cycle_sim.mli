(** Trace-driven TRIPS cycle-level timing model.

    The functional simulator supplies, per dynamic block instance, which
    instructions fired, the memory addresses touched and the exit that
    fired; this module converts that trace into cycles online.  It
    charges the costs the paper's analysis rests on: per-block mapping
    overhead (the [overhead] term of the Section 7.3 cost equation),
    dataflow issue with operand-network hops and 16-wide contention,
    dataflow predication (nullified instructions never issue; guarded
    instructions wait for their predicate — the bzip2_3 effect),
    speculative next-block fetch with an 8-block window, in-order commit
    and misprediction flushes from branch-resolution time, block commit
    on all-outputs-produced, and a small direct-mapped L1.

    Cross-block register dependences flow through producer completion
    times, keeping loop-carried chains serial no matter how many blocks
    are in flight.

    There is one exact path (DESIGN.md §16): each run decodes the CFG
    once into per-block arrays (latency, memory kind, dense use and def
    slots), and an event-driven core times every block instance from
    them with a bounded ring issue allocator and batched operand wakeup
    — one decoded-block probe per instance, no table probe per
    instruction.  The sim suite byte-compares it against the
    per-instruction reference in test/cycle_oracle.ml. *)

open Trips_ir

type timing = {
  fetch_bandwidth : int;  (** instructions mapped per cycle *)
  block_overhead : int;  (** fixed per-block dispatch/map cost *)
  issue_width : int;
  operand_hop : int;  (** operand-network latency per grid hop *)
  spatial_grid : int;
      (** side of the ALU grid for the unoptimized-placement mode:
          producer-to-consumer latency becomes [operand_hop] times the
          Manhattan distance between round-robin placements.  [0] (the
          default) charges a flat hop per edge, approximating a
          well-optimized SPDI placement; the grid mode quantifies what
          placement quality is worth. *)
  reg_read_latency : int;  (** block-input availability after dispatch *)
  miss_penalty : int;  (** added to a load's latency on L1 miss *)
  flush_penalty : int;  (** misprediction redirect cost *)
  commit_overhead : int;
  window_blocks : int;
  cache_size_words : int;
  cache_line_words : int;
}

val default_timing : timing

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

val run :
  ?timing:timing ->
  ?trace:int ->
  ?trace_ppf:Format.formatter ->
  ?attribution:Attribution.t ->
  ?fuel:int ->
  ?strict_exits:bool ->
  ?registers:(int * int) list ->
  memory:int array ->
  Cfg.t ->
  result
(** Functionally identical to {!Func_sim.run}; additionally reports
    cycles and microarchitectural statistics.  [trace] prints retire
    timing for the first N block instances to [trace_ppf] (default
    stderr).  [attribution] collects per-block,
    per-lineage-class fetch/fire counts, cycle shares (commit-time
    deltas, partitioning the run total) and flushes; attribution never
    changes timing. *)
