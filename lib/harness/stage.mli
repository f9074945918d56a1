(** Staged compilation with content-keyed prefix caching.

    The pipeline of Figure 6 decomposes into five stages —

    {[ lower -> profile -> formation -> backend -> sim ]}

    — with a typed artifact per stage.  The lower+profile prefix depends
    only on the workload's content and is identical across every phase
    ordering and policy of a sweep, so {!prefix} memoizes it under a
    {!content_key}.  Cached artifacts are immutable: consumers that
    transform the graph take a deep copy via {!instantiate}.  Lowering
    is deterministic, so a cached sweep is byte-identical to an uncached
    one.

    The cache and the per-stage timers are domain-safe and shared
    freely across the {!Engine} pool.  A stage timer records each call
    on its own; nothing sums wall time across domains. *)

open Trips_ir
open Trips_sim
open Trips_workloads

(** {1 Per-stage timing} *)

type stage = Lower | Profile | Formation | Backend | Sim

val time : stage -> (unit -> 'a) -> 'a
(** Run a thunk as one [stage.<name>] span, observing its wall-clock in
    the [stage.time.<name>] histogram (one sample per call, exceptions
    included), under the global watchdog stage policy if one is
    installed. *)

(** {1 Typed per-stage artifacts} *)

type lowered = {
  low_cfg : Cfg.t;
  low_registers : (int * int) list;  (** parameter register bindings *)
}

type profiled = {
  prof_profile : Trips_profile.Profile.t;
  prof_result : Func_sim.result;  (** the profiling run's result *)
}

type prefix = {
  pre_workload : Workload.t;
  pre_key : string;  (** {!content_key} of the workload *)
  pre_master : lowered;  (** never mutated; use {!instantiate} *)
  pre_profiled : profiled;
}

val content_key : Workload.t -> string
(** Digest of the program AST, arguments, memory image and unroll
    factor — everything the lower+profile prefix depends on.  Name and
    description are excluded: identical content shares a prefix. *)

val lower : Workload.t -> lowered
(** Front-end unroll + lowering (timed as {!Lower}).
    @raise Invalid_argument on an unknown parameter binding. *)

val profile : Workload.t -> lowered -> profiled
(** Basic-block profiling run over the lowered CFG (timed as
    {!Profile}); does not mutate the CFG. *)

val instantiate : prefix -> lowered
(** A fresh deep copy of the master lowering, safe to mutate. *)

(** {1 Content-keyed memo cache}

    The cache is a front over the shared content-addressed artifact
    store ({!Trips_store.Store}): {!of_store} hands out a cache view of a
    store owned by someone else (the [chfc serve] daemon shares one
    across every request), while {!create} makes a private store.  Either
    way the store owns the mutex, the LRU bound and the
    hit/miss/eviction counters. *)

type cache

type cache_stats = { cache_hits : int; cache_misses : int }

val create : unit -> cache

val disabled : unit -> cache
(** A cache that never stores: every lookup recomputes and counts as a
    miss.  Lets cache-on and cache-off sweeps share one code path. *)

val of_store : prefix Trips_store.Store.t -> cache
(** A cache view over a shared store; entries (and counters) are shared
    with every other view of the same store. *)

val store_counters : cache -> Trips_store.Store.counters
(** The backing store's counters, including evictions and population —
    the extended [--cache-stats] view. *)

val stats : cache -> cache_stats
val hit_rate : cache_stats -> float

val prefix : ?cache:cache -> Workload.t -> prefix
(** The lower+profile prefix for [w], memoized on {!content_key} when a
    cache is supplied.  Domain-safe; concurrent misses on one key both
    compute (deterministically, so the race is benign). *)
