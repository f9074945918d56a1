(** Staged compilation with two content-keyed artifacts.

    The pipeline of Figure 6 decomposes into five stages —

    {[ lower -> profile -> formation -> backend -> sim ]}

    — with a typed artifact per stage.  Two artifacts depend only on the
    workload's content, never on the phase ordering or policy, so each
    is memoized under a {!content_key}:

    - the lower+profile {!prefix}.  Consumers that transform the graph
      take a deep copy via {!instantiate};
    - the basic-block {!baseline}: the BB functional result and, when
      asked for, the BB cycle result, against which every formed compile
      is checked and measured.  It holds no CFG.

    Cached artifacts are immutable and their producers deterministic, so
    a cached sweep is byte-identical to an uncached one.

    The cache and the per-stage timers are domain-safe and shared
    freely across the {!Engine} pool.  A stage timer records each call
    on its own; nothing sums wall time across domains. *)

open Trips_ir
open Trips_sim
open Trips_workloads

(** {1 Per-stage timing} *)

type stage = Lower | Profile | Formation | Backend | Sim

val time : stage -> (unit -> 'a) -> 'a
(** Run a thunk as one [stage.<name>] span, observing its duration in
    the [stage.time.<name>] histogram (one sample per call, exceptions
    included, kept inside {!Trips_obs.Metrics.with_samples}), under the
    global watchdog stage policy if one is installed. *)

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

type baseline = {
  base_functional : Func_sim.result;  (** the BB functional run *)
  base_cycles : Cycle_sim.result option;
      (** the BB cycle run, present when cycles were asked for *)
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

    The cache is a front over two shared content-addressed artifact
    stores ({!Trips_store.Store}), one for prefixes and one for
    baselines.  Each store owns its mutex, its LRU bound and its
    hit/miss/eviction counters.  The [chfc serve] daemon keeps one cache
    for every request. *)

type cache

type cache_stats = { cache_hits : int; cache_misses : int }

val create : ?capacity:int -> ?name:string -> unit -> cache
(** Fresh stores named [<name>.prefix] and [<name>.baseline] ([name]
    defaults to ["stage"]), each bounded to [capacity] entries (default:
    the store's). *)

val disabled : unit -> cache
(** A cache that never stores: every lookup recomputes and counts as a
    miss.  Lets cache-on and cache-off sweeps share one code path. *)

val store_counters : cache -> (string * Trips_store.Store.counters) list
(** Each backing store's name and counters (hits, misses, evictions,
    population), prefix store first, then baseline store. *)

val stats : cache -> cache_stats
(** Prefix lookups only. *)

val prefix : ?cache:cache -> Workload.t -> prefix
(** The lower+profile prefix for [w], memoized on {!content_key} when a
    cache is supplied.  Domain-safe; concurrent misses on one key both
    compute (deterministically, so the race is benign). *)

val baseline :
  ?cache:cache ->
  backend:bool ->
  cycles:bool ->
  Workload.t ->
  (unit -> baseline) ->
  baseline
(** [baseline ?cache ~backend ~cycles w compute] memoizes [compute ()]
    under ({!content_key} [w], [backend], [cycles]) when a cache is
    supplied.  An exception from [compute] propagates and nothing is
    stored.  {!Pipeline.baseline} is the one producer. *)
