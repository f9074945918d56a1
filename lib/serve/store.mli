(** Content-addressed artifact store shared across concurrent requests.

    A store is a mutex-guarded, size-bounded LRU table from a structured
    {!key} — (source digest, stage, configuration digest) — to an
    artifact.  It generalizes the per-sweep [Stage] caches into the
    cache the compilation service shares across {e requests}: two clients
    compiling the same source under the same configuration hit the same
    entry, whichever worker domain serves them.

    Artifacts must be treated as immutable once stored (consumers that
    need to mutate take their own copy, exactly like [Stage.instantiate])
    and the producing computation must be deterministic: under those two
    rules a concurrent double-compute on one key is benign — the second
    insert wins with an identical value — and a cached reply is
    byte-identical to a recomputed one, which is the determinism contract
    [chfc serve] advertises.

    Every store keeps hit/miss/eviction counters (also counted in
    {!Trips_obs.Metrics}, lifetime registry and rolling window, under
    ["store.<name>.hit|miss|eviction"]) so [--cache-stats] and the
    [Stats] protocol request can report shared cache effectiveness. *)

type key = {
  src : string;  (** content digest of the source (e.g. [Stage.content_key]) *)
  stage : string;  (** pipeline stage the artifact belongs to ("prefix", "compile", ...) *)
  config : string;  (** digest of everything else the artifact depends on *)
}

type 'a t

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** current population *)
  capacity : int;  (** LRU bound *)
}

val create : ?capacity:int -> name:string -> unit -> 'a t
(** An empty store bounded to [capacity] entries (default 512, floored at
    1).  [name] labels the metrics and [--cache-stats] lines. *)

val name : 'a t -> string

val find : 'a t -> key -> 'a option
(** Lookup; a hit refreshes the entry's recency. Counts hit or miss. *)

val add : 'a t -> key -> 'a -> unit
(** Insert (or replace) at most-recent position, evicting
    least-recently-used entries beyond capacity.  Does not count a hit or
    a miss. *)

val find_or_add : 'a t -> key -> (key -> 'a) -> 'a
(** [find] then, on a miss, compute {e outside the lock} and [add].
    Concurrent misses on one key both compute; deterministic producers
    make that race benign. *)

val record_miss : 'a t -> unit
(** Count a miss without touching the table — used by pass-through
    ("disabled") cache fronts so cache-on and cache-off runs report
    comparable counters. *)

val counters : 'a t -> counters

val hit_rate : counters -> float
(** hits / (hits + misses), 0 when no lookups happened. *)
