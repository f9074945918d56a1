(** Domain-pool executor: a resident worker pool plus the sweep {!map}.

    {!Pool} is a resident pool of worker domains fed by a shared job
    queue: spawn once, {!Pool.submit} work from any thread, {!Pool.await}
    results individually, {!Pool.shutdown} drains gracefully.  The
    long-running compilation service ([chfc serve]) keeps one pool alive
    across requests; {!map} builds a transient pool per sweep and
    preserves the historical spawn-per-call contract exactly
    (deterministic slot order, per-slot exception isolation,
    [Trace.with_cell] tagging, spawn-failure degradation). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], floored at 1 — the [-j] default. *)

val spawn_limit_for_tests : int option ref
(** Test-only fault injection: when [Some k], the [k+1]-th
    [Domain.spawn] of a pool creation raises, exercising the
    degradation path (already-spawned workers are kept and joined; the
    work completes on whatever domains did start).  [None] in
    production. *)

(** {1 Resident pool} *)

module Pool : sig
  type t

  type 'a job
  (** A submitted computation; await it at most once per waiter (awaiting
      from several threads is safe — completion is broadcast). *)

  val create : ?workers:int -> unit -> t
  (** Spawn [workers] resident domains (default 0).  If a spawn fails
      mid-creation the pool keeps the domains that did start, bumps the
      [engine.spawn_failures] metric, and still guarantees progress:
      {!await} drains the queue on the calling domain when no workers are
      live. *)

  val size : t -> int
  (** Live worker domains (0 after {!shutdown} or full degradation). *)

  val submit : t -> (unit -> 'a) -> 'a job
  (** Enqueue a computation.  Exceptions it raises are captured into the
      job's result — never into a worker.
      @raise Invalid_argument after {!shutdown}. *)

  val await : ?help:bool -> t -> 'a job -> ('a, exn) result
  (** Block until the job completes.  With [help] (default [true]) the
      calling domain runs other queued jobs while it waits, so a caller
      that submits a batch and awaits it acts as the pool's +1 worker;
      with [~help:false] the caller only blocks (what the service's I/O
      threads want).  Helping is forced when the pool has no live
      workers, so await can never deadlock on a degraded pool. *)

  val shutdown : t -> unit
  (** Graceful drain: stop accepting submissions, let workers finish the
      queue (helping from the calling thread), join every domain.
      Idempotent. *)
end

(** {1 Sweep map} *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** [map ~jobs f xs] applies [f] to every element of [xs] on a transient
    pool of [min jobs (length xs) - 1] worker domains plus the calling
    domain (default {!default_jobs}; values < 1 are clamped to 1) and
    returns the results in input order; [~jobs:1] runs sequentially on
    the calling domain.

    Every slot [i] runs inside {!Trips_obs.Trace.with_cell}[ i], so
    trace streams partition deterministically across [jobs] settings.
    A cell that raises becomes [Error exn] in its own slot. *)
