(** Bounded async job scheduler over the resident {!Trips_harness.Engine.Pool}.

    The scheduler is the daemon's admission layer: connection threads
    submit jobs, worker domains execute them, and every overload mode is
    a structured outcome instead of a wedged daemon —

    - the in-flight bound ([queue_depth]) sheds excess load with
      {!Overloaded} (pending count included, so clients can back off);
    - a per-job wall-clock deadline runs the job under a cooperative
      {!Trips_obs.Watchdog} scope and surfaces expiry as {!Timed_out}
      without poisoning the worker domain;
    - a job that raises is confined to its own {!Crashed} outcome —
      sibling jobs and the pool never observe it;
    - once {!drain} begins, new submissions are refused with
      {!Draining} while admitted jobs run to completion.

    The scheduler is generic in the job and result types so its
    semantics are testable with synthetic jobs; the serve daemon's jobs
    are its [Protocol.output Protocol.request]s, each paired with the
    request's telemetry context, and {!Worker.run} runs them.

    Each outcome is counted once: in {!counters} here, and by outcome
    class in the rolling window ([serve.req.*]). *)

type 'r outcome =
  | Done of 'r
  | Overloaded of { ov_pending : int; ov_depth : int }
      (** shed at admission: in-flight count was at the depth bound *)
  | Timed_out of { to_deadline_s : float; to_spent_s : float }
      (** the job's watchdog budget expired mid-run *)
  | Crashed of exn  (** the job raised; confined to this outcome *)
  | Draining  (** refused: {!drain} had begun *)

type counters = {
  k_workers : int;
  k_queue_depth : int;
  k_pending : int;  (** admitted and not yet completed *)
  k_submitted : int;  (** admitted (sheds and drains excluded) *)
  k_completed : int;
  k_shed : int;
  k_timed_out : int;
  k_crashed : int;
}

type slo = {
  slo_p99_s : float option;
      (** breach when the window's p99 of [serve.latency_s] exceeds this *)
  slo_error_rate : float option;
      (** breach when (failed + timed out + crashed + shed + draining) /
          total over the window exceeds this fraction *)
}
(** Thresholds for the SLO sentinel, evaluated against the rolling
    window after every completion and every refusal.  The degraded bit
    flips in both directions — the daemon recovers once the breaching
    requests age out of the window — and only the false→true transition
    bumps the [serve.slo.breach] metric. *)

type ('j, 'r) t

type 'r ticket
(** An admitted job's handle; redeem with {!await} (at most once). *)

val create :
  ?queue_depth:int ->
  ?default_deadline_s:float ->
  ?deadline_of:('j -> float option) ->
  ?ctx_of:('j -> Trips_obs.Telemetry.ctx option) ->
  ?kind_of:('j -> string) ->
  ?class_of:('r -> string) ->
  ?slo:slo ->
  workers:int ->
  run:('j -> 'r) ->
  unit ->
  ('j, 'r) t
(** [create ~workers ~run ()] spawns a resident pool of [workers]
    domains executing [run].  [queue_depth] (default [4 * max 1
    workers]) bounds jobs in flight — queued plus running.  A job's
    deadline is [deadline_of job] (default: none) falling back to
    [default_deadline_s]; jobs with a deadline run inside
    [Watchdog.run ~stage:"serve"], so the pipeline's cooperative
    {!Trips_obs.Watchdog.check} polls bound them.

    Telemetry: [ctx_of] (default: none) extracts the request context
    carried beside a job; when present, a {!Trips_obs.Telemetry}
    collector is opened at dequeue with the measured queue wait,
    installed around the run, and finished with the outcome class —
    [class_of] (default ["ok"]) classifies a [Done] result, timeouts and
    crashes classify themselves.  [kind_of] names the job kind in the
    trace.  [slo] arms the sentinel (see {!slo}); it reads the daemon's
    rolling window, {!Trips_obs.Metrics.window}. *)

val submit : ('j, 'r) t -> 'j -> ('r ticket, 'r outcome) result
(** Admit a job, or refuse with [Error Overloaded] / [Error Draining].
    Admission and the in-flight count are atomic: at most [queue_depth]
    jobs are in flight at any instant. *)

val await : ('j, 'r) t -> 'r ticket -> 'r outcome
(** Block until the job completes ([Done] / [Timed_out] / [Crashed]).
    The calling thread only blocks — it never steals pool work (it is
    an I/O thread, not a compile domain) — except on a fully degraded
    pool, where the pool runs the job on the awaiting caller. *)

val run_sync : ('j, 'r) t -> 'j -> 'r outcome
(** [submit] + [await] in one call — the connection-thread fast path. *)

val counters : ('j, 'r) t -> counters

val degraded : ('j, 'r) t -> bool
(** The SLO sentinel's current verdict (always false without [slo]). *)

val drain : ('j, 'r) t -> unit
(** Stop admitting, wait for every admitted job to complete, shut the
    pool down (joining its domains).  Idempotent. *)
