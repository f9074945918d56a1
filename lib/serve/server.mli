(** The [chfc serve] daemon: socket front end, scheduler, worker pool.

    {!start} binds a Unix-domain socket and returns immediately; an
    accept thread hands each connection to its own handler thread, which
    reads {!Protocol} frames and answers each request with one
    exhaustive match on {!Protocol.request}: the job requests
    ([Compile], [Report], [Sweep_cell]) go whole through the bounded
    {!Scheduler} onto the resident worker-domain pool, which runs them
    with {!Worker.run}; [Stats], [Trace_of] and [Shutdown] are answered
    inline.  A frame that does not decode gets a structured error reply
    and the connection is closed.

    Both artifact stores (lower+profile prefixes, rendered outputs) are
    shared across every connection and worker domain.

    Shutdown — a [Shutdown] request, or {!stop} in process — is
    acknowledged first, then the daemon stops accepting, drains admitted
    jobs, joins the pool and removes the socket; {!wait} returns when
    that has finished. *)

type t

val start :
  ?workers:int ->
  ?queue_depth:int ->
  ?default_deadline_s:float ->
  ?store_capacity:int ->
  ?slo_p99_s:float ->
  ?slo_error_rate:float ->
  ?trace_ring:int ->
  ?quiet:bool ->
  socket:string ->
  unit ->
  t
(** Defaults: [workers] = {!Trips_harness.Engine.default_jobs},
    [queue_depth] = [4 * workers], no default deadline,
    [store_capacity] = the store's default, [quiet] = false.  A stale
    socket file from a dead daemon is unlinked before binding.

    [slo_p99_s] / [slo_error_rate] arm the scheduler's SLO sentinel
    (see {!Scheduler.slo}); [trace_ring] resizes the bounded ring of
    finished request traces (default 64).
    @raise Unix.Unix_error naming [socket] when it cannot be bound. *)

val stats : t -> Protocol.stats_payload

val stop : t -> unit
(** Initiate shutdown from within the process (idempotent; also what a
    [Shutdown] request triggers). *)

val wait : t -> unit
(** Block until shutdown has completed (socket closed and removed,
    scheduler drained, pool joined). *)
