(* Bounded async job scheduler over the resident Engine pool.

   Admission control lives here, execution lives in Engine.Pool, and
   the boundary is deliberate: the pool knows nothing about deadlines or
   load, the scheduler knows nothing about domains or queues.  Every
   overload mode is a structured outcome —

     shed          -> Overloaded {pending; depth}   (at admission)
     deadline      -> Timed_out {deadline; spent}   (cooperative watchdog)
     job raised    -> Crashed exn                   (confined to the job)
     shutting down -> Draining                      (at admission)

   — so a flooded, poisoned or stuck-client daemon degrades request by
   request instead of wedging.

   Counters are classified on the worker domain, in the job wrapper
   itself, which keeps them truthful even when an awaiting client has
   gone away: pending is decremented and completed/timed_out/crashed
   bumped the moment the job finishes, not when somebody looks.

   Telemetry also lives in the wrapper: the request's context (carried
   beside the job) opens a collector when the job is dequeued — queue
   wait now known — is installed domain-locally around the run, and is
   closed with the outcome class the moment it is decided.  The SLO
   sentinel re-reads the rolling window after every completion (and
   every shed), so a degraded daemon notices within one request. *)

module Engine = Trips_harness.Engine
module Watchdog = Trips_obs.Watchdog
module Metrics = Trips_obs.Metrics
module Telemetry = Trips_obs.Telemetry

type 'r outcome =
  | Done of 'r
  | Overloaded of { ov_pending : int; ov_depth : int }
  | Timed_out of { to_deadline_s : float; to_spent_s : float }
  | Crashed of exn
  | Draining

type counters = {
  k_workers : int;
  k_queue_depth : int;
  k_pending : int;
  k_submitted : int;
  k_completed : int;
  k_shed : int;
  k_timed_out : int;
  k_crashed : int;
}

type slo = {
  slo_p99_s : float option;
  slo_error_rate : float option;
}

type ('j, 'r) t = {
  pool : Engine.Pool.t;
  run : 'j -> 'r;
  deadline_of : 'j -> float option;
  ctx_of : 'j -> Telemetry.ctx option;
  kind_of : 'j -> string;
  class_of : 'r -> string;
  slo : slo option;
  default_deadline_s : float option;
  queue_depth : int;
  m : Mutex.t;
  idle : Condition.t;  (* signaled when pending returns to 0 *)
  mutable pending : int;
  mutable submitted : int;
  mutable completed : int;
  mutable shed : int;
  mutable timed_out : int;
  mutable crashed : int;
  mutable degraded : bool;
  mutable draining : bool;
}

type 'r ticket = 'r outcome Engine.Pool.job

let create ?queue_depth ?default_deadline_s ?deadline_of ?ctx_of ?kind_of
    ?class_of ?slo ~workers ~run () =
  let queue_depth =
    match queue_depth with Some d -> max 1 d | None -> 4 * max 1 workers
  in
  {
    pool = Engine.Pool.create ~workers ();
    run;
    deadline_of = Option.value deadline_of ~default:(fun _ -> None);
    ctx_of = Option.value ctx_of ~default:(fun _ -> None);
    kind_of = Option.value kind_of ~default:(fun _ -> "job");
    class_of = Option.value class_of ~default:(fun _ -> "ok");
    slo;
    default_deadline_s;
    queue_depth;
    m = Mutex.create ();
    idle = Condition.create ();
    pending = 0;
    submitted = 0;
    completed = 0;
    shed = 0;
    timed_out = 0;
    crashed = 0;
    degraded = false;
    draining = false;
  }

(* Queue depth and pool utilization are levels, not flows — they go up
   and down — so they live in gauges (stored once; the rolling window's
   snapshot reports them too), published outside the scheduler mutex:
   Metrics has its own lock, and nesting would order them for no
   benefit. *)
let publish_gauges t =
  let pending, workers =
    Mutex.protect t.m (fun () -> (t.pending, Engine.Pool.size t.pool))
  in
  let util =
    if workers = 0 then 0.0
    else Float.min 1.0 (float_of_int pending /. float_of_int workers)
  in
  Metrics.set_gauge "serve.queue.depth" (float_of_int pending);
  Metrics.set_gauge "serve.pool.utilization" util

(* Compare the rolling window against the configured thresholds and flip
   the degraded bit accordingly — in both directions, so the daemon
   recovers once the breaching requests age out of the window.  Only the
   false→true transition counts as a breach event. *)
let evaluate_slo t =
  match t.slo with
  | None -> ()
  | Some slo ->
    let snap = Metrics.Window.snapshot Metrics.window in
    let c name = Metrics.Window.counter_value snap name in
    let ok = c "serve.req.ok" and bad = c "serve.req.bad_request" in
    let errs =
      c "serve.req.failed" + c "serve.req.timed_out" + c "serve.req.crashed"
      + c "serve.req.shed" + c "serve.req.draining"
    in
    let total = ok + bad + errs in
    let lat_breach =
      match (slo.slo_p99_s, Metrics.Window.histogram snap "serve.latency_s") with
      | Some th, Some h -> h.Metrics.h_p99 > th
      | _ -> false
    in
    let err_breach =
      match slo.slo_error_rate with
      | Some th ->
        total > 0 && float_of_int errs /. float_of_int total > th
      | None -> false
    in
    let breached = lat_breach || err_breach in
    let flipped =
      Mutex.protect t.m (fun () ->
          let was = t.degraded in
          t.degraded <- breached;
          breached && not was)
    in
    if flipped then Metrics.incr "serve.slo.breach"

let degraded t = Mutex.protect t.m (fun () -> t.degraded)

(* Run one job on a worker domain and classify its ending.  The watchdog
   scope is installed here — on the executing domain — so the pipeline's
   cooperative [Watchdog.check] polls see it; a [Timed_out] raised by a
   nested stage scope is classified identically.  The telemetry
   collector wraps the same extent, so the watchdog trip, the stage
   spans and the pass events all land in the owning request's trace. *)
let execute t ~queued_at job =
  let queue_wait_s = Float.max 0.0 (Unix.gettimeofday () -. queued_at) in
  let act =
    Telemetry.start (t.ctx_of job) ~kind:(t.kind_of job) ~queue_wait_s
  in
  let finish ~cls outcome counter =
    Telemetry.finish act ~outcome:cls;
    Mutex.protect t.m (fun () ->
        t.pending <- t.pending - 1;
        counter ();
        if t.pending = 0 then Condition.broadcast t.idle);
    publish_gauges t;
    evaluate_slo t;
    outcome
  in
  let deadline_s =
    match t.deadline_of job with
    | Some _ as d -> d
    | None -> t.default_deadline_s
  in
  match
    Telemetry.run act (fun () ->
        match deadline_s with
        | None -> t.run job
        | Some d ->
          Watchdog.run ~deadline_s:d ~stage:"serve" (fun () -> t.run job))
  with
  | r -> finish ~cls:(t.class_of r) (Done r) (fun () -> t.completed <- t.completed + 1)
  | exception Watchdog.Timed_out { wd_reason; wd_spent_s; _ } ->
    let to_deadline_s =
      match wd_reason with
      | Watchdog.Deadline d -> d
      | Watchdog.Fuel _ -> Option.value deadline_s ~default:0.0
    in
    finish ~cls:"timed_out"
      (Timed_out { to_deadline_s; to_spent_s = wd_spent_s })
      (fun () -> t.timed_out <- t.timed_out + 1)
  | exception e ->
    finish ~cls:"crashed" (Crashed e)
      (fun () -> t.crashed <- t.crashed + 1)

let submit t job =
  (* admission and the in-flight count move together under the mutex, so
     the depth bound is exact under concurrent submitters *)
  let queued_at = Unix.gettimeofday () in
  let admitted =
    Mutex.protect t.m (fun () ->
        if t.draining then Error Draining
        else if t.pending >= t.queue_depth then begin
          t.shed <- t.shed + 1;
          Error
            (Overloaded { ov_pending = t.pending; ov_depth = t.queue_depth })
        end
        else begin
          t.pending <- t.pending + 1;
          t.submitted <- t.submitted + 1;
          Ok t.pending
        end)
  in
  match admitted with
  | Error o ->
    (* refusals never reach a worker, so their window accounting — each
       request in exactly one outcome class — happens here *)
    (match o with
    | Overloaded _ -> Metrics.(Window.incr window "serve.req.shed")
    | _ -> Metrics.(Window.incr window "serve.req.draining"));
    evaluate_slo t;
    Error o
  | Ok depth_now -> (
    Metrics.(Window.observe window "serve.queue_depth" (float_of_int depth_now));
    publish_gauges t;
    (* the wrapper never raises, so the pool job always carries an
       outcome; Pool.submit itself can refuse only after shutdown, which
       admission already excluded — but a racing drain loses gracefully *)
    match Engine.Pool.submit t.pool (fun () -> execute t ~queued_at job) with
    | ticket -> Ok ticket
    | exception Invalid_argument _ ->
      Mutex.protect t.m (fun () ->
          t.pending <- t.pending - 1;
          t.submitted <- t.submitted - 1;
          if t.pending = 0 then Condition.broadcast t.idle);
      Error Draining)

let await t ticket =
  match Engine.Pool.await ~help:false t.pool ticket with
  | Ok outcome -> outcome
  | Error e -> Crashed e (* unreachable: [execute] never raises *)

let run_sync t job =
  match submit t job with Error o -> o | Ok ticket -> await t ticket

let counters t =
  Mutex.protect t.m (fun () ->
      {
        k_workers = Engine.Pool.size t.pool;
        k_queue_depth = t.queue_depth;
        k_pending = t.pending;
        k_submitted = t.submitted;
        k_completed = t.completed;
        k_shed = t.shed;
        k_timed_out = t.timed_out;
        k_crashed = t.crashed;
      })

let drain t =
  Mutex.lock t.m;
  t.draining <- true;
  while t.pending > 0 do
    Condition.wait t.idle t.m
  done;
  Mutex.unlock t.m;
  Engine.Pool.shutdown t.pool
