(* The chfc serve daemon: socket front end, scheduler, worker pool.

   Thread/domain split: systhreads do the I/O (one accept thread, one
   thread per connection — they block on sockets and on job completion),
   domains do the compiling (the scheduler's resident Engine pool).  A
   connection thread never steals pool work; it parks in
   [Scheduler.await ~help:false] so a slow client can't capture a
   compile domain.

   Shutdown sequencing: the Shutdown ack is written by the connection
   thread *before* teardown begins (its arm in [answer] is a no-op and
   the connection loop initiates after flushing the reply), then the
   accept loop is woken by a self-connect poke, stops accepting, drains
   the scheduler, joins the pool, closes and unlinks the socket, and
   broadcasts completion to [wait]. *)

module Store = Trips_store.Store
module Engine = Trips_harness.Engine
module Stage = Trips_harness.Stage
module Telemetry = Trips_obs.Telemetry
module Metrics = Trips_obs.Metrics

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  sched :
    ( Protocol.output Protocol.request * Telemetry.ctx option,
      Protocol.output )
    Scheduler.t;
  worker : Worker.t;
  started_at : float;
  quiet : bool;
  stopping : bool Atomic.t;
  fm : Mutex.t;
  fc : Condition.t;
  mutable finished : bool;
}

let stats t =
  let k = Scheduler.counters t.sched in
  let store name (c : Store.counters) =
    {
      Protocol.sc_name = name;
      sc_hits = c.Store.hits;
      sc_misses = c.Store.misses;
      sc_evictions = c.Store.evictions;
      sc_entries = c.Store.entries;
      sc_capacity = c.Store.capacity;
    }
  in
  {
    Protocol.st_version = Protocol.version;
    st_uptime_s = Trips_obs.Clock.now () -. t.started_at;
    st_workers = k.Scheduler.k_workers;
    st_queue_depth = k.Scheduler.k_queue_depth;
    st_pending = k.Scheduler.k_pending;
    st_submitted = k.Scheduler.k_submitted;
    st_completed = k.Scheduler.k_completed;
    st_shed = k.Scheduler.k_shed;
    st_timed_out = k.Scheduler.k_timed_out;
    st_crashed = k.Scheduler.k_crashed;
    st_stores =
      List.map
        (fun (name, c) -> store name c)
        (Stage.store_counters (Worker.cache t.worker))
      @ [ store "serve.output" (Store.counters (Worker.output_store t.worker)) ];
    st_degraded = Scheduler.degraded t.sched;
    st_window = Metrics.Window.snapshot Metrics.window;
  }

(* Every scheduler outcome is a structured reply.  The worker classifies
   every pipeline failure itself, so a crash is a raise it does not
   classify (the chaos poison), confined to its own Compile_failed
   answer. *)
let output_of_outcome : Protocol.output Scheduler.outcome -> Protocol.output =
  function
  | Scheduler.Done o -> o
  | Scheduler.Overloaded { ov_pending; ov_depth } ->
    Error (Protocol.Overloaded { ov_pending; ov_depth })
  | Scheduler.Timed_out { to_deadline_s; to_spent_s } ->
    Error
      (Protocol.Timed_out
         { te_deadline_s = to_deadline_s; te_spent_s = to_spent_s })
  | Scheduler.Crashed e -> Error (Protocol.Compile_failed (Printexc.to_string e))
  | Scheduler.Draining -> Error Protocol.Draining

(* Wake the accept loop so it notices [stopping]. *)
let poke t =
  try
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX t.socket_path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    Unix.close fd
  with _ -> () (* accept loop already gone: nothing to wake *)

let initiate t = if Atomic.compare_and_set t.stopping false true then poke t

(* Job requests go through the scheduler onto the pool; control
   requests are answered here.  One arm per constructor: an or-pattern
   would not refine [a] to [output]. *)
let answer : type a. t -> Telemetry.ctx option -> a Protocol.request -> a =
 fun t ctx req ->
  let job req = output_of_outcome (Scheduler.run_sync t.sched (req, ctx)) in
  match req with
  | Protocol.Compile _ -> job req
  | Protocol.Report _ -> job req
  | Protocol.Sweep_cell _ -> job req
  | Protocol.Stats -> stats t
  | Protocol.Trace_of id -> Telemetry.find id
  (* ack first: the connection loop initiates after the reply has been
     flushed, so the shutdown client always hears back *)
  | Protocol.Shutdown -> ()

let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match Protocol.read_request ic with
    | ctx, wire -> (
      match Protocol.request_of_wire wire with
      | Protocol.Packed req ->
        let reply =
          match answer t ctx req with
          | v -> Protocol.reply_to_wire req v
          | exception e -> Protocol.error_reply (Printexc.to_string e)
        in
        let delivered =
          match Protocol.write_reply oc reply with
          | () -> true
          | exception (Sys_error _ | Unix.Unix_error _) -> false
        in
        (match req with
        | Protocol.Shutdown -> initiate t
        | _ -> if delivered then loop ()))
    (* a peer that hung up, before or after its request, ends the
       connection quietly; an undelivered reply ends it too *)
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
    | exception Protocol.Protocol_error msg -> (
      (* a skewed, alien or garbled peer: answer structurally, then hang
         up *)
      try Protocol.write_reply oc (Protocol.error_reply msg)
      with Sys_error _ | Unix.Unix_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      try close_out oc with Sys_error _ | Unix.Unix_error _ -> ())
    loop

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      match Unix.accept t.listen_fd with
      | fd, _ ->
        if Atomic.get t.stopping then (
          (* the self-connect poke (or a client racing shutdown) *)
          try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          ignore (Thread.create (fun () -> handle_conn t fd) ());
          loop ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  loop ();
  Scheduler.drain t.sched;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ());
  if not t.quiet then
    Fmt.epr "serve: drained, socket %s removed@." t.socket_path;
  Mutex.protect t.fm (fun () ->
      t.finished <- true;
      Condition.broadcast t.fc)

let start ?workers ?queue_depth ?default_deadline_s ?store_capacity
    ?slo_p99_s ?slo_error_rate ?trace_ring ?(quiet = false) ~socket () =
  (* a client hanging up mid-reply must be an EPIPE on its connection
     thread, not a fatal signal for the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let workers =
    match workers with Some w -> max 1 w | None -> Engine.default_jobs ()
  in
  let cache = Stage.create ?capacity:store_capacity ~name:"serve" () in
  let output_store =
    Store.create ?capacity:store_capacity ~name:"serve.output" ()
  in
  let worker = Worker.create ~cache ~output_store () in
  (match trace_ring with
  | Some n -> Telemetry.set_ring_capacity n
  | None -> ());
  let slo =
    match (slo_p99_s, slo_error_rate) with
    | None, None -> None
    | _ ->
      Some { Scheduler.slo_p99_s; slo_error_rate }
  in
  let sched =
    Scheduler.create ?queue_depth ?default_deadline_s
      ~deadline_of:(fun (req, _) -> Protocol.job_deadline req)
      ~ctx_of:snd
      ~kind_of:(fun (req, _) -> Protocol.job_kind req)
      ~class_of:Protocol.output_class ?slo ~workers
      ~run:(fun (req, _) -> Worker.run worker req)
      ()
  in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     if Sys.file_exists socket then Unix.unlink socket;
     Unix.bind listen_fd (Unix.ADDR_UNIX socket);
     Unix.listen listen_fd 64
   with e -> (
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     (* name the socket: bind reports no path of its own *)
     match e with
     | Unix.Unix_error (err, fn, "") -> raise (Unix.Unix_error (err, fn, socket))
     | e -> raise e));
  let t =
    {
      socket_path = socket;
      listen_fd;
      sched;
      worker;
      started_at = Trips_obs.Clock.now ();
      quiet;
      stopping = Atomic.make false;
      fm = Mutex.create ();
      fc = Condition.create ();
      finished = false;
    }
  in
  if not quiet then
    Fmt.epr
      "serve: listening on %s (protocol v%d, %d worker domain(s), depth %d)@."
      socket Protocol.version workers
      (Scheduler.counters sched).Scheduler.k_queue_depth;
  ignore (Thread.create (fun () -> accept_loop t) ());
  t

let stop = initiate

let wait t =
  Mutex.lock t.fm;
  while not t.finished do
    Condition.wait t.fc t.fm
  done;
  Mutex.unlock t.fm
