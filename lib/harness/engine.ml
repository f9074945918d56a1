(* Domain-pool executor: a resident worker pool plus the sweep [map].

   Historically every [map] call spawned its own helper domains and tore
   them down on exit.  The pool is now a first-class resident object
   ([Pool]): domains are spawned once, jobs are submitted into a shared
   queue and awaited individually, and the pool drains gracefully on
   shutdown.  The long-running compilation service keeps one pool alive
   across requests; [map] creates a transient pool per sweep, which
   preserves its historical contract exactly:

   - deterministic merge: every result is written into its input's slot
     and slots are awaited in input order, so the output list lines up
     with the input list regardless of which domain ran which cell, and
     [~jobs:1] executes sequentially on the calling domain — bit-identical
     to the pre-engine sweep loops;

   - per-slot exception isolation: a cell that raises becomes [Error exn]
     in its own slot and never disturbs its siblings;

   - cell-coordinate tracing: every slot runs inside
     [Trips_obs.Trace.with_cell i], so trace events carry the coordinate
     [(i, seq)] no matter which domain executed it, and sorting a trace
     by that coordinate yields the same stream for every [~jobs] setting;

   - spawn-failure degradation: if a [Domain.spawn] fails mid-pool the
     already-spawned helpers are kept (and joined on shutdown), an
     [engine.spawn_failures] metric is bumped, and the work still
     completes on the domains that did start — in the worst case on the
     calling domain alone, because [Pool.await] lends a hand draining the
     queue while it waits. *)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Test-only: make the [k+1]-th Domain.spawn of a pool raise, to
   exercise the degradation path.  [None] in production. *)
let spawn_limit_for_tests : int option ref = ref None

let run_one f x = match f x with y -> Ok y | exception e -> Error e

(* ---- resident pool ----------------------------------------------------- *)

module Pool = struct
  type 'a job = {
    jm : Mutex.t;
    jc : Condition.t;
    mutable result : ('a, exn) result option;
  }

  type t = {
    m : Mutex.t;
    nonempty : Condition.t;  (* queue gained a task, or the pool is closing *)
    queue : (unit -> unit) Queue.t;
    mutable closing : bool;
    mutable domains : unit Domain.t list;
    mutable workers : int;
  }

  let size t = t.workers

  let rec worker_loop t =
    Mutex.lock t.m;
    let rec next () =
      match Queue.take_opt t.queue with
      | Some task ->
        Mutex.unlock t.m;
        task ();
        worker_loop t
      | None ->
        if t.closing then Mutex.unlock t.m (* drained: exit *)
        else begin
          Condition.wait t.nonempty t.m;
          next ()
        end
    in
    next ()

  let create ?(workers = 0) () =
    let t =
      {
        m = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        closing = false;
        domains = [];
        workers = 0;
      }
    in
    (try
       for k = 1 to workers do
         (match !spawn_limit_for_tests with
         | Some limit when k > limit -> failwith "engine: spawn limit"
         | _ -> ());
         let d = Domain.spawn (fun () -> worker_loop t) in
         t.domains <- d :: t.domains;
         t.workers <- t.workers + 1
       done
     with _ ->
       (* degrade: keep the domains we have; await's help loop guarantees
          progress even with zero workers *)
       Trips_obs.Metrics.incr "engine.spawn_failures");
    t

  let submit t f =
    let job = { jm = Mutex.create (); jc = Condition.create (); result = None } in
    let task () =
      let r = run_one f () in
      Mutex.lock job.jm;
      job.result <- Some r;
      Condition.broadcast job.jc;
      Mutex.unlock job.jm
    in
    Mutex.lock t.m;
    if t.closing then begin
      Mutex.unlock t.m;
      invalid_arg "Engine.Pool.submit: pool is shut down"
    end;
    Queue.push task t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.m;
    job

  (* Run one queued task on the calling domain, if any. *)
  let try_run_pending t =
    Mutex.lock t.m;
    let task = Queue.take_opt t.queue in
    Mutex.unlock t.m;
    match task with
    | Some task ->
      task ();
      true
    | None -> false

  let peek job = Mutex.protect job.jm (fun () -> job.result)

  let await ?(help = true) t job =
    (* with zero live workers (fully degraded pool) the caller is the
       only domain that can make progress, so helping is mandatory *)
    let help = help || t.workers = 0 in
    let rec loop () =
      match peek job with
      | Some r -> r
      | None ->
        if help && try_run_pending t then loop ()
        else begin
          (* Our job is no longer queued (someone popped it), so it is
             running on another domain: block until its completion
             broadcast.  The result check under the job mutex closes the
             window between the last peek and the wait. *)
          Mutex.lock job.jm;
          while job.result = None do
            Condition.wait job.jc job.jm
          done;
          let r = Option.get job.result in
          Mutex.unlock job.jm;
          r
        end
    in
    loop ()

  let shutdown t =
    Mutex.lock t.m;
    if t.closing then Mutex.unlock t.m
    else begin
      t.closing <- true;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.m;
      (* help drain so queued work completes even with zero workers *)
      while try_run_pending t do
        ()
      done;
      List.iter Domain.join t.domains;
      t.domains <- [];
      t.workers <- 0
    end
end

(* ---- map --------------------------------------------------------------- *)

let map ?jobs (f : 'a -> 'b) (xs : 'a list) : ('b, exn) result list =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let n = List.length xs in
  if jobs = 1 || n <= 1 then
    List.mapi
      (fun i x -> Trips_obs.Trace.with_cell i (fun () -> run_one f x))
      xs
  else begin
    (* transient pool: the calling domain is the +1 worker (it helps
       drain the queue from [await]), so [jobs] domains work in total,
       exactly like the spawn-per-call model *)
    let pool = Pool.create ~workers:(min jobs n - 1) () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        let slots =
          List.mapi
            (fun i x ->
              Pool.submit pool (fun () ->
                  Trips_obs.Trace.with_cell i (fun () -> f x)))
            xs
        in
        (* awaiting in slot order keeps the deterministic merge *)
        List.map (fun job -> Pool.await pool job) slots)
  end
