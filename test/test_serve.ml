(* Tests for the resident compilation service: wire protocol framing and
   session-type enforcement, the shared content-addressed store (LRU +
   counters + thread safety), the bounded scheduler's structured overload
   modes, end-to-end byte identity over a real socket, and the
   resident-pool-vs-sequential Engine.map equivalence property. *)

module P = Trips_serve.Protocol
module Scheduler = Trips_serve.Scheduler
module Store = Trips_store.Store
module Engine = Trips_harness.Engine
module Watchdog = Trips_obs.Watchdog

let spec =
  {
    P.cs_workload = "sieve";
    cs_ordering = "iupo-merged";
    cs_policy = "bf";
    cs_backend = true;
    cs_verify = false;
    cs_deadline_s = None;
    cs_chaos_seed = None;
  }

(* Run [k] with a connected (in_channel, out_channel) pair over a pipe —
   enough to exercise the real framed readers/writers without a socket. *)
let with_pipe k =
  let r, w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r and oc = Unix.out_channel_of_descr w in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      close_in_noerr ic)
    (fun () -> k ic oc)

(* ---- protocol ---------------------------------------------------------- *)

let test_request_round_trip () =
  let reqs =
    [
      P.Packed (P.Compile spec);
      P.Packed
        (P.Report
           {
             P.rs_workloads = [ "sieve"; "vadd" ];
             rs_ordering = "iupo-merged";
             rs_policy = "bf";
             rs_deadline_s = Some 1.5;
           });
      P.Packed
        (P.Sweep_cell
           { P.ss_table = "table1"; ss_workloads = []; ss_deadline_s = None });
      P.Packed P.Stats;
      P.Packed (P.Trace_of "r42");
      P.Packed P.Shutdown;
    ]
  in
  List.iter
    (fun (P.Packed req) ->
      with_pipe (fun ic oc ->
          let ctx = Trips_obs.Telemetry.mint ~deadline_s:0.5 () in
          P.write_request oc ?ctx (P.wire_of_request req);
          let ctx', wire = P.read_request ic in
          Alcotest.(check bool) "ctx survives the wire" true (ctx = ctx');
          let (P.Packed decoded) = P.request_of_wire wire in
          let same =
            match (req, decoded) with
            | P.Compile a, P.Compile b -> a = b
            | P.Report a, P.Report b -> a = b
            | P.Sweep_cell a, P.Sweep_cell b -> a = b
            | P.Stats, P.Stats -> true
            | P.Trace_of a, P.Trace_of b -> a = b
            | P.Shutdown, P.Shutdown -> true
            | _ -> false
          in
          Alcotest.(check bool) "request survives the wire" true same))
    reqs

(* The v2 request frame, pinned byte for byte: "CHFS", the version byte,
   then the marshaled (ctx, message) pair where the message has the
   layout of this plain variant — one constructor per request, in the
   GADT's order.  A v2 peer built from any revision decodes exactly
   these bytes, so a change to the message's representation must fail
   here, not in the field. *)
type v2_request =
  | W_compile of P.compile_spec
  | W_report of P.report_spec
  | W_sweep of P.sweep_spec
  | W_stats
  | W_trace of string
  | W_shutdown

let test_request_wire_layout () =
  let report =
    {
      P.rs_workloads = [ "sieve" ];
      rs_ordering = "upio";
      rs_policy = "df";
      rs_deadline_s = Some 2.0;
    }
  in
  let sweep =
    { P.ss_table = "table3"; ss_workloads = [ "gzip_1" ]; ss_deadline_s = None }
  in
  let cases =
    [
      ("compile", P.Packed (P.Compile spec), W_compile spec);
      ("report", P.Packed (P.Report report), W_report report);
      ("sweep-cell", P.Packed (P.Sweep_cell sweep), W_sweep sweep);
      ("stats", P.Packed P.Stats, W_stats);
      ("trace", P.Packed (P.Trace_of "r7"), W_trace "r7");
      ("shutdown", P.Packed P.Shutdown, W_shutdown);
    ]
  in
  List.iter
    (fun (name, P.Packed req, v2) ->
      let buf = Filename.temp_file "chfc-wire" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove buf)
        (fun () ->
          let oc = open_out_bin buf in
          P.write_request oc (P.wire_of_request req);
          close_out oc;
          let ic = open_in_bin buf in
          let bytes = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Alcotest.(check string)
            (name ^ ": v2 frame bytes")
            ("CHFS\002"
            ^ Marshal.to_string ((None : Trips_obs.Telemetry.ctx option), v2) [])
            bytes))
    cases

let test_reply_round_trip () =
  with_pipe (fun ic oc ->
      let req = P.Compile spec in
      P.write_reply oc (P.reply_to_wire req (Ok "report text"));
      (match P.reply_of_wire req (P.read_reply ic) with
      | Ok text -> Alcotest.(check string) "payload" "report text" text
      | Error _ -> Alcotest.fail "expected Ok");
      P.write_reply oc
        (P.reply_to_wire req (Error (P.Overloaded { ov_pending = 3; ov_depth = 3 })));
      match P.reply_of_wire req (P.read_reply ic) with
      | Error (P.Overloaded { ov_pending = 3; ov_depth = 3 }) -> ()
      | _ -> Alcotest.fail "expected Overloaded")

let test_version_mismatch () =
  with_pipe (fun ic oc ->
      output_string oc "CHFS";
      output_char oc (Char.chr (P.version + 1));
      output_string oc "junk that must never be unmarshaled";
      flush oc;
      match P.read_request ic with
      | _ -> Alcotest.fail "version skew accepted"
      | exception P.Protocol_error _ -> ())

let test_bad_magic () =
  with_pipe (fun ic oc ->
      output_string oc "HTTP/";
      flush oc;
      match P.read_request ic with
      | _ -> Alcotest.fail "bad magic accepted"
      | exception P.Protocol_error _ -> ())

(* A valid header followed by a payload [Marshal] cannot decode is a
   structured error, never a [Failure] escaping into the daemon's
   connection thread. *)
let test_malformed_payload () =
  let expect_error what payload =
    with_pipe (fun ic oc ->
        output_string oc "CHFS";
        output_char oc (Char.chr P.version);
        output_string oc payload;
        close_out oc;
        match P.read_request ic with
        | _ -> Alcotest.failf "%s accepted" what
        | exception P.Protocol_error _ -> ())
  in
  expect_error "junk payload" "junk that must never be unmarshaled";
  let frame =
    Marshal.to_string
      ((None : Trips_obs.Telemetry.ctx option), P.wire_of_request (P.Compile spec))
      []
  in
  expect_error "truncated payload"
    (String.sub frame 0 (String.length frame - 8))

let test_session_type_enforced () =
  (* A reply whose shape contradicts the request's type index must be a
     structured protocol error, not a crash or a silent misread. *)
  let wrong = P.reply_to_wire (P.Compile spec) (Ok "text") in
  (match P.reply_of_wire P.Stats wrong with
  | _ -> Alcotest.fail "stats request accepted an output reply"
  | exception P.Protocol_error _ -> ());
  match P.reply_of_wire (P.Compile spec) (P.error_reply "boom") with
  | _ -> Alcotest.fail "error frame decoded as a payload"
  | exception P.Protocol_error _ -> ()

(* ---- content-addressed store ------------------------------------------- *)

let k src = { Store.src; stage = "compile"; config = "cfg" }

let test_store_counters () =
  let s = Store.create ~capacity:8 ~name:"t.counters" () in
  Alcotest.(check (option string)) "miss" None (Store.find s (k "a"));
  Store.add s (k "a") "A";
  Alcotest.(check (option string)) "hit" (Some "A") (Store.find s (k "a"));
  Store.record_miss s;
  let c = Store.counters s in
  Alcotest.(check int) "hits" 1 c.Store.hits;
  Alcotest.(check int) "misses" 2 c.Store.misses;
  Alcotest.(check int) "entries" 1 c.Store.entries;
  Alcotest.(check int) "capacity" 8 c.Store.capacity;
  Alcotest.(check (float 1e-9))
    "hit rate" (1.0 /. 3.0) (Store.hit_rate c)

let test_store_lru_eviction () =
  let s = Store.create ~capacity:2 ~name:"t.lru" () in
  Store.add s (k "a") "A";
  Store.add s (k "b") "B";
  (* touching [a] refreshes its recency, so the next insert evicts [b] *)
  ignore (Store.find s (k "a"));
  Store.add s (k "c") "C";
  Alcotest.(check (option string)) "a survives" (Some "A") (Store.find s (k "a"));
  Alcotest.(check (option string)) "b evicted" None (Store.find s (k "b"));
  Alcotest.(check (option string)) "c present" (Some "C") (Store.find s (k "c"));
  let c = Store.counters s in
  Alcotest.(check int) "one eviction" 1 c.Store.evictions;
  Alcotest.(check int) "bounded" 2 c.Store.entries

let test_store_key_separation () =
  (* the key is the full (src, stage, config) triple: any differing
     component addresses a distinct artifact *)
  let s = Store.create ~capacity:8 ~name:"t.keys" () in
  Store.add s { Store.src = "s"; stage = "compile"; config = "c1" } "one";
  Store.add s { Store.src = "s"; stage = "compile"; config = "c2" } "two";
  Store.add s { Store.src = "s"; stage = "prefix"; config = "c1" } "three";
  Alcotest.(check (option string))
    "config digest discriminates" (Some "one")
    (Store.find s { Store.src = "s"; stage = "compile"; config = "c1" });
  Alcotest.(check (option string))
    "stage discriminates" (Some "three")
    (Store.find s { Store.src = "s"; stage = "prefix"; config = "c1" });
  Alcotest.(check int) "three entries" 3 (Store.counters s).Store.entries

let test_store_concurrent () =
  let s = Store.create ~capacity:4 ~name:"t.concurrent" () in
  let threads = 4 and per_thread = 200 and keyspace = 8 in
  let bad = Atomic.make 0 in
  let worker tid =
    Thread.create
      (fun tid ->
        for i = 0 to per_thread - 1 do
          let src = Printf.sprintf "w%d" ((i + tid) mod keyspace) in
          let v = Store.find_or_add s (k src) (fun key -> "v:" ^ key.Store.src) in
          if v <> "v:" ^ src then Atomic.incr bad
        done)
      tid
  in
  List.init threads worker |> List.iter Thread.join;
  Alcotest.(check int) "every lookup returned its own key's value" 0
    (Atomic.get bad);
  let c = Store.counters s in
  Alcotest.(check int) "every lookup counted" (threads * per_thread)
    (c.Store.hits + c.Store.misses);
  Alcotest.(check bool) "population bounded" true (c.Store.entries <= 4)

(* ---- scheduler --------------------------------------------------------- *)

let test_scheduler_concurrent_determinism () =
  let sched = Scheduler.create ~workers:2 ~run:(fun n -> n * n) () in
  Fun.protect
    ~finally:(fun () -> Scheduler.drain sched)
    (fun () ->
      let bad = Atomic.make 0 in
      let client tid =
        Thread.create
          (fun tid ->
            for i = 0 to 24 do
              let n = (tid * 100) + i in
              match Scheduler.run_sync sched n with
              | Scheduler.Done r when r = n * n -> ()
              | _ -> Atomic.incr bad
            done)
          tid
      in
      List.init 4 client |> List.iter Thread.join;
      Alcotest.(check int) "every job got its own answer" 0 (Atomic.get bad);
      let c = Scheduler.counters sched in
      Alcotest.(check int) "completed" 100 c.Scheduler.k_completed;
      Alcotest.(check int) "pending" 0 c.Scheduler.k_pending)

let test_scheduler_crash_isolation () =
  let run n = if n = 13 then failwith "boom" else n in
  let sched = Scheduler.create ~workers:1 ~run () in
  Fun.protect
    ~finally:(fun () -> Scheduler.drain sched)
    (fun () ->
      (match Scheduler.run_sync sched 13 with
      | Scheduler.Crashed (Failure m) when m = "boom" -> ()
      | _ -> Alcotest.fail "expected Crashed");
      (* the crash is confined: the same pool keeps answering *)
      (match Scheduler.run_sync sched 7 with
      | Scheduler.Done 7 -> ()
      | _ -> Alcotest.fail "pool wedged after a crash");
      let c = Scheduler.counters sched in
      Alcotest.(check int) "one crash" 1 c.Scheduler.k_crashed;
      (* completed counts successes only; the crash has its own counter *)
      Alcotest.(check int) "one success" 1 c.Scheduler.k_completed;
      Alcotest.(check int) "nothing pending" 0 c.Scheduler.k_pending)

let test_scheduler_sheds_overflow () =
  let m = Mutex.create () and cv = Condition.create () in
  let released = ref false in
  let gate () =
    Mutex.lock m;
    while not !released do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let sched =
    Scheduler.create ~workers:1 ~queue_depth:2
      ~run:(fun n ->
        if n < 0 then gate ();
        n)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Scheduler.drain sched)
    (fun () ->
      let t1 =
        match Scheduler.submit sched (-1) with
        | Ok t -> t
        | Error _ -> Alcotest.fail "first admit refused"
      in
      let t2 =
        match Scheduler.submit sched (-2) with
        | Ok t -> t
        | Error _ -> Alcotest.fail "second admit refused"
      in
      (* in-flight = depth: the next submission must shed, structurally *)
      (match Scheduler.submit sched 3 with
      | Error (Scheduler.Overloaded { ov_pending = 2; ov_depth = 2 }) -> ()
      | Ok _ -> Alcotest.fail "overflow admitted"
      | Error _ -> Alcotest.fail "expected Overloaded");
      Mutex.lock m;
      released := true;
      Condition.broadcast cv;
      Mutex.unlock m;
      (match (Scheduler.await sched t1, Scheduler.await sched t2) with
      | Scheduler.Done -1, Scheduler.Done -2 -> ()
      | _ -> Alcotest.fail "gated jobs lost");
      let c = Scheduler.counters sched in
      Alcotest.(check int) "one shed" 1 c.Scheduler.k_shed;
      Alcotest.(check int) "sheds are not submissions" 2 c.Scheduler.k_submitted)

(* The SLO sentinel on synthetic jobs.  Every job carries a request
   context so its outcome reaches the rolling window the sentinel reads.
   Two crashes breach a 20% error-rate bound once, not twice; and a shed
   refusal, which never reaches a worker, is an error too (DESIGN.md §17). *)
let test_scheduler_slo_sentinel () =
  let module Telemetry = Trips_obs.Telemetry in
  let module Metrics = Trips_obs.Metrics in
  let breaches () =
    Metrics.counter_value (Metrics.snapshot ()) "serve.slo.breach"
  in
  let fresh () =
    Telemetry.reset ();
    Metrics.reset ()
  in
  let slo = { Scheduler.slo_p99_s = None; slo_error_rate = Some 0.2 } in
  let ctx_of _ = Telemetry.mint () in
  fresh ();
  let sched =
    Scheduler.create ~workers:1 ~slo ~ctx_of
      ~run:(fun n -> if n < 0 then failwith "negative input" else n)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Scheduler.drain sched)
    (fun () ->
      Alcotest.(check bool) "healthy before any job" false
        (Scheduler.degraded sched);
      List.iter
        (fun n ->
          match Scheduler.run_sync sched n with
          | Scheduler.Crashed _ -> ()
          | _ -> Alcotest.fail "a negative input must crash")
        [ -1; -2 ];
      Alcotest.(check bool) "two crashes breach the error rate" true
        (Scheduler.degraded sched);
      Alcotest.(check int) "one false->true transition" 1 (breaches ()));
  (* a shed counts as an error: three good jobs keep the rate at zero,
     then a refusal past the depth bound makes it 1/4 *)
  fresh ();
  let m = Mutex.create () and cv = Condition.create () in
  let released = ref false in
  let gate () =
    Mutex.lock m;
    while not !released do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let release () =
    Mutex.protect m (fun () ->
        released := true;
        Condition.broadcast cv)
  in
  let sched =
    Scheduler.create ~workers:1 ~queue_depth:1 ~slo ~ctx_of
      ~run:(fun n ->
        if n < 0 then gate ();
        n)
      ()
  in
  (* release before draining, so a failed check cannot wedge the drain *)
  Fun.protect
    ~finally:(fun () ->
      release ();
      Scheduler.drain sched)
    (fun () ->
      List.iter
        (fun n ->
          match Scheduler.run_sync sched n with
          | Scheduler.Done _ -> ()
          | _ -> Alcotest.fail "a good job failed")
        [ 1; 2; 3 ];
      Alcotest.(check bool) "healthy after good jobs" false
        (Scheduler.degraded sched);
      let gated =
        match Scheduler.submit sched (-1) with
        | Ok t -> t
        | Error _ -> Alcotest.fail "gated job refused"
      in
      (match Scheduler.submit sched 4 with
      | Error (Scheduler.Overloaded _) -> ()
      | Ok _ -> Alcotest.fail "overflow admitted"
      | Error _ -> Alcotest.fail "expected Overloaded");
      Alcotest.(check bool) "a shed breaches the error rate" true
        (Scheduler.degraded sched);
      Alcotest.(check int) "the shed's transition is counted" 1 (breaches ());
      release ();
      match Scheduler.await sched gated with
      | Scheduler.Done -1 -> ()
      | _ -> Alcotest.fail "gated job lost")

let test_scheduler_deadline () =
  let deadline_of n = if n < 0 then Some 0.005 else None in
  let run n =
    if n < 0 then
      let rec spin () : int =
        Watchdog.check ();
        spin ()
      in
      spin ()
    else n * 2
  in
  let sched = Scheduler.create ~workers:1 ~deadline_of ~run () in
  Fun.protect
    ~finally:(fun () -> Scheduler.drain sched)
    (fun () ->
      (match Scheduler.run_sync sched (-1) with
      | Scheduler.Timed_out { to_deadline_s; to_spent_s } ->
        Alcotest.(check (float 1e-9)) "deadline echoed" 0.005 to_deadline_s;
        Alcotest.(check bool) "spent at least the budget" true
          (to_spent_s >= 0.005)
      | _ -> Alcotest.fail "expected Timed_out");
      (* the expiry did not poison the worker domain *)
      (match Scheduler.run_sync sched 21 with
      | Scheduler.Done 42 -> ()
      | _ -> Alcotest.fail "pool wedged after a timeout");
      let c = Scheduler.counters sched in
      Alcotest.(check int) "one timeout" 1 c.Scheduler.k_timed_out)

let test_scheduler_drain_refuses () =
  let sched = Scheduler.create ~workers:1 ~run:(fun n -> n) () in
  (match Scheduler.run_sync sched 1 with
  | Scheduler.Done 1 -> ()
  | _ -> Alcotest.fail "warm-up job failed");
  Scheduler.drain sched;
  Scheduler.drain sched;
  (* idempotent *)
  match Scheduler.submit sched 2 with
  | Error Scheduler.Draining -> ()
  | Ok _ -> Alcotest.fail "drained scheduler admitted a job"
  | Error _ -> Alcotest.fail "expected Draining"

(* ---- end-to-end byte identity ------------------------------------------ *)

let test_served_byte_identity () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ()) "chfc-test-serve.sock"
  in
  let srv =
    Trips_serve.Server.start ~workers:1 ~quiet:true ~socket ()
  in
  let served =
    Trips_serve.Client.with_conn ~socket (fun c ->
        Trips_serve.Client.rpc c
          (P.Compile { spec with P.cs_workload = "vadd" }))
  in
  let stats =
    Trips_serve.Client.with_conn ~socket (fun c ->
        Trips_serve.Client.rpc c P.Stats)
  in
  Trips_serve.Client.with_conn ~socket (fun c ->
      Trips_serve.Client.rpc c P.Shutdown);
  Trips_serve.Server.wait srv;
  let oneshot =
    match Trips_workloads.Micro.by_name "vadd" with
    | None -> Alcotest.fail "workload vadd missing"
    | Some w -> (
      match
        Trips_serve.Worker.compile_report ~ordering:Chf.Phases.Iupo_merged
          ~config:Chf.Policy.edge_default ~backend:true ~verify:false w
      with
      | Ok (_, text) -> text
      | Error f ->
        Alcotest.failf "one-shot compile failed: %a"
          Trips_harness.Pipeline.pp_failure f)
  in
  (match served with
  | Ok text ->
    Alcotest.(check string) "served = one-shot, byte for byte" oneshot text
  | Error _ -> Alcotest.fail "served compile failed");
  Alcotest.(check int) "daemon answered with its protocol version" P.version
    stats.P.st_version;
  Alcotest.(check bool) "the compile was counted" true
    (stats.P.st_completed >= 1)

(* ---- a peer that hangs up before its reply ----------------------------- *)

(* One client sends a compile on a raw socket and closes it before the
   reply; writing that reply fails with a broken pipe.  The connection
   must end quietly (no connection thread dies on an uncaught exception)
   and a second client's compile must still equal the one-shot report. *)
let test_hangup_before_reply () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ()) "chfc-test-hangup.sock"
  in
  let uncaught = Atomic.make 0 in
  Thread.set_uncaught_exception_handler (fun _ -> Atomic.incr uncaught);
  Fun.protect
    ~finally:(fun () ->
      Thread.set_uncaught_exception_handler
        Thread.default_uncaught_exception_handler)
    (fun () ->
      let srv = Trips_serve.Server.start ~workers:1 ~quiet:true ~socket () in
      let compile = P.Compile { spec with P.cs_workload = "vadd" } in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let oc = Unix.out_channel_of_descr fd in
      P.write_request oc (P.wire_of_request compile);
      close_out oc;
      let served =
        Trips_serve.Client.with_conn ~socket (fun c ->
            Trips_serve.Client.rpc c compile)
      in
      Trips_serve.Client.with_conn ~socket (fun c ->
          Trips_serve.Client.rpc c P.Shutdown);
      Trips_serve.Server.wait srv;
      let oneshot =
        match Trips_workloads.Micro.by_name "vadd" with
        | None -> Alcotest.fail "workload vadd missing"
        | Some w -> (
          match
            Trips_serve.Worker.compile_report ~ordering:Chf.Phases.Iupo_merged
              ~config:Chf.Policy.edge_default ~backend:true ~verify:false w
          with
          | Ok (_, text) -> text
          | Error f ->
            Alcotest.failf "one-shot compile failed: %a"
              Trips_harness.Pipeline.pp_failure f)
      in
      (match served with
      | Ok text ->
        Alcotest.(check string) "second client = one-shot" oneshot text
      | Error _ -> Alcotest.fail "second compile failed");
      Alcotest.(check int) "no connection thread died" 0 (Atomic.get uncaught))

(* ---- the basic-block baseline is computed once per source ------------- *)

(* One worker serves sieve under two orderings and policies, then a
   chaos-poisoned sieve.  The baseline store misses once and then hits,
   and the back end runs once for the baseline in total: three formed
   compiles plus one BB compile.  Both replies equal the cache-less
   one-shot report. *)
let test_baseline_once_per_source () =
  let module Worker = Trips_serve.Worker in
  let module Stage = Trips_harness.Stage in
  let module Metrics = Trips_obs.Metrics in
  let sieve =
    match Trips_workloads.Micro.by_name "sieve" with
    | Some w -> w
    | None -> Alcotest.fail "workload sieve missing"
  in
  let backend_runs () =
    match
      List.assoc_opt "stage.time.backend"
        (Metrics.snapshot ()).Metrics.histograms
    with
    | Some h -> h.Metrics.h_count
    | None -> 0
  in
  let counting f =
    let before = backend_runs () in
    let v = f () in
    (v, backend_runs () - before)
  in
  let oneshot ordering policy =
    let config =
      match Worker.policy_of_name policy with
      | Ok c -> c
      | Error (`Msg m) -> Alcotest.fail m
    in
    counting (fun () ->
        match
          Worker.compile_report ~ordering ~config ~backend:true ~verify:false
            sieve
        with
        | Ok (_, text) -> text
        | Error f ->
          Alcotest.failf "one-shot compile failed: %a"
            Trips_harness.Pipeline.pp_failure f)
  in
  let merged, merged_runs = oneshot Chf.Phases.Iupo_merged "bf" in
  let upio, upio_runs = oneshot Chf.Phases.Upio "df" in
  let (), bb_runs =
    counting (fun () ->
        ignore
          (Trips_harness.Pipeline.baseline ~backend:true ~cycles:true sieve))
  in
  let worker = Worker.create () in
  let baselines () =
    List.assoc "serve.baseline" (Stage.store_counters (Worker.cache worker))
  in
  let (first, after_first, second), served_runs =
    counting (fun () ->
        let first = Worker.run worker (P.Compile spec) in
        let after_first = baselines () in
        let second =
          Worker.run worker
            (P.Compile { spec with P.cs_ordering = "upio"; cs_policy = "df" })
        in
        (match
           Worker.run worker (P.Compile { spec with P.cs_chaos_seed = Some 3 })
         with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "chaos-poisoned compile did not raise");
        (first, after_first, second))
  in
  let final = baselines () in
  Alcotest.(check (pair int int))
    "first request: one baseline miss" (0, 1)
    (after_first.Store.hits, after_first.Store.misses);
  Alcotest.(check (pair int int))
    "later requests hit the baseline" (2, 1)
    (final.Store.hits, final.Store.misses);
  Alcotest.(check int) "one BB back-end run for three requests"
    (merged_runs + upio_runs + merged_runs - (2 * bb_runs))
    served_runs;
  let served name = function
    | Ok text -> text
    | Error e -> Alcotest.failf "%s: %a" name P.pp_served_error e
  in
  Alcotest.(check string) "iupo-merged/bf = one-shot" merged
    (served "iupo-merged/bf" first);
  Alcotest.(check string) "upio/df = one-shot" upio (served "upio/df" second)

(* An unknown workload name in a report or sweep-cell request is a
   Bad_request naming it, for every table — never a silently shorter
   selection. *)
let test_unknown_workload_bad_request () =
  let run = Trips_serve.Worker.run (Trips_serve.Worker.create ()) in
  let workloads = [ "sieve"; "nosuch" ] in
  let expect what = function
    | Error (P.Bad_request m) ->
      Alcotest.(check string) what "unknown workload \"nosuch\"; try `chfc list`" m
    | Ok _ -> Alcotest.failf "%s: answered an unknown workload" what
    | Error e -> Alcotest.failf "%s: %a" what P.pp_served_error e
  in
  expect "report"
    (run
       (P.Report
          {
            P.rs_workloads = workloads;
            rs_ordering = "iupo-merged";
            rs_policy = "bf";
            rs_deadline_s = None;
          }));
  List.iter
    (fun table ->
      expect ("sweep-cell " ^ table)
        (run
           (P.Sweep_cell
              { P.ss_table = table; ss_workloads = workloads; ss_deadline_s = None })))
    (List.map
       (fun e -> e.Trips_harness.Experiment.name)
       Trips_harness.Experiment.all)

(* ---- served tables and reports end like a compile ---------------------- *)

let sieve_sweep deadline =
  P.Sweep_cell
    { P.ss_table = "table1"; ss_workloads = [ "sieve" ]; ss_deadline_s = deadline }

let sieve_report deadline =
  P.Report
    {
      P.rs_workloads = [ "sieve" ];
      rs_ordering = "iupo-merged";
      rs_policy = "bf";
      rs_deadline_s = deadline;
    }

(* A table or report whose request deadline expires answers Timed_out
   and is counted as timed out, like a compile; the next request, with
   no deadline, is the one-shot render byte for byte (the expired render
   was not stored). *)
let test_served_render_deadline () =
  let module Worker = Trips_serve.Worker in
  let module H = Trips_harness in
  let sieve = Option.get (Trips_workloads.Micro.by_name "sieve") in
  let table1 = Result.get_ok (H.Experiment.find "table1") in
  let oneshot_table =
    fst (table1.H.Experiment.render ~cache:(H.Stage.create ()) ~jobs:1 [ sieve ])
  in
  let oneshot_report =
    Fmt.str "%a" H.Reporter.render
      (H.Reporter.run ~cache:(H.Stage.create ()) ~jobs:1 ~workloads:[ sieve ] ())
  in
  let worker = Worker.create () in
  let sched =
    Scheduler.create ~workers:1 ~deadline_of:P.job_deadline
      ~run:(Worker.run worker) ()
  in
  Fun.protect
    ~finally:(fun () -> Scheduler.drain sched)
    (fun () ->
      List.iter
        (fun (what, request, oneshot) ->
          (match Scheduler.run_sync sched (request (Some 1e-6)) with
          | Scheduler.Timed_out _ -> ()
          | Scheduler.Done (Ok _) ->
            Alcotest.failf "%s past its deadline was answered" what
          | Scheduler.Done (Error e) -> Alcotest.failf "%s: %a" what P.pp_served_error e
          | _ -> Alcotest.failf "%s past its deadline: not Timed_out" what);
          match Scheduler.run_sync sched (request None) with
          | Scheduler.Done (Ok text) ->
            Alcotest.(check string) (what ^ " = one-shot render") oneshot text
          | Scheduler.Done (Error e) -> Alcotest.failf "%s: %a" what P.pp_served_error e
          | _ -> Alcotest.failf "%s without a deadline did not complete" what)
        [ ("table1", sieve_sweep, oneshot_table); ("report", sieve_report, oneshot_report) ];
      let c = Scheduler.counters sched in
      Alcotest.(check int) "timed out" 2 c.Scheduler.k_timed_out;
      Alcotest.(check int) "completed" 2 c.Scheduler.k_completed)

(* A render that lists a failure is answered, footer included, and leaves
   the output store as it was; the same render complete is stored. *)
let test_failed_render_not_stored () =
  let module Worker = Trips_serve.Worker in
  let worker = Worker.create () in
  let entries () = (Store.counters (Worker.output_store worker)).Store.entries in
  List.iter
    (fun (what, request) ->
      let before = entries () in
      (* one unit of formation fuel: every formed cell fails, by count *)
      Watchdog.set_stage_policy ~fuel:1 ~stages:[ "formation" ] ();
      let failed =
        Fun.protect
          ~finally:(fun () -> Watchdog.set_stage_policy ())
          (fun () -> Worker.run worker (request None))
      in
      (match failed with
      | Ok text ->
        let footer = "failure(s):" in
        let n = String.length footer in
        let rec lists i =
          i + n <= String.length text && (String.sub text i n = footer || lists (i + 1))
        in
        Alcotest.(check bool) (what ^ " lists its failures") true (lists 0)
      | Error e -> Alcotest.failf "%s: %a" what P.pp_served_error e);
      Alcotest.(check int) (what ^ ": failed render not stored") before (entries ());
      (match Worker.run worker (request None) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %a" what P.pp_served_error e);
      Alcotest.(check int) (what ^ ": complete render stored") (before + 1) (entries ()))
    [ ("table1", sieve_sweep); ("report", sieve_report) ]

(* ---- client descriptor hygiene ------------------------------------------ *)

let test_client_close_once () =
  (* [Client.close] must close its socket descriptor exactly once: a
     second close of the same number would hit whatever descriptor
     another domain opened in between.  One domain keeps opening
     /dev/null and checking that its descriptor still refers to it while
     this one cycles connections against a bare listening socket. *)
  let socket =
    Filename.concat (Filename.get_temp_dir_name ()) "chfc-test-close.sock"
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 8;
  let started = Atomic.make false and stop = Atomic.make false in
  let prober =
    Domain.spawn (fun () ->
        let null = Unix.stat "/dev/null" in
        let lost = ref 0 in
        Atomic.set started true;
        let ours fd =
          match Unix.fstat fd with
          | st -> st.Unix.st_ino = null.Unix.st_ino && st.Unix.st_rdev = null.Unix.st_rdev
          | exception Unix.Unix_error _ -> false
        in
        let round = ref 0 in
        while not (Atomic.get stop) do
          (* a varying number at once, so they cover the numbers the
             connections use *)
          incr round;
          let fds =
            List.init (1 + (!round mod 6)) (fun _ ->
                Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0)
          in
          for _ = 1 to 50 do
            Domain.cpu_relax ()
          done;
          List.iter (fun fd -> if ours fd then Unix.close fd else incr lost) fds
        done;
        !lost)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let failed = ref 0 in
  for _ = 1 to 5000 do
    match Trips_serve.Client.connect ~socket with
    | conn ->
      let fd, _ = Unix.accept listener in
      Unix.close fd;
      Trips_serve.Client.close conn
    | exception Unix.Unix_error _ -> incr failed
  done;
  Atomic.set stop true;
  let lost = Domain.join prober in
  Unix.close listener;
  Unix.unlink socket;
  Alcotest.(check int) "connections refused" 0 !failed;
  Alcotest.(check int) "descriptors closed under another domain" 0 lost

(* ---- resident pool vs sequential map ----------------------------------- *)

let normalize rs =
  List.map
    (function Ok v -> Ok v | Error e -> Error (Printexc.to_string e))
    rs

let pool_equivalence_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"Engine.map: resident pool = sequential map (slots, errors)"
       ~count:40
       QCheck2.Gen.(list_size (int_bound 24) (int_bound 1000))
       (fun xs ->
         let f x = if x mod 7 = 0 then failwith "seven" else (x * x) + 1 in
         normalize (Engine.map ~jobs:4 f xs)
         = normalize (Engine.map ~jobs:1 f xs)))

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol: request wire round-trip" `Quick
        test_request_round_trip;
      Alcotest.test_case "protocol: request frames keep the v2 layout" `Quick
        test_request_wire_layout;
      Alcotest.test_case "protocol: reply wire round-trip" `Quick
        test_reply_round_trip;
      Alcotest.test_case "protocol: version skew is a structured error" `Quick
        test_version_mismatch;
      Alcotest.test_case "protocol: bad magic is a structured error" `Quick
        test_bad_magic;
      Alcotest.test_case "protocol: malformed payload is a structured error"
        `Quick test_malformed_payload;
      Alcotest.test_case "protocol: reply shape checked against the session type"
        `Quick test_session_type_enforced;
      Alcotest.test_case "store: hit/miss/eviction counters" `Quick
        test_store_counters;
      Alcotest.test_case "store: LRU eviction respects recency" `Quick
        test_store_lru_eviction;
      Alcotest.test_case "store: (src, stage, config) triple addresses" `Quick
        test_store_key_separation;
      Alcotest.test_case "store: concurrent find_or_add is consistent" `Quick
        test_store_concurrent;
      Alcotest.test_case "scheduler: concurrent submits, deterministic answers"
        `Quick test_scheduler_concurrent_determinism;
      Alcotest.test_case "scheduler: a crash is confined to its job" `Quick
        test_scheduler_crash_isolation;
      Alcotest.test_case "scheduler: overflow sheds with Overloaded" `Quick
        test_scheduler_sheds_overflow;
      Alcotest.test_case "scheduler: SLO sentinel counts crashes and sheds"
        `Quick test_scheduler_slo_sentinel;
      Alcotest.test_case "scheduler: deadline expiry does not wedge the pool"
        `Quick test_scheduler_deadline;
      Alcotest.test_case "scheduler: drain refuses new work, idempotently"
        `Quick test_scheduler_drain_refuses;
      Alcotest.test_case "serve: socket round-trip is byte-identical" `Quick
        test_served_byte_identity;
      Alcotest.test_case "serve: a peer hanging up before its reply" `Quick
        test_hangup_before_reply;
      Alcotest.test_case "serve: one basic-block baseline per source" `Quick
        test_baseline_once_per_source;
      Alcotest.test_case "worker: unknown workload names are Bad_request"
        `Quick test_unknown_workload_bad_request;
      Alcotest.test_case "worker: a table or report past its deadline times out"
        `Quick test_served_render_deadline;
      Alcotest.test_case "worker: a render listing a failure is not stored"
        `Quick test_failed_render_not_stored;
      Alcotest.test_case "client: close closes its descriptor once" `Quick
        test_client_close_once;
      pool_equivalence_prop;
    ] )
