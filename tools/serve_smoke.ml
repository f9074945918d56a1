(* serve_smoke — end-to-end gate for the resident compile service.

   Starts a daemon on a private socket, then asserts, over real client
   connections:

   - N compile requests (repeated sources) all succeed, and repeats are
     byte-identical to the first answer (the output store may not change
     bytes);
   - a served compile equals the one-shot pipeline's report text
     byte for byte;
   - a frame whose payload is junk gets a structured error reply, and
     the daemon goes on serving byte-identical compiles;
   - a chaos-poisoned request fails with a structured compile error
     naming the injection, and its crash is confined (the next request
     on the same connection succeeds);
   - an already-served kernel under a second ordering equals the
     one-shot output, and the basic-block baseline store has hits: a
     source's baseline is computed once, not once per request;
   - a past-deadline request on a source the stores have not seen
     answers timed-out without wedging the pool;
   - a past-deadline table request answers timed-out too, not a table of
     timed-out cells, and the same table with no deadline then equals
     the one-shot render (the expired one was not stored);
   - the stats reply accounts for all of the above (completions, one
     crash, two timeouts, output-store hits);
   - shutdown acks, drains, removes the socket, and refuses new
     connections.

   A second daemon, on its own socket, arms the SLO sentinel and admits
   one job at a time; a burst of simultaneous uncacheable requests must
   then:

   - shed at least one request with Overloaded, and the stats reply's
     shed count must equal the Overloaded replies;
   - flip the sentinel to degraded, counting exactly one breach;
   - leave the daemon serving: a later request is still byte-identical
     to the one-shot pipeline.

   Exit 0 on success, 1 with a message on the first violated check. *)

module C = Trips_serve.Client
module P = Trips_serve.Protocol
module S = Trips_serve.Server

let fail fmt = Fmt.kstr (fun m -> Fmt.epr "serve-smoke: FAIL: %s@." m; exit 1) fmt

let compile ?(ordering = "iupo-merged") ?deadline ?chaos name =
  P.Compile
    {
      P.cs_workload = name;
      cs_ordering = ordering;
      cs_policy = "bf";
      cs_backend = true;
      cs_verify = false;
      cs_deadline_s = deadline;
      cs_chaos_seed = chaos;
    }

(* The one-shot pipeline's report for [name], the bytes a served compile
   must reproduce. *)
let oneshot ?(ordering = Chf.Phases.Iupo_merged) name =
  match Trips_workloads.Micro.by_name name with
  | None -> fail "workload %s missing" name
  | Some w -> (
    match
      Trips_serve.Worker.compile_report ~ordering
        ~config:Chf.Policy.edge_default ~backend:true ~verify:false w
    with
    | Error f ->
      fail "one-shot compile of %s failed: %a" name
        Trips_harness.Pipeline.pp_failure f
    | Ok (_, text) -> text)

(* The one-shot render of Table 1 over [names], the bytes a served sweep
   cell must reproduce. *)
let oneshot_table names =
  let ws = List.filter_map Trips_workloads.Micro.by_name names in
  match Trips_harness.Experiment.find "table1" with
  | Error (`Msg m) -> fail "%s" m
  | Ok e ->
    fst (e.Trips_harness.Experiment.render ~cache:(Trips_harness.Stage.create ()) ~jobs:1 ws)

(* Overload and the SLO sentinel.  One worker and a depth bound of one
   admit a single job at a time.  Every burst connection is open before
   any client thread sends, and each thread waits for the others, so the
   requests arrive together, far faster than one compile; a distinct
   chaos seed per request keeps each of them out of the output store.
   The rolling window is process-global, so it is cleared first: the
   sentinel then sees only this daemon's traffic.  Returns the number of
   Overloaded replies. *)
let overload_and_slo () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ()) "chfc-serve-smoke-slo.sock"
  in
  Trips_obs.Telemetry.reset ();
  let srv =
    S.start ~workers:1 ~queue_depth:1 ~slo_p99_s:3600.0 ~slo_error_rate:0.02
      ~quiet:true ~socket ()
  in
  let sieve = oneshot "sieve" in
  (match C.with_conn ~socket (fun c -> C.rpc c (compile "sieve")) with
  | Ok text -> if text <> sieve then fail "slo daemon: sieve differs"
  | Error e -> fail "slo daemon: first request: %a" P.pp_served_error e);
  if (C.with_conn ~socket (fun c -> C.rpc c P.Stats)).P.st_degraded then
    fail "slo daemon: degraded before the burst";
  let burst = 16 in
  let conns = List.init burst (fun _ -> C.connect ~socket) in
  let ready = Atomic.make 0 and overloaded = Atomic.make 0 in
  let client i conn =
    Atomic.incr ready;
    while Atomic.get ready < burst do
      Thread.yield ()
    done;
    (match C.rpc conn (compile ~chaos:(i + 1) "gzip_1") with
    | Error (P.Overloaded _) -> Atomic.incr overloaded
    | Ok _ | Error _ -> ());
    C.close conn
  in
  List.iter Thread.join (List.mapi (fun i c -> Thread.create (client i) c) conns);
  let shed = Atomic.get overloaded in
  let st = C.with_conn ~socket (fun c -> C.rpc c P.Stats) in
  if shed = 0 then fail "burst of %d past a depth of 1 shed nothing" burst;
  if st.P.st_shed <> shed then
    fail "stats: %d shed, %d Overloaded replies" st.P.st_shed shed;
  if not st.P.st_degraded then fail "SLO sentinel not degraded after the burst";
  let breaches =
    Trips_obs.Metrics.counter_value
      (Trips_obs.Metrics.snapshot ())
      "serve.slo.breach"
  in
  if breaches <> 1 then fail "%d SLO breaches recorded, expected 1" breaches;
  (match C.with_conn ~socket (fun c -> C.rpc c (compile "sieve")) with
  | Ok text ->
    if text <> sieve then fail "sieve after the burst differs from one-shot"
  | Error e -> fail "request after the burst: %a" P.pp_served_error e);
  C.with_conn ~socket (fun c -> C.rpc c P.Shutdown);
  S.wait srv;
  shed

let () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ()) "chfc-serve-smoke.sock"
  in
  let srv = S.start ~workers:2 ~queue_depth:4 ~quiet:true ~socket () in
  let names = [ "sieve"; "vadd"; "matrix_1"; "sieve"; "vadd"; "sieve" ] in
  let first : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let first_req_id = ref None in
  List.iteri
    (fun i name ->
      let id, reply =
        C.with_conn ~socket (fun c -> C.rpc_traced c (compile name))
      in
      if !first_req_id = None then first_req_id := id;
      match reply with
      | Error e -> fail "request %d (%s): %a" i name P.pp_served_error e
      | Ok text -> (
        match Hashtbl.find_opt first name with
        | None -> Hashtbl.replace first name text
        | Some prev ->
          if prev <> text then
            fail "repeat of %s is not byte-identical to its first answer"
              name))
    names;
  (* served bytes = one-shot pipeline bytes *)
  if Hashtbl.find first "sieve" <> oneshot "sieve" then
    fail "served sieve differs from the one-shot compile";
  (* a valid header and a junk payload: the daemon answers with an error
     frame and hangs up, and the next connection is served as before *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  output_string oc "CHFS";
  output_char oc (Char.chr P.version);
  output_string oc "junk that is no marshaled value";
  flush oc;
  (match P.reply_of_wire P.Stats (P.read_reply ic) with
  | _ -> fail "junk frame answered with a stats reply"
  | exception P.Protocol_error _ -> ()
  | exception End_of_file -> fail "junk frame: connection closed, no reply");
  close_out oc;
  (match C.with_conn ~socket (fun c -> C.rpc c (compile "sieve")) with
  | Ok text ->
    if text <> oneshot "sieve" then
      fail "sieve after a junk frame differs from the one-shot compile"
  | Error e -> fail "sieve after a junk frame: %a" P.pp_served_error e);
  (* chaos-poisoned request: structured failure, confined to its job *)
  C.with_conn ~socket (fun c ->
      (match C.rpc c (compile ~chaos:3 "sieve") with
      | Ok _ -> fail "chaos-poisoned request succeeded"
      | Error (P.Compile_failed m) ->
        let has_chaos = Re.execp (Re.compile (Re.str "chaos")) m in
        if not has_chaos then fail "chaos failure does not name chaos: %s" m
      | Error e -> fail "chaos-poisoned request: %a" P.pp_served_error e);
      (* same connection, next request must be fine *)
      match C.rpc c (compile "sieve") with
      | Ok text ->
        if text <> Hashtbl.find first "sieve" then
          fail "request after a crash is not byte-identical"
      | Error e -> fail "request after a crash: %a" P.pp_served_error e);
  (* an already-served kernel under a second ordering: its baseline comes
     from the baseline store, and the bytes still match the one-shot *)
  (match C.with_conn ~socket (fun c -> C.rpc c (compile ~ordering:"upio" "sieve")) with
  | Ok text ->
    if text <> oneshot ~ordering:Chf.Phases.Upio "sieve" then
      fail "served sieve under upio differs from the one-shot compile"
  | Error e -> fail "sieve under upio: %a" P.pp_served_error e);
  (* past-deadline request on an unseen source *)
  (match
     C.with_conn ~socket (fun c -> C.rpc c (compile ~deadline:1e-6 "gzip_1"))
   with
  | Error (P.Timed_out _) -> ()
  | Ok _ -> fail "past-deadline request succeeded"
  | Error e -> fail "past-deadline request: %a" P.pp_served_error e);
  (* the pool is not wedged: the timed-out source compiles when allowed *)
  (match C.with_conn ~socket (fun c -> C.rpc c (compile "gzip_1")) with
  | Ok _ -> ()
  | Error e -> fail "compile after a timeout: %a" P.pp_served_error e);
  (* a past-deadline table: timed out as a whole, and not stored *)
  let table deadline =
    P.Sweep_cell
      { P.ss_table = "table1"; ss_workloads = [ "sieve"; "vadd" ]; ss_deadline_s = deadline }
  in
  (match C.with_conn ~socket (fun c -> C.rpc c (table (Some 1e-6))) with
  | Error (P.Timed_out _) -> ()
  | Ok _ -> fail "past-deadline table request succeeded"
  | Error e -> fail "past-deadline table request: %a" P.pp_served_error e);
  (match C.with_conn ~socket (fun c -> C.rpc c (table None)) with
  | Ok text ->
    if text <> oneshot_table [ "sieve"; "vadd" ] then
      fail "served table1 after a timed-out one differs from the one-shot render"
  | Error e -> fail "table after a timeout: %a" P.pp_served_error e);
  (* the stats reply accounts for the above *)
  let st = C.with_conn ~socket (fun c -> C.rpc c P.Stats) in
  if st.P.st_version <> P.version then fail "stats version mismatch";
  if st.P.st_crashed < 1 then fail "stats: no crash recorded";
  if st.P.st_timed_out <> 2 then
    fail "stats: %d timeouts, expected 2 (a compile and a table)"
      st.P.st_timed_out;
  if st.P.st_pending <> 0 then fail "stats: %d jobs still pending" st.P.st_pending;
  let output =
    List.find (fun s -> s.P.sc_name = "serve.output") st.P.st_stores
  in
  if output.P.sc_hits = 0 then fail "output store never hit on repeats";
  (match List.find_opt (fun s -> s.P.sc_name = "serve.baseline") st.P.st_stores with
  | None -> fail "stats: no serve.baseline store"
  | Some b ->
    if b.P.sc_hits = 0 then
      fail "baseline store never hit after the chaos-poisoned sieve");
  (* rolling-window accounting: every request appears exactly once, under
     its outcome class, and the window agrees with the lifetime counters
     (the whole smoke fits inside the 30s window) *)
  let module W = Trips_obs.Metrics.Window in
  let w = st.P.st_window in
  let ok = W.counter_value w "serve.req.ok"
  and crashed = W.counter_value w "serve.req.crashed"
  and timed_out = W.counter_value w "serve.req.timed_out" in
  (* 6 listed + 1 after-junk + 1 after-crash + 1 second-ordering + 1
     after-timeout compiles and 1 table succeeded *)
  if ok <> List.length names + 5 then
    fail "window: %d ok requests, expected %d" ok (List.length names + 5);
  if crashed <> st.P.st_crashed then
    fail "window: %d crashed vs %d lifetime" crashed st.P.st_crashed;
  if timed_out <> st.P.st_timed_out then
    fail "window: %d timed out vs %d lifetime" timed_out st.P.st_timed_out;
  if ok + crashed + timed_out <> st.P.st_submitted then
    fail "window: classes sum to %d, %d submitted"
      (ok + crashed + timed_out)
      st.P.st_submitted;
  (match W.histogram w "serve.latency_s" with
  | Some h ->
    if h.Trips_obs.Metrics.h_count <> st.P.st_submitted then
      fail "window: %d latency samples, %d submitted" h.Trips_obs.Metrics.h_count
        st.P.st_submitted
  | None -> fail "window: no latency histogram");
  if st.P.st_degraded then fail "degraded with no SLO armed";
  (* full request reconstruction: the first compile's trace is in the
     ring, well-formed, with the right outcome *)
  (match !first_req_id with
  | None -> fail "client minted no request id"
  | Some id -> (
    match C.with_conn ~socket (fun c -> C.rpc c (P.Trace_of id)) with
    | None -> fail "trace %s not retrievable" id
    | Some tr ->
      if tr.Trips_obs.Telemetry.tr_outcome <> "ok" then
        fail "trace %s outcome %s, expected ok" id
          tr.Trips_obs.Telemetry.tr_outcome;
      (match Trips_obs.Telemetry.check tr with
      | Ok () -> ()
      | Error m -> fail "trace %s malformed: %s" id m)));
  (* graceful shutdown: ack, drain, socket removed, connections refused *)
  C.with_conn ~socket (fun c -> C.rpc c P.Shutdown);
  S.wait srv;
  if Sys.file_exists socket then fail "socket %s survived shutdown" socket;
  (match C.connect ~socket with
  | conn ->
    C.close conn;
    fail "daemon still accepting after shutdown"
  | exception Unix.Unix_error _ -> ());
  let shed = overload_and_slo () in
  Fmt.pr
    "serve-smoke: %d requests, junk frame, crash isolation, deadlines, stats, \
     window accounting, trace reconstruction, byte identity, clean shutdown, \
     overload (%d shed) and SLO sentinel: OK@."
    (List.length names) shed
