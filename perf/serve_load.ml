(* The serve workload, serve-miss: a `chfc serve --workers <nproc>`
   daemon started as a child process, driven in a closed loop by <nproc>
   clients, one domain each so they do not share a runtime lock (each
   sends its next request only after the previous reply).

   26 kernels x 4 orderings x 3 policies = 312 compile tuples, cycled in
   a seeded order through a daemon whose stores hold 64 entries, so
   every measured request misses the output store (each tuple recurs 312
   requests later, long after eviction) while the 26 prefixes warmed in
   setup stay resident.

   A run is three segments, each on a fresh daemon: setup (daemon start +
   warmup) is timed three times, and each segment serves one cycle of
   the tuples. *)

open Trips_workloads
module P = Trips_serve.Protocol
module C = Trips_serve.Client
module Telemetry = Trips_obs.Telemetry

let workload = "serve-miss"

let kernel_workloads = Micro.all @ Micro.store_dense
let kernels = List.map (fun w -> w.Workload.name) kernel_workloads

type tuple = { kernel : string; ordering : string; policy : string }

(* The workload, ordering and policy configuration a tuple names. *)
let resolve t =
  let module W = Trips_serve.Worker in
  match (W.find_workload t.kernel, W.ordering_of_name t.ordering, W.policy_of_name t.policy) with
  | Ok w, Ok ordering, Ok config -> (w, ordering, config)
  | _ -> invalid_arg ("Serve_load.resolve: " ^ t.kernel)

let request t =
  P.Compile
    {
      P.cs_workload = t.kernel;
      cs_ordering = t.ordering;
      cs_policy = t.policy;
      cs_backend = true;
      cs_verify = false;
      cs_deadline_s = None;
      cs_chaos_seed = None;
    }

let orderings = [ "upio"; "iupo"; "iup-o"; "iupo-merged" ]
let policies = [ "bf"; "df"; "vliw" ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Every compile tuple once: one fixed shuffled order, rotated to start
   at a seeded position.  The order decides which heavy compiles run
   side by side on the daemon's workers; a fresh shuffle per seed moved
   peak RSS by up to a third and latency by up to a fifth between
   seeds. *)
let tuples seed =
  let fixed =
    shuffle (Random.State.make [| 1 |])
      (Array.of_list
         (List.concat_map
            (fun kernel ->
              List.concat_map
                (fun ordering -> List.map (fun policy -> { kernel; ordering; policy }) policies)
                orderings)
            kernels))
  in
  let n = Array.length fixed in
  let start = Random.State.int (Random.State.make [| seed; 1 |]) n in
  Array.init n (fun i -> fixed.((start + i) mod n))

(* Setup warms each kernel's prefix with a basic-block compile. *)
let warm_tuples = List.map (fun kernel -> { kernel; ordering = "bb"; policy = "bf" }) kernels

(* ---- the daemon --------------------------------------------------------------- *)

type daemon = { child : Proc.child; socket : string; started : float }

let chfc () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/chfc.exe"

let daemons = ref 0

let start_daemon ~out ~workers ?trace_ring ?gc_log () =
  incr daemons;
  let socket = Filename.concat out (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !daemons) in
  let args =
    [ "serve"; "--socket"; socket; "--workers"; string_of_int workers; "--quiet";
      "--store-capacity"; "64" ]
    @ match trace_ring with None -> [] | Some n -> [ "--trace-ring"; string_of_int n ]
  in
  (* OCAMLRUNPARAM v=0x400 makes the daemon print its GC totals at exit *)
  let env =
    Option.map
      (fun _ ->
        Array.append
          (Array.of_list
             (List.filter
                (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
                (Array.to_list (Unix.environment ()))))
          [| "OCAMLRUNPARAM=v=0x400" |])
      gc_log
  in
  let started = Proc.now () in
  let child = Proc.spawn ?env ?stderr:gc_log (chfc ()) args in
  let rec await_socket () =
    match C.connect ~socket with
    | conn -> C.close conn
    | exception Unix.Unix_error _ when Proc.now () -. started < 30.0 ->
      Unix.sleepf 0.002;
      await_socket ()
  in
  (try await_socket ()
   with e ->
     Proc.kill child;
     raise e);
  { child; socket; started }

let stop_daemon d =
  match C.with_conn ~socket:d.socket (fun c -> C.rpc c P.Shutdown) with
  | () -> ignore (Proc.wait d.child)
  | exception _ -> Proc.kill d.child

let stats d = C.with_conn ~socket:d.socket (fun c -> C.rpc c P.Stats)

let store_counts (s : P.stats_payload) name =
  match List.find_opt (fun c -> c.P.sc_name = name) s.P.st_stores with
  | Some c -> (c.P.sc_hits, c.P.sc_misses)
  | None -> (0, 0)

(* Send [ts] over [n] parallel connections; replies in input order. *)
let send_all ~socket ~n ts =
  let ts = Array.of_list ts in
  let replies = Array.make (Array.length ts) (Error P.Draining) in
  let worker k =
    C.with_conn ~socket (fun conn ->
        Array.iteri
          (fun i t -> if i mod n = k then replies.(i) <- C.rpc conn (request t))
          ts)
  in
  List.iter Domain.join (List.init n (fun k -> Domain.spawn (fun () -> worker k)));
  Array.to_list replies

(* ---- one segment ----------------------------------------------------------------- *)

type sample = {
  s_tuple : tuple;
  s_sent : float;
  s_lat : float;
  s_client : int;
  s_id : string option;
  s_reply : P.output option;  (** [None] when the request raised *)
  s_bad : bool;  (** failed, refused or raised *)
}

type segment = {
  setup_s : float;
  window_s : float;
  start : float;
  samples : sample list;
  cpu_s : float;  (** daemon CPU over the measured window *)
  rss_mb : float;  (** daemon VmHWM at the end of the measured window *)
  output : int * int;  (** output-store (hits, misses) over the window *)
  prefix : int * int;
  warm : (tuple * P.output) list;
  traces : (sample * Telemetry.trace) list;
}

let segment ~seed ~out ~workers ~clients ~window ?(traced = false) ?(max_requests = max_int)
    ?trace_ring ?gc_log ?(before_stop = fun _ _ -> ()) () =
  let d = start_daemon ~out ~workers ?trace_ring ?gc_log () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let warm = List.combine warm_tuples (send_all ~socket:d.socket ~n:clients warm_tuples) in
      let setup_s = Proc.now () -. d.started in
      let ts = tuples seed in
      let cursor = Atomic.make 0 in
      let sent = Atomic.make 0 in
      let s0 = stats d in
      let cpu0 = Proc.cpu_s d.child.Proc.pid in
      let start = Proc.now () in
      let deadline = start +. window in
      let per_client = Array.make clients [] in
      let client k =
        C.with_conn ~socket:d.socket (fun conn ->
            let rec loop () =
              if Proc.now () < deadline && Atomic.fetch_and_add sent 1 < max_requests then begin
                let t = ts.(Atomic.fetch_and_add cursor 1 mod Array.length ts) in
                let t0 = Proc.now () in
                match
                  if traced then C.rpc_traced conn (request t) else (None, C.rpc conn (request t))
                with
                | id, reply ->
                  let lat = Proc.now () -. t0 in
                  per_client.(k) <-
                    { s_tuple = t; s_sent = t0; s_lat = lat; s_client = k; s_id = id;
                      s_reply = Some reply; s_bad = Result.is_error reply }
                    :: per_client.(k);
                  loop ()
                | exception e ->
                  Printf.eprintf
                    "benchmark: client %d, request %d (%s %s %s), %.3f s into the window: %s\n%!" k
                    (List.length per_client.(k)) t.kernel t.ordering t.policy
                    (Proc.now () -. start) (Printexc.to_string e);
                  per_client.(k) <-
                    { s_tuple = t; s_sent = t0; s_lat = Proc.now () -. t0; s_client = k;
                      s_id = None; s_reply = None; s_bad = true }
                    :: per_client.(k)
              end
            in
            loop ())
      in
      List.iter Domain.join (List.init clients (fun k -> Domain.spawn (fun () -> client k)));
      let window_s = Proc.now () -. start in
      let cpu_s = Proc.cpu_s d.child.Proc.pid -. cpu0 in
      let rss_mb = Proc.peak_rss_mb (string_of_int d.child.Proc.pid) in
      let s1 = stats d in
      let delta name =
        let h0, m0 = store_counts s0 name and h1, m1 = store_counts s1 name in
        (h1 - h0, m1 - m0)
      in
      let samples = List.concat (Array.to_list per_client) in
      let traces =
        if not traced then []
        else
          C.with_conn ~socket:d.socket (fun conn ->
              List.filter_map
                (fun s ->
                  match s.s_id with
                  | Some id -> Option.map (fun tr -> (s, tr)) (C.rpc conn (P.Trace_of id))
                  | None -> None)
                samples)
      in
      before_stop d.socket samples;
      { setup_s; window_s; start; samples; cpu_s; rss_mb; output = delta "serve.output";
        prefix = delta "serve.prefix"; warm; traces })

(* ---- measured run -------------------------------------------------------------------- *)

let segments_per_run = 3

(* Measured segments are bounded by request count, not time: each serves
   one full cycle of the 312 tuples (the seed only orders them), so every
   run serves the same requests.  Equal counts also keep memory readings
   comparable: the daemon's rolling telemetry window holds every sample
   of its last 30 s, so its footprint grows with the requests served.  A
   cycle takes about 8 s on a 2-vCPU host, so three fit in a 30 s
   --seconds; a segment on a host too slow for its third of --seconds
   stops early at twice that.

   A short discarded segment comes first: the first seconds of CPU work
   after an idle spell run slower on shared hosts (see Batch.measure).
   It is still checked. *)
let measure ~seed ~seconds ~out ~workers ~clients =
  let share = seconds /. float_of_int segments_per_run in
  let warmup = segment ~seed ~out ~workers ~clients ~window:2.0 () in
  ( warmup,
    List.init segments_per_run (fun _ ->
        segment ~seed ~out ~workers ~clients ~window:(2.0 *. share)
          ~max_requests:(Array.length (tuples seed)) ()) )

let lat_ms samples = Array.of_list (List.map (fun s -> s.s_lat *. 1000.0) samples)

let ok_count seg = List.length (List.filter (fun s -> not s.s_bad) seg.samples)

(* End-to-end metrics as (name, samples, value): per-segment samples; the
   latency value is the median of every request of the run. *)
let end_to_end segs =
  let med = Quantile.median in
  let per f = Array.of_list (List.map f segs) in
  let metric name samples value = (name, samples, value) in
  let pooled = lat_ms (List.concat_map (fun g -> g.samples) segs) in
  let setups = per (fun g -> g.setup_s) in
  let thr = per (fun g -> float_of_int (ok_count g) /. g.window_s) in
  let cpu = per (fun g -> g.cpu_s /. float_of_int (max 1 (List.length g.samples)) *. 1000.0) in
  let rss = per (fun g -> g.rss_mb) in
  [
    metric "setup_s" setups (med setups);
    metric "latency_p50_ms" (per (fun g -> med (lat_ms g.samples))) (med pooled);
    metric "throughput" thr (med thr);
    metric "cpu_ms_per_op" cpu (med cpu);
    metric "peak_rss_mb" rss (med rss);
  ]

(* The highest latency percentile with at least ten requests beyond it,
   over every request of the run: (percentile, ms, requests). *)
let latency_tail segs =
  let all = lat_ms (List.concat_map (fun g -> g.samples) segs) in
  Option.map (fun (p, v) -> (p, v, Array.length all)) (Quantile.tail [ 90.0; 99.0; 99.9 ] all)

(* Byte-compare a seeded sample of served replies with the in-process
   one-shot pipeline (Worker.compile_report). *)
let sampled_check ~seed samples =
  let oks =
    Array.of_list
      (List.filter_map
         (fun s -> match s.s_reply with Some (Ok text) -> Some (s.s_tuple, text) | _ -> None)
         samples)
  in
  let picks = shuffle (Random.State.make [| seed; 4 |]) (Array.copy oks) in
  let cache = Trips_harness.Stage.create () in
  let checked = Array.sub picks 0 (min 8 (Array.length picks)) in
  let mismatches =
    Array.fold_left
      (fun acc (t, text) ->
        let w, ordering, config = resolve t in
        match
          Trips_serve.Worker.compile_report ~cache ~ordering ~config ~backend:true ~verify:false w
        with
        | Ok (_, oneshot) when String.equal oneshot text -> acc
        | _ -> acc + 1)
      0 checked
  in
  (Array.length checked, mismatches)

(* (attempted, failed) of a run, and whether the store behaved as the
   workload requires (no output-store hit, warm replies identical across
   daemons). *)
let verdict ~seed segs =
  let samples = List.concat_map (fun g -> g.samples) segs in
  let bad = List.length (List.filter (fun s -> s.s_bad) samples) in
  let checked, mismatches = sampled_check ~seed samples in
  let store_ok = List.for_all (fun g -> fst g.output = 0) segs in
  let warm_ok =
    match segs with
    | [] -> true
    | g :: rest -> List.for_all (fun h -> h.warm = g.warm) rest
                   && List.for_all (fun (_, r) -> Result.is_ok r) g.warm
  in
  (List.length samples + checked, bad + mismatches, store_ok && warm_ok)

(* ---- traced run ------------------------------------------------------------------------ *)

let gc_totals path =
  let text = Option.value ~default:"" (Proc.read_file path) in
  let get key =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ k; v ] when String.trim k = key -> float_of_string_opt (String.trim v)
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:0.0
  in
  (get "minor_collections", get "major_collections")

(* Encode + decode of one request and its reply through the protocol's
   public framing over a pipe, in microseconds. *)
let codec_us t reply =
  let r, w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r and oc = Unix.out_channel_of_descr w in
  let req = request t in
  let wire = P.wire_of_request req in
  let wire_reply = P.reply_to_wire req reply in
  let ctx = Telemetry.mint () in
  let n = 2000 in
  let dt, () =
    Proc.time (fun () ->
        for _ = 1 to n do
          P.write_request oc ?ctx wire;
          ignore (P.read_request ic);
          P.write_reply oc wire_reply;
          ignore (P.reply_of_wire req (P.read_reply ic))
        done)
  in
  close_out_noerr oc;
  close_in_noerr ic;
  dt /. float_of_int n *. 1e6

(* The daemon's request span trees as Chrome events (pid 2, one thread
   per client), placed at their send time. *)
let daemon_events seg =
  List.concat_map
    (fun (s, (tr : Telemetry.trace)) ->
      let base = (s.s_sent -. seg.start) *. 1e6 in
      List.map
        (fun (sp : Telemetry.span) ->
          Json.Obj
            [
              ("name", Json.Str sp.Telemetry.sp_name);
              ("cat", Json.Str "daemon");
              ("ph", Json.Str "X");
              ("ts", Json.Num (Float.round (base +. sp.Telemetry.sp_start_us)));
              ("dur", Json.Num (Float.round (Float.max 0.0 sp.Telemetry.sp_dur_us)));
              ("pid", Json.Num 2.0);
              ("tid", Json.Num (float_of_int (s.s_client + 1)));
              ("args", Json.Obj [ ("request", Json.Str tr.Telemetry.tr_id) ]);
            ])
        tr.Telemetry.tr_spans)
    seg.traces

(* One seeded (ordering, policy) per kernel. *)
let replica_tuples seed =
  let rng = Random.State.make [| seed; 5 |] in
  List.map
    (fun kernel ->
      { kernel;
        ordering = List.nth orderings (Random.State.int rng (List.length orderings));
        policy = List.nth policies (Random.State.int rng (List.length policies)) })
    kernels

(* The traced run: after a warmup segment, an untraced segment (A), a
   traced one whose span ring holds every request and whose daemon logs
   its GC totals (B), a one-worker segment for engine.speedup_vs_j1 (C),
   then the replica of 26 compiles the workload serves, checked against
   the served replies.  The replica's prefixes are built outside its
   spans: served requests find them in the prefix store. *)
let traced ~seed ~seconds ~out ~workers ~clients ~trace_file =
  let window = seconds /. 4.0 and ring = 4096 in
  let warmup = segment ~seed ~out ~workers ~clients ~window:(window /. 2.0) () in
  let a = segment ~seed ~out ~workers ~clients ~window () in
  let rtuples = replica_tuples seed in
  let served = Hashtbl.create 32 in
  let collect socket samples =
    List.iter
      (fun s -> Option.iter (Hashtbl.replace served s.s_tuple) s.s_reply)
      samples;
    let missing = List.filter (fun t -> not (Hashtbl.mem served t)) rtuples in
    List.iter2 (Hashtbl.replace served) missing (send_all ~socket ~n:clients missing)
  in
  let gc_log = Filename.concat out (Printf.sprintf "daemon-gc-%d.txt" (Unix.getpid ())) in
  let b =
    segment ~seed ~out ~workers ~clients ~window ~traced:true ~max_requests:ring
      ~trace_ring:ring ~gc_log ~before_stop:collect ()
  in
  List.iter (fun (t, r) -> Hashtbl.replace served t r) b.warm;
  let c = segment ~seed ~out ~workers:1 ~clients ~window () in
  let prefixes = List.map (fun w -> (w.Workload.name, Replica.prefix w)) kernel_workloads in
  Replica.reset ();
  let bb_s = ref 0.0 in
  let replica_s, numbers =
    Proc.time (fun () ->
        List.map
          (fun t ->
            let _, ordering, config = resolve t in
            let n, bb = Replica.compile_report ~ordering ~config (List.assoc t.kernel prefixes) in
            bb_s := !bb_s +. bb;
            (t, n))
          rtuples)
  in
  let replica_mismatches =
    List.length
      (List.filter
         (fun (t, n) ->
           match Hashtbl.find_opt served t with
           | Some (Ok text) -> Replica.numbers_of_report text <> Some n
           | _ -> true)
         numbers)
  in
  Replica.write_trace trace_file (daemon_events b @ Span.to_chrome ());
  (* span trees *)
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 in
  let lat_sum = sum (fun (s, _) -> s.s_lat) b.traces in
  let span_sum name (tr : Telemetry.trace) =
    sum
      (fun (sp : Telemetry.span) ->
        if sp.Telemetry.sp_name = name then sp.Telemetry.sp_dur_us /. 1e6 else 0.0)
      tr.Telemetry.tr_spans
  in
  let share f = if lat_sum > 0.0 then sum (fun (_, tr) -> f tr) b.traces /. lat_sum else 0.0 in
  let counter k =
    sum
      (fun (_, (tr : Telemetry.trace)) ->
        float_of_int (Option.value ~default:0 (List.assoc_opt k tr.Telemetry.tr_counters)))
      b.traces
  in
  let ratio = Replica.ratio in
  let thr g = float_of_int (ok_count g) /. g.window_s in
  let hit_ratio (h, m) = ratio (float_of_int h) (float_of_int (h + m)) in
  let codec =
    match List.find_map (fun t -> match Hashtbl.find_opt served t with
        | Some (Ok _ as r) -> Some (t, r) | _ -> None) rtuples with
    | Some (t, r) -> codec_us t r
    | None -> 0.0
  in
  let minor, major = gc_totals gc_log in
  (try Sys.remove gc_log with Sys_error _ -> ());
  let ops = float_of_int (List.length b.warm + List.length b.samples) in
  let layer =
    Replica.layer_metrics ~replica_s
    @ Replica.counter_metrics counter
    @ [
        ("profile.record_overhead", Replica.record_overhead (List.map snd prefixes));
        ("engine.parallelism", ratio a.cpu_s a.window_s);
        ("engine.speedup_vs_j1", ratio (thr a) (thr c));
        ("engine.major_gcs", ratio major ops);
        ("engine.minor_gcs", ratio minor ops);
        ("store.prefix_hit_ratio", hit_ratio a.prefix);
        ("serve.queue_wait_share", share (fun tr -> tr.Telemetry.tr_queue_wait_s));
        ("serve.execute_share", share (span_sum "execute"));
        ("serve.render_share", share (span_sum "render"));
        ( "serve.transport_share",
          ratio (lat_sum -. sum (fun (_, tr) -> tr.Telemetry.tr_total_s) b.traces) lat_sum );
        ( "serve.codec_share",
          ratio (codec *. 1e-6) (ratio lat_sum (float_of_int (List.length b.traces))) );
        ("serve.bb_baseline_share", ratio !bb_s replica_s);
        ("trace.overhead_ratio", ratio (thr a) (thr b) -. 1.0);
      ]
  in
  let segs = [ warmup; a; b; c ] in
  let _, bad, store_ok = verdict ~seed segs in
  let traced_ids = List.length (List.filter (fun s -> s.s_id <> None) b.samples) in
  let checks =
    [
      ("every request answered correctly", bad = 0);
      ("no output-store hit", store_ok);
      ("every span tree fetched", List.length b.traces = traced_ids);
      ( "span trees well formed",
        List.for_all (fun (_, tr) -> Telemetry.check tr = Ok ()) b.traces );
      ("replica equals served replies", replica_mismatches = 0);
    ]
  in
  Replica.finish ~layer
    ~attempted:(List.length (List.concat_map (fun g -> g.samples) segs) + List.length numbers)
    checks
