(* Request-scoped telemetry: the rolling window's bucket arithmetic
   (expiry across the ring seam, stale-write refusal), the per-request
   collector lifecycle (span-tree well-formedness, window reconciliation,
   ring eviction). *)

open Trips_obs

let check = Alcotest.check

(* ---- rolling window ---------------------------------------------------- *)

(* A fresh window answers with empty lists, not zero-filled quantiles. *)
let test_window_empty () =
  let w = Metrics.Window.create ~buckets:4 ~bucket_s:1.0 () in
  let s = Metrics.Window.snapshot ~now:10.0 w in
  check Alcotest.int "no counters" 0 (List.length s.Metrics.Window.w_counters);
  check Alcotest.int "no gauges" 0 (List.length s.Metrics.Window.w_gauges);
  check Alcotest.int "no histograms" 0
    (List.length s.Metrics.Window.w_histograms);
  check (Alcotest.float 1e-9) "span still reported" 4.0
    s.Metrics.Window.w_span_s;
  check Alcotest.int "absent counter reads 0" 0
    (Metrics.Window.counter_value s "nope");
  check Alcotest.bool "absent histogram is None" true
    (Metrics.Window.histogram s "nope" = None)

(* Buckets expire individually as [now] advances, including across the
   ring seam where a new epoch reclaims an old bucket's slot. *)
let test_window_expiry_seam () =
  let module W = Metrics.Window in
  let w = W.create ~buckets:4 ~bucket_s:1.0 () in
  W.observe w ~now:0.5 "lat" 10.0;
  W.observe w ~now:3.5 "lat" 20.0;
  W.incr w ~now:0.5 "req";
  W.incr w ~now:3.5 "req";
  (* At 3.9 both buckets (epochs 0 and 3) are inside the 4s window. *)
  let s = W.snapshot ~now:3.9 w in
  check Alcotest.int "both samples live" 2
    (match W.histogram s "lat" with Some h -> h.Metrics.h_count | None -> 0);
  check Alcotest.int "both increments live" 2 (W.counter_value s "req");
  (* At 4.6 epoch 0 has aged out; epoch 3 remains. *)
  let s = W.snapshot ~now:4.6 w in
  (match W.histogram s "lat" with
  | Some h ->
    check Alcotest.int "old bucket expired" 1 h.Metrics.h_count;
    check (Alcotest.float 1e-9) "surviving sample" 20.0 h.Metrics.h_max
  | None -> Alcotest.fail "expected the 3.5s sample to survive at 4.6");
  check Alcotest.int "counter follows" 1 (W.counter_value s "req");
  (* Writing at 4.2 lands in epoch 4, which reuses epoch 0's slot: the
     seam write must not resurrect the expired samples. *)
  W.observe w ~now:4.2 "lat" 30.0;
  let s = W.snapshot ~now:4.6 w in
  (match W.histogram s "lat" with
  | Some h ->
    check Alcotest.int "seam write joins the window" 2 h.Metrics.h_count;
    check (Alcotest.float 1e-9) "sum is 20+30" 50.0 h.Metrics.h_sum
  | None -> Alcotest.fail "expected two live samples after the seam write");
  (* A write into the past (older epoch than the slot now holds) is
     refused rather than polluting the newer bucket. *)
  W.observe w ~now:0.7 "lat" 999.0;
  let s = W.snapshot ~now:4.6 w in
  (match W.histogram s "lat" with
  | Some h ->
    check Alcotest.int "stale write refused" 2 h.Metrics.h_count;
    check (Alcotest.float 1e-9) "max unchanged" 30.0 h.Metrics.h_max
  | None -> Alcotest.fail "window emptied unexpectedly");
  (* Far enough ahead, everything expires. *)
  let s = W.snapshot ~now:9.0 w in
  check Alcotest.bool "fully drained" true (s.W.w_histograms = [])

(* ---- collector lifecycle ----------------------------------------------- *)

let run_request ?chaos_seed ~outcome body =
  let ctx = Telemetry.mint ?chaos_seed () in
  let act =
    Telemetry.start ctx ~kind:"compile" ~queue_wait_s:0.0005
  in
  Telemetry.run act body;
  Telemetry.finish act ~outcome;
  match ctx with Some c -> c.Telemetry.tc_id | None -> Alcotest.fail "no ctx"

(* A request driven through start/run/finish yields a well-formed span
   tree, and the window's outcome accounting reconciles with a lifetime
   tally kept by hand. *)
let test_collector_roundtrip () =
  Telemetry.reset ();
  let id =
    run_request ~outcome:"ok" (fun () ->
        Trace.span "lower" (fun () ->
            Trace.record "opt-pass" [ ("pass", Trace.Str "licm") ];
            Metrics.incr "form.attempt";
            Trace.span "formation" (fun () -> Metrics.incr "form.attempt")))
  in
  let id2 = run_request ~outcome:"failed" (fun () -> ()) in
  let tr =
    match Telemetry.find id with
    | Some tr -> tr
    | None -> Alcotest.fail "finished trace not in ring"
  in
  (match Telemetry.check tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("malformed span tree: " ^ m));
  check Alcotest.string "outcome stamped" "ok" tr.Telemetry.tr_outcome;
  check Alcotest.string "kind stamped" "compile" tr.Telemetry.tr_kind;
  let names =
    List.map (fun (sp : Telemetry.span) -> sp.Telemetry.sp_name)
      tr.Telemetry.tr_spans
  in
  check
    Alcotest.(list string)
    "frame spans then instrumentation spans"
    [ "request"; "queue-wait"; "execute"; "lower"; "formation" ]
    names;
  check Alcotest.bool "note captured" true
    (List.exists
       (fun (nt : Telemetry.note) -> nt.Telemetry.nt_kind = "opt-pass")
       tr.Telemetry.tr_notes);
  check
    Alcotest.(list (pair string int))
    "request-private counter deltas"
    [ ("form.attempt", 2) ]
    tr.Telemetry.tr_counters;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let txt = Telemetry.render tr in
  check Alcotest.bool "render mentions every span" true
    (List.for_all (contains txt) names);
  (* Window reconciliation: exactly one appearance per request, under
     the right outcome class. *)
  let s = Metrics.Window.snapshot Metrics.window in
  let module W = Metrics.Window in
  check Alcotest.int "one ok in window" 1 (W.counter_value s "serve.req.ok");
  check Alcotest.int "one failed in window" 1
    (W.counter_value s "serve.req.failed");
  (match W.histogram s "serve.latency_s" with
  | Some h -> check Alcotest.int "latency sampled once per request" 2 h.Metrics.h_count
  | None -> Alcotest.fail "latency histogram missing");
  check Alcotest.bool "second trace also retained" true
    (Telemetry.find id2 <> None)

(* The ring is bounded: oldest finished traces are evicted first, and
   of five requests through a ring of two, exactly the newest two can
   still be found. *)
let test_ring_eviction () =
  Telemetry.reset ();
  Telemetry.set_ring_capacity 2;
  let ids =
    List.map
      (fun i -> run_request ~outcome:"ok" (fun () -> ignore i))
      [ 1; 2; 3; 4; 5 ]
  in
  (match ids with
  | [ a; _; _; d; e ] ->
    check Alcotest.bool "oldest evicted" true (Telemetry.find a = None);
    check Alcotest.bool "newer kept" true (Telemetry.find d <> None);
    check Alcotest.bool "newest kept" true (Telemetry.find e <> None);
    check
      Alcotest.(list string)
      "bounded: only the newest two are found" [ d; e ]
      (List.filter (fun id -> Telemetry.find id <> None) ids)
  | _ -> Alcotest.fail "expected five ids");
  Telemetry.set_ring_capacity 64;
  Telemetry.reset ()

(* A request's event stream is the sequential order of its own worker
   domain: two identical bodies collect identical span/note skeletons
   even when other domains run telemetry concurrently. *)
let test_stream_domain_invariant () =
  Telemetry.reset ();
  let body () =
    Trace.span "lower" (fun () ->
        Trace.record "opt-pass" [ ("pass", Trace.Str "licm") ];
        Trace.span "formation" (fun () -> ()))
  in
  let skeleton id =
    match Telemetry.find id with
    | None -> Alcotest.fail "trace missing"
    | Some tr ->
      ( List.map
          (fun (sp : Telemetry.span) ->
            (sp.Telemetry.sp_id, sp.Telemetry.sp_parent, sp.Telemetry.sp_name))
          tr.Telemetry.tr_spans,
        List.map
          (fun (nt : Telemetry.note) ->
            (nt.Telemetry.nt_span, nt.Telemetry.nt_kind))
          tr.Telemetry.tr_notes )
  in
  let id1 = run_request ~outcome:"ok" body in
  let noisy =
    Array.init 3 (fun _ ->
        Domain.spawn (fun () ->
            ignore (run_request ~outcome:"ok" body);
            ()))
  in
  let id2 = run_request ~outcome:"ok" body in
  Array.iter Domain.join noisy;
  check
    Alcotest.(
      pair
        (list (triple int int string))
        (list (pair int string)))
    "identical skeleton regardless of concurrent requests" (skeleton id1)
    (skeleton id2);
  Telemetry.reset ()

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "window: empty" `Quick test_window_empty;
      Alcotest.test_case "window: expiry across ring seam" `Quick
        test_window_expiry_seam;
      Alcotest.test_case "collector: roundtrip + reconciliation" `Quick
        test_collector_roundtrip;
      Alcotest.test_case "collector: ring eviction" `Quick test_ring_eviction;
      Alcotest.test_case "stream invariant across domains" `Quick
        test_stream_domain_invariant;
    ] )
