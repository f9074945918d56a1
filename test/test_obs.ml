(* Observability subsystem tests: trace determinism across --jobs, stable
   JSON rendering, the metrics registry, and the formation decision log —
   including the retry-pool contract the trace exposed (structural
   failures are dropped, never retried) and rollback completeness after
   any failed merge attempt. *)

open Trips_ir
open Trips_obs

let check = Alcotest.check

(* ---- trace primitives -------------------------------------------------- *)

let test_trace_json_stable () =
  let ev =
    {
      Trace.cell = 3;
      seq = 7;
      kind = "merge-attempt";
      fields =
        [
          ("seed", Trace.Int 4);
          ("prob", Trace.Float 0.25);
          ("classify", Trace.Str "simple");
          ("ok", Trace.Bool true);
          ("msg", Trace.Str "quote\" and \\slash");
          ("ctl", Trace.Str "tab\tcr\r\001");
        ];
    }
  in
  check Alcotest.string "field order and escaping preserved"
    "{\"cell\":3,\"seq\":7,\"kind\":\"merge-attempt\",\"seed\":4,\"prob\":0.25,\
     \"classify\":\"simple\",\"ok\":true,\"msg\":\"quote\\\" and \\\\slash\",\
     \"ctl\":\"tab\\tcr\\r\\u0001\"}"
    (Trace.to_json ev)

let test_trace_cell_tagging () =
  let _ = Trace.stop () in
  Trace.start ();
  Trace.record "a" [];
  Trace.with_cell 5 (fun () ->
      Trace.record "b" [];
      Trace.record "c" []);
  Trace.record "d" [];
  let evs = Trace.stop () in
  check
    Alcotest.(list (pair int (pair int string)))
    "sorted (cell, seq) stream"
    [ (-1, (0, "a")); (-1, (1, "d")); (5, (0, "b")); (5, (1, "c")) ]
    (List.map (fun e -> (e.Trace.cell, (e.Trace.seq, e.Trace.kind))) evs);
  (* recording after stop is a no-op *)
  Trace.record "late" [];
  check Alcotest.int "nothing recorded while off" 0 (List.length (Trace.stop ()))

let test_metrics_registry () =
  Metrics.reset ();
  Metrics.incr "b.counter";
  Metrics.incr ~by:4 "a.counter";
  Metrics.incr ~by:(-1) "a.counter";
  Metrics.observe "lat" 2.0;
  Metrics.observe "lat" 6.0;
  let s = Metrics.snapshot () in
  check Alcotest.(list (pair string int)) "counters sorted by name"
    [ ("a.counter", 3); ("b.counter", 1) ]
    s.Metrics.counters;
  check Alcotest.int "absent counter reads 0" 0
    (Metrics.counter_value s "nope");
  (match s.Metrics.histograms with
  | [ ("lat", h) ] ->
    check Alcotest.int "histo count" 2 h.Metrics.h_count;
    check (Alcotest.float 1e-9) "histo sum" 8.0 h.Metrics.h_sum;
    check (Alcotest.float 1e-9) "histo min" 2.0 h.Metrics.h_min;
    check (Alcotest.float 1e-9) "histo max" 6.0 h.Metrics.h_max;
    check (Alcotest.float 1e-9) "histo p50" 2.0 h.Metrics.h_p50;
    check (Alcotest.float 1e-9) "histo p90" 6.0 h.Metrics.h_p90;
    check (Alcotest.float 1e-9) "histo p99" 6.0 h.Metrics.h_p99
  | _ -> Alcotest.fail "expected exactly the lat histogram");
  check Alcotest.string "json is sorted and stable"
    "{\"counters\":{\"a.counter\":3,\"b.counter\":1},\"gauges\":{},\
     \"histograms\":{\"lat\":\
     {\"count\":2,\"sum\":8,\"min\":2,\"max\":6,\"p50\":2,\"p90\":6,\"p99\":6}}}"
    (Metrics.to_json s);
  Metrics.reset ();
  check Alcotest.int "reset drops counters" 0
    (List.length (Metrics.snapshot ()).Metrics.counters)

(* Gauges: last value wins, render/json keep them between counters and
   histograms, sorted by name. *)
let test_metrics_gauges () =
  Metrics.reset ();
  Metrics.set_gauge "z.depth" 3.0;
  Metrics.set_gauge "z.depth" 1.0;
  Metrics.set_gauge "a.util" 0.75;
  let s = Metrics.snapshot () in
  check
    Alcotest.(list (pair string (float 1e-9)))
    "gauges sorted, set overwrites"
    [ ("a.util", 0.75); ("z.depth", 1.0) ]
    s.Metrics.gauges;
  check (Alcotest.float 1e-9) "gauge_value hit" 1.0
    (Metrics.gauge_value s "z.depth");
  check (Alcotest.float 1e-9) "gauge_value miss is 0" 0.0
    (Metrics.gauge_value s "nope");
  check Alcotest.string "gauges in json between counters and histograms"
    "{\"counters\":{},\"gauges\":{\"a.util\":0.75,\"z.depth\":1},\
     \"histograms\":{}}"
    (Metrics.to_json s);
  Metrics.reset ();
  check Alcotest.int "reset drops gauges" 0
    (List.length (Metrics.snapshot ()).Metrics.gauges)

(* ---- spans and the Chrome exporter ------------------------------------- *)

let span_events evs =
  List.filter (fun e -> e.Trace.kind = "span") evs

let test_span_api () =
  let _ = Trace.stop () in
  (* span mode off: the body runs, on_close fires, nothing is recorded *)
  Trace.start ();
  let closed = ref (-1.0) in
  let r = Trace.span ~on_close:(fun dt -> closed := dt) "work" (fun () -> 42) in
  check Alcotest.int "span returns the body's value" 42 r;
  check Alcotest.bool "on_close fired with a duration" true (!closed >= 0.0);
  check Alcotest.int "no span events outside span mode" 0
    (List.length (span_events (Trace.stop ())));
  (* on_close fires even when the body raises, and when tracing is off *)
  closed := -1.0;
  (try Trace.span ~on_close:(fun dt -> closed := dt) "boom" (fun () ->
       failwith "x")
   with Failure _ -> ());
  check Alcotest.bool "on_close fired on exception, tracing off" true
    (!closed >= 0.0);
  (* span mode on: a span event with name/ts/dur, extra fields appended,
     and point events stamped with ts *)
  Trace.start ~spans:true ();
  ignore
    (Trace.span
       ~fields:[ ("workload", Trace.Str "sieve") ]
       "stage.formation"
       (fun () -> Trace.record "point" [ ("x", Trace.Int 1) ]));
  let evs = Trace.stop () in
  (match span_events evs with
  | [ e ] ->
    check Alcotest.bool "span carries its name" true
      (List.assoc "name" e.Trace.fields = Trace.Str "stage.formation");
    let dur =
      match List.assoc "dur" e.Trace.fields with
      | Trace.Float d -> d
      | _ -> -1.0
    in
    check Alcotest.bool "span has a non-negative µs duration" true (dur >= 0.0);
    check Alcotest.bool "span keeps caller fields" true
      (List.assoc "workload" e.Trace.fields = Trace.Str "sieve")
  | l -> Alcotest.failf "expected exactly one span event, got %d" (List.length l));
  (match List.find_opt (fun e -> e.Trace.kind = "point") evs with
  | Some e ->
    check Alcotest.bool "point events gain a ts stamp in span mode" true
      (List.mem_assoc "ts" e.Trace.fields)
  | None -> Alcotest.fail "point event lost")

(* Minimal recursive-descent JSON syntax checker (the tree has no JSON
   library): accepts exactly the RFC 8259 value grammar we emit.  Raises
   on the first syntax error. *)
let json_validate s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "invalid JSON at byte %d: %s" !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal l =
    if !pos + String.length l <= n && String.sub s !pos (String.length l) = l
    then pos := !pos + String.length l
    else fail ("expected " ^ l)
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance ();
          go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    if peek () = Some '-' then advance ();
    let digits () =
      let d = ref 0 in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        incr d;
        advance ()
      done;
      if !d = 0 then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else
        let rec elements () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value"
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Tentpole acceptance: the Chrome exporter emits syntactically valid
   trace-event JSON — spans as complete events, points as instants, cells
   as thread ids. *)
let test_chrome_trace_valid () =
  let _ = Trace.stop () in
  Trace.start ~spans:true ();
  Trace.record "merge-attempt"
    [ ("cand", Trace.Int 3); ("outcome", Trace.Str "success") ];
  ignore
    (Trace.span
       ~fields:[ ("workload", Trace.Str "quote\"me") ]
       "stage.formation"
       (fun () -> ()));
  Trace.with_cell 2 (fun () ->
      Trace.record "opt-pass" [ ("pass", Trace.Str "dce") ]);
  let evs = Trace.stop () in
  let js = Trace.to_chrome_json evs in
  json_validate js;
  check Alcotest.bool "spans are complete events" true
    (contains js "\"ph\":\"X\"");
  check Alcotest.bool "points are instants" true (contains js "\"ph\":\"i\"");
  check Alcotest.bool "span name survives" true
    (contains js "\"name\":\"stage.formation\"");
  check Alcotest.bool "cells map to thread ids" true (contains js "\"tid\":3");
  check Alcotest.bool "durations present" true (contains js "\"dur\":");
  (* the validator itself must reject garbage, or the test is vacuous *)
  check Alcotest.bool "validator rejects malformed input" true
    (try
       json_validate "[{\"a\":1,}]";
       false
     with _ -> true)

(* Stage timers ride Trace.span (satellite: the refactor must keep
   feeding the stage.time.* histograms). *)
let test_stage_time_uses_span () =
  let _ = Trace.stop () in
  Metrics.reset ();
  Trace.start ~spans:true ();
  let v = Trips_harness.Stage.time Trips_harness.Stage.Lower (fun () -> 7) in
  let evs = Trace.stop () in
  check Alcotest.int "timed body result" 7 v;
  check Alcotest.int "one stage span recorded" 1
    (List.length (span_events evs));
  (match Metrics.snapshot () with
  | s -> (
    match List.assoc_opt "stage.time.lower" s.Metrics.histograms with
    | Some h -> check Alcotest.int "histogram observed once" 1 h.Metrics.h_count
    | None -> Alcotest.fail "stage.time.lower histogram missing"))

(* Satellite: quantile math and the JSON golden under interleaved
   multi-domain registration — field order inside a histogram is fixed,
   keys are sorted, and nearest-rank quantiles are deterministic however
   the observations interleave. *)
let test_metrics_multidomain_golden () =
  Metrics.reset ();
  let worker entries () =
    List.iter
      (fun (c, h, v) ->
        Metrics.incr c;
        Metrics.observe h v)
      entries
  in
  let d1 =
    Domain.spawn
      (worker [ ("z.counter", "sim.lat", 4.0); ("a.counter", "form.lat", 1.0) ])
  in
  let d2 =
    Domain.spawn
      (worker [ ("m.counter", "sim.lat", 2.0); ("a.counter", "form.lat", 3.0) ])
  in
  Domain.join d1;
  Domain.join d2;
  let s = Metrics.snapshot () in
  check Alcotest.string "sorted keys, stable field order, exact quantiles"
    "{\"counters\":{\"a.counter\":2,\"m.counter\":1,\"z.counter\":1},\
     \"gauges\":{},\
     \"histograms\":{\"form.lat\":{\"count\":2,\"sum\":4,\"min\":1,\"max\":3,\
     \"p50\":1,\"p90\":3,\"p99\":3},\"sim.lat\":{\"count\":2,\"sum\":6,\
     \"min\":2,\"max\":4,\"p50\":2,\"p90\":4,\"p99\":4}}}"
    (Metrics.to_json s)

(* Quantiles are nearest-rank over the full sample multiset. *)
let test_metrics_quantiles () =
  Metrics.reset ();
  for i = 1 to 100 do
    Metrics.observe "q" (float_of_int i)
  done;
  (match (Metrics.snapshot ()).Metrics.histograms with
  | [ ("q", h) ] ->
    check (Alcotest.float 1e-9) "p50 of 1..100" 50.0 h.Metrics.h_p50;
    check (Alcotest.float 1e-9) "p90 of 1..100" 90.0 h.Metrics.h_p90;
    check (Alcotest.float 1e-9) "p99 of 1..100" 99.0 h.Metrics.h_p99;
    check (Alcotest.float 1e-9) "min" 1.0 h.Metrics.h_min;
    check (Alcotest.float 1e-9) "max" 100.0 h.Metrics.h_max
  | _ -> Alcotest.fail "expected exactly the q histogram");
  Metrics.reset ()

(* One summary for both views: the lifetime registry and a rolling
   window fed the same samples, each in two orders, report structurally
   equal histograms.  The samples' float sum depends on the order they
   are added in (0 in the first order, 1 in the second), so this pins
   the sum to the sorted samples. *)
let test_one_summary_both_views () =
  let orders = [ [ 1.0; 1e16; -1e16 ]; [ 1e16; -1e16; 1.0 ] ] in
  let lifetime xs =
    Metrics.reset ();
    List.iter (Metrics.observe "x") xs;
    let h = List.assoc "x" (Metrics.snapshot ()).Metrics.histograms in
    Metrics.reset ();
    h
  in
  let windowed xs =
    let w = Metrics.Window.create () in
    List.iter (Metrics.Window.observe w ~now:5.0 "x") xs;
    Option.get (Metrics.Window.histogram (Metrics.Window.snapshot ~now:5.0 w) "x")
  in
  match List.concat_map (fun xs -> [ lifetime xs; windowed xs ]) orders with
  | first :: rest ->
    List.iter
      (fun h ->
        check Alcotest.bool "same histogram in every view and order" true
          (h = first))
      rest;
    check Alcotest.int "all three samples" 3 first.Metrics.h_count
  | [] -> assert false

(* ---- formation decision log -------------------------------------------- *)

(* Hand-built three-block loop: the seed b0 branches to the loop body b1
   (back edge to b0) and to the exit block b2. *)
let loop_cfg () =
  let cfg = Cfg.create ~name:"obs-loop" () in
  for _ = 0 to 2 do
    ignore (Cfg.fresh_block_id cfg)
  done;
  let g r sense = Some { Instr.greg = r; sense } in
  Cfg.set_block cfg
    (Block.make 0
       [
         Cfg.instr cfg (Instr.Binop (Opcode.Add, 1, Instr.Reg 1, Instr.Imm 1));
         Cfg.instr cfg (Instr.Cmp (Opcode.Lt, 2, Instr.Reg 1, Instr.Imm 3));
       ]
       [
         { Block.eguard = g 2 true; target = Block.Goto 1 };
         { Block.eguard = g 2 false; target = Block.Goto 2 };
       ]);
  Cfg.set_block cfg
    (Block.make 1
       [ Cfg.instr cfg (Instr.Mov (3, Instr.Imm 1)) ]
       [ { Block.eguard = None; target = Block.Goto 0 } ]);
  Cfg.set_block cfg
    (Block.make 2
       [ Cfg.instr cfg (Instr.Mov (4, Instr.Imm 7)) ]
       [ { Block.eguard = None; target = Block.Ret None } ]);
  cfg.Cfg.entry <- 0;
  Cfg.validate cfg;
  cfg

let profile_of cfg =
  let memory = Array.make 8 0 in
  let _, profile =
    Trips_sim.Func_sim.run_profiled ~registers:[ (1, 0) ] ~memory cfg
  in
  profile

let with_chaos hook f =
  Chf.Formation.chaos_combine_failure := Some hook;
  Fun.protect
    ~finally:(fun () -> Chf.Formation.chaos_combine_failure := None)
    f

(* Satellite 1: a candidate whose combine fails structurally must be
   dropped, not parked in the size-retry pool — under the old behavior it
   was retried after the next successful merge, doubling the structural
   failure (and, before the budget, looping).  The trace pins it down:
   exactly one structural event for the poisoned candidate. *)
let test_structural_failure_not_retried () =
  let cfg = loop_cfg () in
  let profile = profile_of cfg in
  let st = Chf.Formation.make Chf.Policy.edge_default cfg profile in
  let _ = Trace.stop () in
  Trace.start ();
  with_chaos
    (fun ~hb_id:_ ~s_id ~kind:_ -> s_id = 1)
    (fun () -> Chf.Formation.expand_block st 0);
  let evs = Trace.stop () in
  let attempts_on b1 =
    List.filter
      (fun e ->
        e.Trace.kind = "merge-attempt"
        && List.assoc "cand" e.Trace.fields = Trace.Int b1)
      evs
  in
  check Alcotest.int "poisoned candidate attempted exactly once" 1
    (List.length (attempts_on 1));
  (match attempts_on 1 with
  | [ e ] ->
    check Alcotest.bool "and the attempt is the structural reject" true
      (List.assoc "outcome" e.Trace.fields = Trace.Str "structural")
  | _ -> ());
  check Alcotest.int "one structural failure counted" 1
    (Chf.Formation.stats st).Chf.Formation.combine_failures;
  check Alcotest.int "the sibling merge still landed" 1
    (Chf.Formation.stats st).Chf.Formation.merges;
  check Alcotest.bool "failed candidate survives as its own block" true
    (Cfg.mem cfg 1)

(* Per-attempt outcomes and the stats counters must agree: the trace is
   the decision log, the counters its aggregate.  Checked for a plain
   formation run and for the IUPO ordering, whose unroll/peel step drives
   merges on a formation state of its own and folds its stats into the
   plan's record. *)
let check_trace_matches_stats label form =
  let w = Option.get (Trips_workloads.Micro.by_name "sieve") in
  let profile, _ = Trips_harness.Pipeline.profile_workload w in
  let cfg, _ = Trips_harness.Pipeline.lower_workload w in
  let _ = Trace.stop () in
  Trace.start ();
  let stats = form cfg profile in
  let evs = Trace.stop () in
  let outcome_count o =
    List.length
      (List.filter
         (fun e ->
           e.Trace.kind = "merge-attempt"
           && List.assoc "outcome" e.Trace.fields = Trace.Str o)
         evs)
  in
  let check_int what = check Alcotest.int (label ^ ": " ^ what) in
  check_int "success events = merges" stats.Chf.Formation.merges
    (outcome_count "success");
  check_int "size events = size_rejections"
    stats.Chf.Formation.size_rejections (outcome_count "size");
  check_int "structural events = combine_failures"
    stats.Chf.Formation.combine_failures (outcome_count "structural");
  check_int "success+size+structural = attempts"
    stats.Chf.Formation.attempts
    (outcome_count "success" + outcome_count "size"
    + outcome_count "structural")

let test_trace_matches_stats () =
  check_trace_matches_stats "formation" (fun cfg profile ->
      Trips_opt.Optimizer.optimize_cfg cfg;
      Chf.Formation.run Chf.Policy.edge_default cfg profile);
  check_trace_matches_stats "IUPO" (fun cfg profile ->
      Chf.Phases.apply Chf.Phases.Iupo cfg profile)

(* Tentpole acceptance: the full table-1 sweep records the same trace for
   every --jobs setting, and metrics aggregate identically. *)
let test_trace_jobs_invariant () =
  let ws =
    List.filter_map Trips_workloads.Micro.by_name [ "sieve"; "vadd"; "gzip_1" ]
  in
  let run jobs =
    Metrics.reset ();
    let _ = Trace.stop () in
    Trace.start ();
    ignore (Trips_harness.Table1.run ~cache:(Trips_harness.Stage.create ()) ~jobs ~workloads:ws ());
    let evs = Trace.stop () in
    let counters =
      (* drop timing-dependent histograms; counters are deterministic *)
      (Metrics.snapshot ()).Metrics.counters
    in
    (List.map Trace.to_json evs, counters)
  in
  let evs1, counters1 = run 1 in
  let evs4, counters4 = run 4 in
  check Alcotest.bool "some events recorded" true (List.length evs1 > 0);
  check Alcotest.(list string) "trace identical across -j 1 / -j 4" evs1 evs4;
  check
    Alcotest.(list (pair string int))
    "deterministic counters identical across -j" counters1 counters4

(* After ANY failure outcome the CFG must be bit-identical to its
   pre-attempt snapshot — blocks, entry, and the fresh-id counters (a
   leaked counter bump changes every later allocation).  Random programs,
   every classifiable (seed, cand) pair, with chaos-injected structural
   failures on half the attempts and tight limits to provoke genuine size
   rejections on the rest.  The run is under [Formation.audit], so every
   classify and live-out read that follows a restored trial snapshot is
   checked against a from-scratch solve, and a committed Simple merge
   must have removed its successor. *)
let snapshot cfg =
  ( cfg.Cfg.entry,
    cfg.Cfg.next_block,
    cfg.Cfg.next_instr,
    cfg.Cfg.next_reg,
    List.map (Cfg.block cfg) (List.sort compare (Cfg.block_ids cfg)) )

let prop_failure_rolls_back =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"any failed merge attempt leaves the CFG bit-identical"
       ~count:25
       ~print:(fun (w, _) -> Generators.print_workload w)
       QCheck2.Gen.(pair Generators.random_program_gen (int_bound 1000))
       (fun (w, salt) ->
         Chf.Formation.audit := true;
         Fun.protect ~finally:(fun () -> Chf.Formation.audit := false)
         @@ fun () ->
         let profile, _ = Trips_harness.Pipeline.profile_workload w in
         let cfg, _ = Trips_harness.Pipeline.lower_workload w in
         let tight =
           {
             Chf.Constraints.trips_limits with
             Chf.Constraints.max_instrs = 12;
           }
         in
         let config =
           { Chf.Policy.edge_default with Chf.Policy.limits = tight; slack = 0 }
         in
         let st = Chf.Formation.make config cfg profile in
         (* tolerate the lowered CFG's own parameter reads in the
            verifier, so only attempt-introduced damage is flagged *)
         let tolerated = Trips_verify.Cfg_verify.undefined_regs cfg in
         let failures = ref 0 in
         List.iter
           (fun hb_id ->
             if Cfg.mem cfg hb_id then
               List.iter
                 (fun s_id ->
                   match Chf.Formation.classify st ~hb_id ~s_id with
                   | None -> ()
                   | Some kind ->
                     let inject = (hb_id + s_id + salt) mod 2 = 0 in
                     let before = snapshot cfg in
                     let outcome =
                       with_chaos
                         (fun ~hb_id:_ ~s_id:_ ~kind:_ -> inject)
                         (fun () ->
                           Chf.Formation.merge_blocks st ~hb_id ~s_id ~kind)
                     in
                     (match outcome with
                     | Chf.Formation.Success _ ->
                       (* a committed Simple merge removes [s]; a commit
                          that restored the trial snapshot would keep it *)
                       if kind = Chf.Formation.Simple && Cfg.mem cfg s_id then
                         QCheck2.Test.fail_reportf
                           "simple merge %d <- %d kept its successor" hb_id
                           s_id
                     | Chf.Formation.Structural_failure _
                     | Chf.Formation.Size_rejected _ ->
                       incr failures;
                       if snapshot cfg <> before then
                         QCheck2.Test.fail_reportf
                           "CFG changed after failed merge %d <- %d" hb_id s_id;
                       if
                         Trips_verify.Cfg_verify.check ~allow_unreachable:true
                           ~params:tolerated cfg
                         <> []
                       then
                         QCheck2.Test.fail_reportf
                           "CFG un-verifiable after failed merge %d <- %d"
                           hb_id s_id))
                 (Block.distinct_successors (Cfg.block cfg hb_id)))
           (List.sort compare (Cfg.block_ids cfg));
         (* the generator must actually exercise the failure paths *)
         !failures > 0))

let suite =
  ( "obs",
    [
      Alcotest.test_case "trace json is stable" `Quick test_trace_json_stable;
      Alcotest.test_case "trace cell tagging" `Quick test_trace_cell_tagging;
      Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
      Alcotest.test_case "metrics gauges" `Quick test_metrics_gauges;
      Alcotest.test_case "span api" `Quick test_span_api;
      Alcotest.test_case "chrome trace is valid json" `Quick
        test_chrome_trace_valid;
      Alcotest.test_case "stage timers ride spans" `Quick
        test_stage_time_uses_span;
      Alcotest.test_case "metrics multi-domain golden" `Quick
        test_metrics_multidomain_golden;
      Alcotest.test_case "metrics quantiles" `Quick test_metrics_quantiles;
      Alcotest.test_case "one summary for both views" `Quick
        test_one_summary_both_views;
      Alcotest.test_case "structural failure never retried" `Quick
        test_structural_failure_not_retried;
      Alcotest.test_case "trace agrees with stats" `Quick
        test_trace_matches_stats;
      Alcotest.test_case "trace invariant across --jobs" `Quick
        test_trace_jobs_invariant;
      prop_failure_rolls_back;
    ] )
