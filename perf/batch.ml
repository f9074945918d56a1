(* The batch workloads: paper-micro (Table 1 + Figure 7 + Table 2 on the
   paper's 24 kernels) and spec-gen (Table 3 on the 19 SPEC-like
   programs).

   Every measured rep runs in a fresh child process, the way a user runs
   a sweep: process-global caches cannot carry over between reps, and the
   cold start a user pays is paid every rep.  The child reports when its
   inputs are ready (setup) and then the rep's wall and CPU time, GC
   counts, peak RSS and the digest of the rendered tables, which must
   equal the golden (or, with no golden for the seed, each other). *)

open Trips_workloads
open Trips_harness

type kind = Paper_micro | Spec_gen

let kind_of_name = function
  | "paper-micro" -> Some Paper_micro
  | "spec-gen" -> Some Spec_gen
  | _ -> None

let name = function Paper_micro -> "paper-micro" | Spec_gen -> "spec-gen"

(* spec-gen keeps each recipe's program and regenerates its data image
   from the seed: the programs (so the amount of work) stay fixed while
   branch outcomes, trip counts of data-bounded loops, profiles and so
   formation decisions change.  Seed 0 is exactly the paper's Table 3. *)
let spec_inputs seed =
  if seed = 0 then Spec_like.all
  else
    List.map2
      (fun (r : Spec_like.recipe) (w : Workload.t) ->
        {
          w with
          Workload.init_memory =
            (fun a -> Rng.fill (Rng.create ((r.Spec_like.seed * 7) + (seed * 7919))) a);
        })
      Spec_like.recipes Spec_like.all

let inputs kind seed =
  match kind with Paper_micro -> Micro.all | Spec_gen -> spec_inputs seed

let golden_file kind seed =
  match kind with
  | Paper_micro -> Some "paper_micro.txt"
  | Spec_gen when seed = 0 -> Some "spec_gen_seed0.txt"
  | Spec_gen -> None

(* One sweep, rendered; [failures] counts the sweep's structured failures
   (compile errors, checksum mismatches against the BB baseline). *)
type outcome =
  | Micro of Table1.outcome * Table2.outcome
  | Spec of Table3.outcome

let sweep kind ~jobs ~cache ws =
  match kind with
  | Paper_micro ->
    let t1 = Table1.run ~cache ~jobs ~workloads:ws () in
    Micro (t1, Table2.run ~cache ~jobs ~workloads:ws ())
  | Spec_gen -> Spec (Table3.run ~cache ~jobs ~workloads:ws ())

let render = function
  | Micro (t1, t2) ->
    Fmt.str "%a%a%a" Table1.render t1 Figure7.render t1 Table2.render t2
  | Spec t3 -> Fmt.str "%a" Table3.render t3

let failures = function
  | Micro (t1, t2) -> List.length t1.Table1.failures + List.length t2.Table2.failures
  | Spec t3 -> List.length t3.Table3.failures

(* relative to the checkout root, where perf/run.sh runs the benchmark *)
let golden_dir = "perf/golden"

let read_golden kind seed =
  Option.bind (golden_file kind seed) (fun f -> Proc.read_file (Filename.concat golden_dir f))

(* ---- child process: one rep ------------------------------------------------ *)

let child ~kind ~seed ~setup_only =
  let ws = inputs kind seed in
  let golden = read_golden kind seed in
  if golden_file kind seed <> None && golden = None then begin
    Printf.eprintf "benchmark: golden %s missing under %s\n%!"
      (Option.get (golden_file kind seed)) golden_dir;
    exit 2
  end;
  print_endline {|{"ready": true}|};
  if not setup_only then begin
    let g0 = Gc.quick_stat () in
    let c0 = Proc.self_cpu_s () in
    let wall, o =
      Proc.time (fun () -> sweep kind ~jobs:(Engine.default_jobs ()) ~cache:(Stage.create ()) ws)
    in
    let cpu = Proc.self_cpu_s () -. c0 in
    let g1 = Gc.quick_stat () in
    let count f = Json.Num (float_of_int (f g1 - f g0)) in
    let text = render o in
    let golden_ok =
      match golden with None -> Json.Null | Some g -> Json.Bool (String.equal g text)
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("wall_s", Json.Num wall);
              ("cpu_s", Json.Num cpu);
              ("minor_gcs", count (fun g -> g.Gc.minor_collections));
              ("major_gcs", count (fun g -> g.Gc.major_collections));
              ("rss_mb", Json.Num (Proc.peak_rss_mb "self"));
              ("failures", Json.Num (float_of_int (failures o)));
              ("golden", golden_ok);
              ("digest", Json.Str (Digest.to_hex (Digest.string text)));
            ]))
  end

(* ---- parent: spawn reps ------------------------------------------------------ *)

type rep = {
  setup_s : float;
  total_s : float;  (** spawn to exit *)
  result : Json.t;  (** the child's result line; Null when it failed *)
}

let child_args ~kind ~seed ~setup_only =
  [ "child"; "--workload"; name kind; "--seed"; string_of_int seed ]
  @ if setup_only then [ "--setup-only" ] else []

let spawn_rep ~kind ~seed ~setup_only =
  let t0 = Proc.now () in
  let c = Proc.spawn Sys.executable_name (child_args ~kind ~seed ~setup_only) in
  let ready = Proc.read_line c in
  let setup_s = Proc.now () -. t0 in
  let result =
    if setup_only then Json.Null
    else match Proc.read_line c with
      | Some line -> (try Json.parse line with Json.Parse_error _ -> Json.Null)
      | None -> Json.Null
  in
  let ok = Proc.wait c && ready <> None in
  { setup_s; total_s = Proc.now () -. t0; result = (if ok then result else Json.Null) }

let field k r = Option.value ~default:nan (Json.to_num (Json.member k r.result))

(* A rep failed when its child crashed, the sweep recorded failures, or
   the rendered tables differ from the golden or from the first rep. *)
let rep_failed ~first_digest r =
  match r.result with
  | Json.Null -> true
  | res ->
    field "failures" r > 0.0
    || Json.member "golden" res = Json.Bool false
    || Json.to_str (Json.member "digest" res) <> first_digest

(* Setup samples: three setup-only children plus every rep's own. *)
let setup_probes = 3

(* The first seconds of CPU work after an idle spell run up to a third
   slower on shared hosts, whichever process does them, so one discarded
   rep precedes the measured ones; it is still checked.  [seconds] bounds
   the measured reps only: the setup probes and the warmup rep run before
   it, so a whole run takes about one rep longer. *)
let measure ~kind ~seed ~seconds =
  let probes =
    List.init setup_probes (fun _ -> (spawn_rep ~kind ~seed ~setup_only:true).setup_s)
  in
  let warmup = spawn_rep ~kind ~seed ~setup_only:false in
  let t0 = Proc.now () in
  (* start another rep only while it is expected to end inside the window *)
  let rec loop acc =
    let elapsed = Proc.now () -. t0 in
    let est =
      match acc with
      | [] -> 0.0
      | _ -> Quantile.median (Array.of_list (List.map (fun r -> r.total_s) acc))
    in
    if acc <> [] && elapsed +. est > seconds then List.rev acc
    else loop (spawn_rep ~kind ~seed ~setup_only:false :: acc)
  in
  (probes, warmup, loop [])

(* End-to-end metrics of one run, each as (name, samples, value). *)
let end_to_end ~probes ~reps =
  let med a = Quantile.median a in
  let per f = Array.of_list (List.map f reps) in
  let metric name samples = (name, samples, med samples) in
  [
    metric "setup_s" (Array.of_list (probes @ List.map (fun r -> r.setup_s) reps));
    metric "latency_p50_ms" (per (fun r -> field "wall_s" r *. 1000.0));
    metric "throughput" (per (fun r -> 1.0 /. r.total_s));
    metric "cpu_ms_per_op" (per (fun r -> field "cpu_s" r *. 1000.0));
    metric "peak_rss_mb" (per (field "rss_mb"));
  ]

(* (attempted, failed) over the warmup and the measured reps. *)
let verdict ~warmup reps =
  let all = warmup :: reps in
  let first_digest = Json.to_str (Json.member "digest" warmup.result) in
  (List.length all, List.length (List.filter (rep_failed ~first_digest) all))

(* ---- traced run ---------------------------------------------------------------- *)

(* Replica of every cell of one sweep outcome, plus rendering; returns
   the rendered text (which must equal the measured text). *)
let replicate ws o =
  let prefixes = List.map Replica.prefix ws in
  let pre_of name =
    List.find (fun (p : Stage.prefix) -> p.Stage.pre_workload.Workload.name = name) prefixes
  in
  (match o with
  | Micro (t1, t2) ->
    List.iter
      (fun (r : Table1.row) -> Replica.table1_row (pre_of r.Table1.workload) r)
      t1.Table1.rows;
    List.iter
      (fun (r : Table2.row) -> Replica.table2_row (pre_of r.Table2.workload) r)
      t2.Table2.rows
  | Spec t3 ->
    List.iter
      (fun (r : Table3.row) -> Replica.table3_row (pre_of r.Table3.workload) r)
      t3.Table3.rows);
  let text = Span.with_span ~layer:"harness.render" "render" (fun () -> render o) in
  (prefixes, text)

(* The traced run: a warmup rep, an untraced sweep at -j1 (in process,
   for the tables the replica must reproduce and for
   engine.speedup_vs_j1), one default-jobs rep in a child, then the
   replica under spans. *)
let traced ~kind ~seed ~trace_file =
  let ws = inputs kind seed in
  let golden = read_golden kind seed in
  let warmup = spawn_rep ~kind ~seed ~setup_only:false in
  Trips_obs.Metrics.reset ();
  let cache = Stage.create () in
  let wall_j1, o = Proc.time (fun () -> sweep kind ~jobs:1 ~cache ws) in
  let snap = Trips_obs.Metrics.snapshot () in
  let counter = Trips_obs.Metrics.counter_value snap in
  let text_j1 = render o in
  let rep = spawn_rep ~kind ~seed ~setup_only:false in
  Replica.reset ();
  let replica_s, (prefixes, text_replica) = Proc.time (fun () -> replicate ws o) in
  let overhead = Replica.record_overhead prefixes in
  Replica.write_trace trace_file (Span.to_chrome ());
  let ratio = Replica.ratio in
  let stats = Stage.stats cache in
  let wall_jn = field "wall_s" rep in
  let layer =
    Replica.layer_metrics ~replica_s
    @ Replica.counter_metrics (fun k -> float_of_int (counter k))
    @ [
        ("profile.record_overhead", overhead);
        ("engine.parallelism", ratio (field "cpu_s" rep) wall_jn);
        ("engine.speedup_vs_j1", ratio wall_j1 wall_jn);
        ("engine.major_gcs", field "major_gcs" rep);
        ("engine.minor_gcs", field "minor_gcs" rep);
        ( "store.prefix_hit_ratio",
          ratio (float_of_int stats.Stage.cache_hits)
            (float_of_int (stats.Stage.cache_hits + stats.Stage.cache_misses)) );
        ("serve.queue_wait_share", 0.0);
        ("serve.execute_share", 0.0);
        ("serve.render_share", 0.0);
        ("serve.transport_share", 0.0);
        ("serve.codec_share", 0.0);
        ("serve.bb_baseline_share", 0.0);
        ("trace.overhead_ratio", (replica_s /. wall_j1) -. 1.0);
      ]
  in
  let first_digest = Some (Digest.to_hex (Digest.string text_j1)) in
  Replica.finish ~layer ~attempted:(3 + Replica.tally.Replica.cells)
    [
      ("-j1 sweep has no failures", failures o = 0);
      ("-j1 output equals the golden", (match golden with None -> true | Some g -> g = text_j1));
      ("replica render equals the measured render", text_replica = text_j1);
      ("default-jobs reps equal the -j1 sweep",
        not (rep_failed ~first_digest rep || rep_failed ~first_digest warmup));
    ]
