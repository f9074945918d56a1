(* What the benchmark declares: its workloads, its end-to-end metrics and
   its per-layer metrics.  BENCHMARK.json repeats the names, units and
   directions (plus the bounds, which only it holds); the name-drift test
   keeps the two equal.  Each per-layer metric names the end-to-end
   metric and workloads it is expected to move. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  moves : string;  (** end-to-end metric and workloads this one should move *)
}

type workload = { w_name : string; why : string }

let workloads =
  [
    { w_name = "paper-micro";
      why =
        "the paper's Tables 1-2 and Figure 7 on its 24 kernels: formation, \
         back end and cycle simulator do the work" };
    { w_name = "spec-gen";
      why =
        "Table 3 on 19 SPEC-like programs with seeded data: formation, \
         profiling and functional simulation, no back end or cycle model" };
    { w_name = "serve-miss";
      why =
        "daemon compile requests that all miss the output store, so the \
         whole pipeline runs behind the scheduler" };
  ]

let workload_names = List.map (fun w -> w.w_name) workloads

let m name unit_ better moves = { name; unit_; better; moves }

(* An operation is one whole sweep on the batch workloads and one request
   on the serve workloads. *)
let end_to_end =
  [
    m "setup_s" "s" Lower "time until the workload is ready to measure";
    m "latency_p50_ms" "ms" Lower "median time of one operation";
    m "throughput" "1/s" Higher "operations completed per second";
    m "cpu_ms_per_op" "ms" Lower "CPU time of the working process per operation";
    m "peak_rss_mb" "MB" Lower "peak resident memory of the working process";
  ]

let batch = "latency_p50_ms on paper-micro, spec-gen"
let micro_miss = "latency_p50_ms on paper-micro, serve-miss"
let all_compile = "latency_p50_ms on paper-micro, spec-gen, serve-miss"

let per_layer =
  [
    m "lang.lower_share" "ratio" Lower batch;
    m "opt.share" "ratio" Lower all_compile;
    m "opt.mwords" "Mwords" Lower all_compile;
    m "profile.share" "ratio" Lower "latency_p50_ms on spec-gen";
    m "profile.mwords" "Mwords" Lower "latency_p50_ms on spec-gen";
    m "profile.record_overhead" "ratio" Lower "latency_p50_ms on spec-gen";
    m "formation.share" "ratio" Lower all_compile;
    m "formation.mwords" "Mwords" Lower all_compile;
    m "formation.unroll_peel_share" "ratio" Lower batch;
    m "formation.attempts" "count" Lower all_compile;
    m "formation.reject_size" "count" Lower all_compile;
    m "formation.reject_structural" "count" Lower all_compile;
    m "formation.prefilter_hits" "count" Higher all_compile;
    m "formation.liveness_incremental" "count" Higher all_compile;
    m "formation.loops_reuse" "count" Higher all_compile;
    m "formation.merge_ratio" "ratio" Higher all_compile;
    m "regalloc.share" "ratio" Lower micro_miss;
    m "regalloc.mwords" "Mwords" Lower micro_miss;
    m "regalloc.rounds" "count" Lower micro_miss;
    m "regalloc.degraded" "count" Lower micro_miss;
    m "sim.func_share" "ratio" Lower "latency_p50_ms on spec-gen";
    m "sim.func_mwords" "Mwords" Lower "latency_p50_ms on spec-gen";
    m "sim.func_minstr_per_s" "Minstr/s" Higher "latency_p50_ms on spec-gen";
    m "sim.cycle_share" "ratio" Lower micro_miss;
    m "sim.cycle_mwords" "Mwords" Lower micro_miss;
    m "sim.cycle_mcycles_per_s" "Mcycles/s" Higher micro_miss;
    m "sim.cycle_memo_hit_ratio" "ratio" Higher micro_miss;
    m "harness.instantiate_share" "ratio" Lower batch;
    m "harness.render_share" "ratio" Lower batch;
    m "engine.parallelism" "ratio" Higher "throughput on every workload";
    m "engine.speedup_vs_j1" "ratio" Higher
      "latency_p50_ms on paper-micro, spec-gen; throughput on serve-miss";
    m "engine.major_gcs" "count" Lower "cpu_ms_per_op on every workload";
    m "engine.minor_gcs" "count" Lower "cpu_ms_per_op on every workload";
    m "store.content_key_us" "us" Lower "latency_p50_ms on serve-miss";
    m "store.prefix_hit_ratio" "ratio" Higher "latency_p50_ms on serve-miss, paper-micro";
    m "serve.queue_wait_share" "ratio" Lower "latency_p50_ms on serve-miss";
    m "serve.execute_share" "ratio" Lower "latency_p50_ms on serve-miss";
    m "serve.render_share" "ratio" Lower "latency_p50_ms on serve-miss";
    m "serve.transport_share" "ratio" Lower "latency_p50_ms on serve-miss";
    m "serve.codec_share" "ratio" Lower "latency_p50_ms on serve-miss";
    m "serve.bb_baseline_share" "ratio" Lower "throughput on serve-miss";
    m "trace.overhead_ratio" "ratio" Lower "none: cost of the traced run itself";
    m "trace.replica_s" "s" Lower "latency_p50_ms on every workload";
    m "trace.coverage" "ratio" Higher "none: layer busy time over replica wall";
    m "trace.replica_cells" "count" Higher "none: replica cells checked";
  ]

let better_name = function Lower -> "lower" | Higher -> "higher"

let find_metric name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
