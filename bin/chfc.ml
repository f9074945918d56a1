(* chfc — the convergent-hyperblock-formation compiler driver.

   Compile a named workload under a phase ordering and policy, optionally
   dump the CFG before/after, and run the functional and cycle-level
   simulators.

     chfc list
     chfc compile sieve --ordering iupo-merged --policy bf --dump
     chfc compile bzip2_3 --policy df --no-backend
     chfc compile sieve --verify          (re-check after every phase)
     chfc chaos 42 --workload sieve       (fault-injection suite)
     chfc table1 [--workload NAME ...]   (and every other experiment:
                                          table2 / table3 / figure7 /
                                          ablation / placement) *)

open Cmdliner
open Trips_workloads
open Trips_harness

(* name resolution lives with the serve worker role, so the daemon and
   the one-shot CLI accept exactly the same names *)
let find_workload = Trips_serve.Worker.find_workload
let ordering_of_string = Trips_serve.Worker.ordering_of_name
let policy_of_string = Trips_serve.Worker.policy_of_name

(* a bad name or argument: one line on stderr, exit 2 *)
let or_exit = function
  | Ok v -> v
  | Error (`Msg m) ->
    Fmt.epr "chfc: %s@." m;
    exit 2

(* ---- flags shared by several commands ---------------------------------- *)

let ordering_arg =
  Arg.(
    value
    & opt string "iupo-merged"
    & info [ "ordering"; "o" ] ~docv:"ORDERING"
        ~doc:"Phase ordering: bb, upio, iupo, iup-o, iupo-merged.")

let policy_arg =
  Arg.(
    value & opt string "bf"
    & info [ "policy"; "p" ] ~docv:"POLICY"
        ~doc:"Block-selection policy: bf, df, vliw.")

let backend_arg =
  Arg.(
    value & opt bool true
    & info [ "backend" ] ~docv:"BOOL"
        ~doc:"Run register allocation and fanout insertion.")

let dump_arg = Arg.(value & flag & info [ "dump" ] ~doc:"Print the compiled CFG.")

(* ---- observability plumbing ------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record one JSON object per formation/optimizer decision into \
           $(docv) (JSON Lines, stable field order).  Events are sorted by \
           their (cell, seq) coordinate, so the stream is identical for \
           every $(b,--jobs) setting.")

let chrome_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome-trace" ] ~docv:"FILE"
        ~doc:
          "Record stage spans and decision events with wall-clock \
           timestamps and write them to $(docv) in Chrome trace-event \
           format (open in chrome://tracing or Perfetto).  Unlike \
           $(b,--trace), the output carries real timings and is not \
           deterministic across runs.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "After the run, print the metrics registry (formation, optimizer, \
           cache, simulator counters) as a table.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write the metrics registry to $(docv) as sorted JSON.")

let write_text_file path content =
  Out_channel.with_open_bin path (fun oc -> output_string oc content)

(* Wrap a command body in trace/metrics capture.  Tracing is off unless
   [--trace] or [--chrome-trace] was given, so untraced runs pay one
   domain-local read per would-be event; a traced run records the span
   trees and writes their event stream, their Chrome rendering or both.
   Histogram samples live in the command's scope. *)
let with_obs trace chrome metrics metrics_json f =
  Trips_obs.Metrics.reset ();
  let tracing = trace <> None || chrome <> None in
  if tracing then Trips_obs.Trace.start ();
  let finish_trace () =
    if tracing then begin
      let evs = Trips_obs.Trace.stop () in
      (match trace with
      | None -> ()
      | Some path ->
        let buf = Buffer.create 4096 in
        List.iter
          (fun ev ->
            Buffer.add_string buf (Trips_obs.Trace.to_json ev);
            Buffer.add_char buf '\n')
          evs;
        write_text_file path (Buffer.contents buf);
        Fmt.pr "trace: %d event(s) written to %s@." (List.length evs) path);
      match chrome with
      | None -> ()
      | Some path ->
        let cells = Trips_obs.Trace.span_trees () in
        write_text_file path (Trips_obs.Trace.to_chrome_json cells);
        Fmt.pr "chrome trace: %d span tree(s) written to %s@."
          (List.length cells) path
    end
  in
  match
    Trips_obs.Metrics.with_samples (fun () ->
        let v = f () in
        (v, Trips_obs.Metrics.snapshot ()))
  with
  | v, snap ->
    finish_trace ();
    if metrics then Fmt.pr "%a@." Trips_obs.Metrics.render snap;
    (match metrics_json with
    | Some path -> write_text_file path (Trips_obs.Metrics.to_json snap ^ "\n")
    | None -> ());
    v
  | exception e ->
    if tracing then ignore (Trips_obs.Trace.stop ());
    raise e

(* The four observability flags as one term yielding the [with_obs]
   wrapper.  A function, so that every command instantiates the wrapper
   at its own result type. *)
let obs_term () =
  Term.(
    const with_obs $ trace_arg $ chrome_trace_arg $ metrics_arg
    $ metrics_json_arg)

(* ---- list ------------------------------------------------------------- *)

let list_cmd =
  let doc = "List available workloads." in
  let run () =
    Fmt.pr "microbenchmarks (Tables 1-2):@.";
    List.iter
      (fun w -> Fmt.pr "  %-16s %s@." w.Workload.name w.Workload.description)
      Micro.all;
    Fmt.pr "@.store-dense stress kernels:@.";
    List.iter
      (fun w -> Fmt.pr "  %-16s %s@." w.Workload.name w.Workload.description)
      Micro.store_dense;
    Fmt.pr "@.SPEC-like programs (Table 3):@.";
    List.iter (fun w -> Fmt.pr "  %s@." w.Workload.name) Spec_like.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---- compile ---------------------------------------------------------- *)

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Re-check structural invariants and the functional checksum after \
           every formation phase; exit non-zero naming the first phase that \
           breaks.")

let emit_asm_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-asm" ] ~docv:"FILE" ~doc:"Write TRIPS assembly to $(docv).")

let emit_dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-dot" ] ~docv:"FILE" ~doc:"Write a Graphviz CFG to $(docv).")

(* The flags compile and compile-file share, as one term yielding the
   body both run on a resolved workload.  The report text itself is
   rendered by the serve worker (Trips_serve.Worker.compile_report) and
   printed verbatim, so the daemon's served replies and the one-shot CLI
   output are the same bytes by construction.  Only the side outputs
   (dump, emit-asm, emit-dot) live here. *)
let compile_term =
  let report ordering policy dump backend verify emit_asm emit_dot obs w =
    let ordering = or_exit (ordering_of_string ordering) in
    let config = or_exit (policy_of_string policy) in
    obs (fun () ->
        match
          Trips_serve.Worker.compile_report ~ordering ~config ~backend ~verify w
        with
        | Error f ->
          Fmt.epr "chfc: %a@." Pipeline.pp_failure f;
          (* a kernel that cannot be lowered or run within its fuel is a
             bad input, like a bad name; any other failure is the
             compiler's *)
          exit (match f.Pipeline.fail_phase with "lower" | "simulate" -> 2 | _ -> 1)
        | Ok (c, text) ->
          if dump then Fmt.pr "%a@.@." Trips_ir.Cfg.pp c.Pipeline.cfg;
          (match emit_asm with
          | Some path ->
            write_text_file path (Trips_regalloc.Tasm.to_string c.Pipeline.cfg);
            Fmt.pr "assembly        : written to %s@." path
          | None -> ());
          (match emit_dot with
          | Some path ->
            write_text_file path (Trips_ir.Dot.to_string c.Pipeline.cfg);
            Fmt.pr "dot graph       : written to %s@." path
          | None -> ());
          print_string text)
  in
  Term.(
    const report $ ordering_arg $ policy_arg $ dump_arg $ backend_arg
    $ verify_arg $ emit_asm_arg $ emit_dot_arg $ obs_term ())

(* one --arg NAME=VALUE binding *)
let parse_arg spec =
  let bad = Error (`Msg (Fmt.str "bad --arg %S (expected name=integer)" spec)) in
  match String.split_on_char '=' spec with
  | [ name; v ] ->
    Option.fold ~none:bad ~some:(fun n -> Ok (name, n)) (int_of_string_opt v)
  | _ -> bad

let compile_cmd =
  let doc = "Compile a workload and report simulation results." in
  let workload_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  Cmd.v
    (Cmd.info "compile" ~doc)
    Term.(
      const (fun name report -> report (or_exit (find_workload name)))
      $ workload_arg $ compile_term)

(* compile a kernel from a source file; parameters default to 0 unless
   given as name=value *)
let compile_file_cmd =
  let doc =
    "Compile a kernel source file.  The grammar is documented in \
     lib/lang/parser.mli; examples/kernels/ has sample kernels."
  in
  let path_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let args =
    Arg.(
      value & opt_all string []
      & info [ "arg" ] ~docv:"NAME=VALUE" ~doc:"Kernel parameter binding.")
  in
  let memory_words =
    Arg.(value & opt int 4096 & info [ "memory" ] ~docv:"WORDS" ~doc:"Data memory size.")
  in
  let unroll =
    Arg.(
      value & opt int 4
      & info [ "unroll" ] ~docv:"N" ~doc:"Front-end for-loop unroll factor.")
  in
  let run path args memory_words unroll report =
    if memory_words < 0 then
      or_exit (Error (`Msg (Fmt.str "bad --memory %d (expected WORDS >= 0)" memory_words)));
    let program =
      or_exit
        (try
           let src = In_channel.with_open_bin path In_channel.input_all in
           Ok (Trips_lang.Inline.program_of_unit (Trips_lang.Parser.parse_unit src))
         with
         | Trips_lang.Parser.Parse_error m | Trips_lang.Inline.Not_inlinable m ->
           Error (`Msg (path ^ ": " ^ m)))
    in
    report
      (Workload.make ~name:program.Trips_lang.Ast.prog_name
         ~description:("kernel from " ^ path)
         ~args:(List.map (fun spec -> or_exit (parse_arg spec)) args)
         ~memory_words ~frontend_unroll:unroll program)
  in
  Cmd.v
    (Cmd.info "compile-file" ~doc)
    Term.(const run $ path_arg $ args $ memory_words $ unroll $ compile_term)

(* ---- chaos ------------------------------------------------------------- *)

(* Compile a workload, then inject every fault class into the result and
   check the verifier catches each one.  Exit 1 on any escape: that is a
   verifier gap, not a compiler bug. *)
let chaos_run seed name ordering policy =
  let w = or_exit (find_workload name) in
  let ordering = or_exit (ordering_of_string ordering) in
  let config = or_exit (policy_of_string policy) in
  let c = Pipeline.compile ~config ~backend:false ordering w in
  Fmt.pr "chaos suite: %s under %s, seed %d@." w.Workload.name
    (Chf.Phases.name ordering) seed;
  let outcomes =
    Trips_verify.Chaos.run_suite ~seed ~registers:c.Pipeline.registers
      ~fresh_memory:(fun () -> Workload.memory w)
      c.Pipeline.cfg
  in
  List.iter
    (fun o -> Fmt.pr "  %a@." Trips_verify.Chaos.pp_outcome o)
    outcomes;
  let gaps = Trips_verify.Chaos.undetected outcomes in
  if gaps = [] then
    Fmt.pr "all %d injected fault classes detected@." (List.length outcomes)
  else begin
    Fmt.epr "chfc: %d fault class(es) escaped the verifier@."
      (List.length gaps);
    exit 1
  end

let chaos_cmd =
  let doc =
    "Run the seeded fault-injection suite against a compiled workload."
  in
  let seed_arg =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"SEED")
  in
  let workload =
    Arg.(
      value & opt string "sieve"
      & info [ "workload"; "w" ] ~docv:"NAME" ~doc:"Victim workload.")
  in
  Cmd.v
    (Cmd.info "chaos" ~doc)
    Term.(const chaos_run $ seed_arg $ workload $ ordering_arg $ policy_arg)

(* ---- fuzz -------------------------------------------------------------- *)

let fuzz_run seed count time_budget minimize case_deadline json_out corpus_out
    replay_dir =
  let open Trips_fuzz in
  let finish report =
    Fmt.pr "%a" Fuzzer.pp_report report;
    (match json_out with
    | Some path -> write_text_file path (Fuzzer.report_json report ^ "\n")
    | None -> ());
    if report.Fuzzer.r_findings <> [] then exit 1
  in
  match replay_dir with
  | Some dir -> (
    match Fuzzer.replay ~dir with
    | Error m ->
      Fmt.epr "chfc: fuzz: %s@." m;
      exit 2
    | Ok report -> finish report)
  | None ->
    let progress i =
      if count >= 200 && (i + 1) mod 100 = 0 then
        Fmt.epr "fuzz: %d/%d cases...@." (i + 1) count
    in
    finish
      (Fuzzer.run ~seed ~count ?time_budget_s:time_budget ~minimize
         ?corpus_out ~case_deadline_s:case_deadline ~progress ())

let fuzz_cmd =
  let doc =
    "Adversarial CFG fuzzing with a differential oracle: generated hard \
     cases run through the full pipeline, every phase is verified, \
     formation's cached answers are audited against fresh solves, and the \
     compiled result must match the input's functional checksum.  \
     Failures are bucketed by triage fingerprint; exits non-zero when any \
     bucket is non-empty."
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.") in
  let count =
    Arg.(value & opt int 200 & info [ "count" ] ~docv:"N" ~doc:"Cases to run.")
  in
  let time_budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECONDS"
          ~doc:"Stop generating new cases once this much wall-clock has elapsed.")
  in
  let minimize =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:"Shrink each bucket's first failing case to a minimal reproducer.")
  in
  let case_deadline =
    Arg.(
      value & opt float 10.0
      & info [ "case-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-case watchdog deadline; a case that exceeds it becomes a \
             timeout:* finding instead of wedging the campaign.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the campaign report as JSON to $(docv).")
  in
  let corpus_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-out" ] ~docv:"DIR"
          ~doc:"Write a (minimized) reproducer per bucket to $(docv).")
  in
  let replay_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Instead of generating cases, replay every reproducer in $(docv) \
             through the oracle; any failure is a regression.")
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const fuzz_run $ seed $ count $ time_budget $ minimize $ case_deadline
      $ json_out $ corpus_out $ replay_dir)

(* ---- experiment commands ---------------------------------------------- *)

let workloads_arg =
  Arg.(
    value & opt_all string []
    & info [ "workload"; "w" ] ~docv:"NAME" ~doc:"Restrict to these workloads.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Compile sweep rows on $(docv) domains; the default 0 means one \
           per core and $(b,--jobs 1) runs sequentially.  The rendered \
           tables are independent of $(docv).")

let cache_stats_arg =
  Arg.(
    value & flag
    & info [ "cache-stats" ]
        ~doc:
          "After the sweep, print the prefix-cache and shared-store \
           counters.")

let stage_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "stage-deadline" ] ~docv:"SECONDS"
        ~doc:
          "Bound every pipeline stage of every cell with a $(docv) watchdog \
           deadline.  A cell whose stage exceeds it reports a structured \
           timed-out failure in the table while the other cells complete.  \
           Without this flag no watchdog runs and output is byte-identical \
           to earlier releases.")

(* The sweep flags as one term yielding the sweep wrapper: install the
   stage deadline, run the body at the resolved engine width on a fresh
   cache, then print the cache counters when asked.  The body answers
   its failures, which the command turns into exit 1. *)
let sweep_term =
  let sweep jobs cache_stats deadline body =
    Option.iter
      (fun d -> Trips_obs.Watchdog.set_stage_policy ~deadline_s:d ())
      deadline;
    let cache = Stage.create () in
    let failures =
      body ~jobs:(if jobs <= 0 then Engine.default_jobs () else jobs) ~cache
    in
    if cache_stats then begin
      Fmt.pr "@.";
      List.iter
        (fun (name, (k : Trips_store.Store.counters)) ->
          Fmt.pr "%-14s : %d hit(s), %d miss(es), %d eviction(s), %d/%d \
                  entries@."
            name k.hits k.misses k.evictions k.entries k.capacity)
        (Stage.store_counters cache)
    end;
    failures
  in
  Term.(const sweep $ jobs_arg $ cache_stats_arg $ stage_deadline_arg)

(* One command per registered experiment, all with the same flags.  The
   selection rule is the daemon's: an unknown [-w] name is an error. *)
let experiment_cmd (e : Experiment.t) =
  let run names sweep obs =
    let workloads =
      or_exit
        (Trips_serve.Worker.select_workloads ~default:e.Experiment.defaults names)
    in
    let failures =
      obs (fun () ->
          sweep (fun ~jobs ~cache ->
              let text, failures = e.Experiment.render ~cache ~jobs workloads in
              print_string text;
              failures))
    in
    if failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info e.Experiment.name ~doc:e.Experiment.doc)
    Term.(const run $ workloads_arg $ sweep_term $ obs_term ())

(* ---- report ------------------------------------------------------------ *)

let report_cmd =
  let doc =
    "Per-block utilization report: slot usage, useful-instruction ratio, \
     cycle and flush attribution by lineage class, and the formation \
     decisions that shaped each hyperblock."
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report as JSON (stable field order) to $(docv).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the text report to $(docv) instead of stdout.")
  in
  let run names ordering policy sweep json out obs =
    let ordering = or_exit (ordering_of_string ordering) in
    let config = or_exit (policy_of_string policy) in
    let workloads =
      or_exit (Trips_serve.Worker.select_workloads ~default:Micro.all names)
    in
    let failures =
      obs (fun () ->
          sweep (fun ~jobs ~cache ->
              let o = Reporter.run ~config ~cache ~jobs ~ordering ~workloads () in
              (match out with
              | Some path -> write_text_file path (Fmt.str "%a" Reporter.render o)
              | None -> Reporter.render Fmt.stdout o);
              (match json with
              | Some path ->
                write_text_file path
                  (Trips_obs.Report.to_json o.Reporter.reports ^ "\n")
              | None -> ());
              o.Reporter.failures))
    in
    if failures <> [] then exit 1
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ workloads_arg $ ordering_arg $ policy_arg $ sweep_term
      $ json_arg $ out_arg $ obs_term ())

(* ---- serve / submit / stats / shutdown --------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/chfc-serve.sock"
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let with_daemon socket f =
  try Trips_serve.Client.with_conn ~socket f with
  | Unix.Unix_error (e, _, _) ->
    Fmt.epr "chfc: cannot reach daemon at %s: %s@." socket
      (Unix.error_message e);
    exit 2
  | Trips_serve.Protocol.Protocol_error m ->
    Fmt.epr "chfc: protocol error: %s@." m;
    exit 2
  | End_of_file ->
    Fmt.epr "chfc: daemon at %s hung up mid-reply@." socket;
    exit 2

let serve_cmd =
  let doc =
    "Run the resident compilation service: a daemon holding a worker-domain \
     pool and shared content-addressed artifact stores (lower+profile \
     prefixes, rendered outputs), serving compile/report/sweep requests over \
     a Unix-domain socket.  Submit work with $(b,chfc submit); stop it with \
     $(b,chfc shutdown)."
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:"Resident worker domains (0 = one per core).")
  in
  let queue_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Bound on jobs in flight; excess submissions are shed with a \
             structured overload reply (default: 4x workers).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Default per-job watchdog deadline; a request may override it. \
             An expired job answers timed-out without wedging the pool.")
  in
  let store_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "store-capacity" ] ~docv:"N"
          ~doc:"LRU capacity of each shared artifact store.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress daemon log lines.")
  in
  let slo_p99_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-p99-ms" ] ~docv:"MS"
          ~doc:
            "SLO sentinel: flip the daemon degraded when the rolling-window \
             p99 request latency exceeds this many milliseconds.")
  in
  let slo_error_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-error-rate" ] ~docv:"FRACTION"
          ~doc:
            "SLO sentinel: flip the daemon degraded when the rolling-window \
             error fraction (failed + timed out + crashed + shed) exceeds \
             this threshold.")
  in
  let trace_ring =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-ring" ] ~docv:"N"
          ~doc:
            "Keep the last N finished request traces for $(b,chfc trace) \
             (default 64).")
  in
  let run socket workers queue_depth deadline store_capacity quiet slo_p99_ms
      slo_error_rate trace_ring =
    let workers = if workers <= 0 then None else Some workers in
    let slo_p99_s = Option.map (fun ms -> ms /. 1000.0) slo_p99_ms in
    let t =
      Trips_serve.Server.start ?workers ?queue_depth
        ?default_deadline_s:deadline ?store_capacity ?slo_p99_s
        ?slo_error_rate ?trace_ring ~quiet ~socket ()
    in
    Trips_serve.Server.wait t
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ workers $ queue_depth $ deadline
      $ store_capacity $ quiet $ slo_p99_ms $ slo_error_rate $ trace_ring)

let submit_cmd =
  let doc =
    "Submit work to a running $(b,chfc serve) daemon.  By default compiles \
     one workload and prints the same report $(b,chfc compile) would; \
     $(b,--report) requests a utilization report and $(b,--table) a rendered \
     experiment table over the given (or default) workloads."
  in
  let workloads = Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD") in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-request watchdog deadline override.")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"N"
          ~doc:
            "Poison the request: fault-inject the compiled CFG so the job \
             fails inside the worker.  Exercises the daemon's per-job crash \
             isolation; sibling requests are unaffected.")
  in
  let table =
    Arg.(
      value
      & opt (some string) None
      & info [ "table" ] ~docv:"TABLE"
          ~doc:
            ("Request a rendered experiment table: "
            ^ String.concat ", "
                (List.map (fun e -> e.Experiment.name) Experiment.all)
            ^ "."))
  in
  let report =
    Arg.(
      value & flag
      & info [ "report" ] ~doc:"Request a per-block utilization report.")
  in
  let run socket names ordering policy backend verify deadline chaos_seed
      table report =
    let module C = Trips_serve.Client in
    let module P = Trips_serve.Protocol in
    let req_id, outcome =
      with_daemon socket (fun conn ->
          match (table, report) with
          | Some t, _ ->
            C.rpc_traced conn
              (P.Sweep_cell
                 {
                   P.ss_table = t;
                   ss_workloads = names;
                   ss_deadline_s = deadline;
                 })
          | None, true ->
            C.rpc_traced conn
              (P.Report
                 {
                   P.rs_workloads = names;
                   rs_ordering = ordering;
                   rs_policy = policy;
                   rs_deadline_s = deadline;
                 })
          | None, false -> (
            match names with
            | [ name ] ->
              C.rpc_traced conn
                (P.Compile
                   {
                     P.cs_workload = name;
                     cs_ordering = ordering;
                     cs_policy = policy;
                     cs_backend = backend;
                     cs_verify = verify;
                     cs_deadline_s = deadline;
                     cs_chaos_seed = chaos_seed;
                   })
            | _ ->
              Fmt.epr
                "chfc: submit: exactly one WORKLOAD expected (or use \
                 --report / --table)@.";
              exit 2))
    in
    Option.iter (fun id -> Fmt.epr "chfc: request %s@." id) req_id;
    match outcome with
    | Ok text -> print_string text
    | Error e ->
      Fmt.epr "chfc: submit: %a@." P.pp_served_error e;
      exit 1
  in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const run $ socket_arg $ workloads $ ordering_arg $ policy_arg
      $ backend_arg $ verify_arg $ deadline $ chaos_seed $ table $ report)

let stats_cmd =
  let doc =
    "Print a running daemon's scheduler and artifact-store counters, plus \
     its rolling telemetry window.  $(b,--prom) emits Prometheus text with \
     a stable line order; $(b,--watch) refreshes in place."
  in
  let prom =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:"Emit the Prometheus-style text exposition instead.")
  in
  let watch =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECONDS"
          ~doc:"Refresh every SECONDS until interrupted.")
  in
  let render_text (s : Trips_serve.Protocol.stats_payload) =
    let module P = Trips_serve.Protocol in
    let module W = Trips_obs.Metrics.Window in
    Fmt.pr "daemon      : protocol v%d, up %.1fs, %d worker domain(s)%s@."
      s.P.st_version s.P.st_uptime_s s.P.st_workers
      (if s.P.st_degraded then "  [DEGRADED]" else "");
    Fmt.pr
      "scheduler   : depth %d, pending %d, submitted %d, completed %d, shed \
       %d, timed out %d, crashed %d@."
      s.P.st_queue_depth s.P.st_pending s.P.st_submitted s.P.st_completed
      s.P.st_shed s.P.st_timed_out s.P.st_crashed;
    List.iter
      (fun k ->
        Fmt.pr "%-12s: %d hit(s), %d miss(es), %d eviction(s), %d/%d entries@."
          k.P.sc_name k.P.sc_hits k.P.sc_misses k.P.sc_evictions k.P.sc_entries
          k.P.sc_capacity)
      s.P.st_stores;
    let w = s.P.st_window in
    Fmt.pr "window      : last %.0fs@." w.W.w_span_s;
    List.iter (fun (n, v) -> Fmt.pr "  %-34s %8d@." n v) w.W.w_counters;
    List.iter (fun (n, v) -> Fmt.pr "  %-34s %12.3f  (gauge)@." n v) w.W.w_gauges;
    List.iter
      (fun (n, (h : Trips_obs.Metrics.histogram)) ->
        Fmt.pr "  %-34s n=%-5d p50=%.4f p90=%.4f p99=%.4f@." n h.h_count
          h.h_p50 h.h_p90 h.h_p99)
      w.W.w_histograms
  in
  let run socket prom watch =
    let module P = Trips_serve.Protocol in
    let fetch () =
      with_daemon socket (fun conn -> Trips_serve.Client.rpc conn P.Stats)
    in
    let show s =
      if prom then print_string (Trips_serve.Expo.render_prom s)
      else render_text s
    in
    match watch with
    | None -> show (fetch ())
    | Some period ->
      let period = Float.max 0.1 period in
      while true do
        let s = fetch () in
        (* ANSI clear-screen + home, so the display refreshes in place. *)
        print_string "\027[2J\027[H";
        show s;
        Fmt.pr "@?";
        Unix.sleepf period
      done
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ socket_arg $ prom $ watch)

let trace_cmd =
  let doc =
    "Fetch one finished request's span tree from the daemon's bounded trace \
     ring and print it (or export Chrome trace-event JSON with \
     $(b,--chrome)).  Request ids are printed by $(b,chfc submit) on \
     stderr and appear in the daemon log."
  in
  let req_id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST-ID" ~doc:"The request id, e.g. req-0f3a9c1d2e4b.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:"Write the span tree as Chrome trace-event JSON to FILE.")
  in
  let run socket req_id chrome =
    let module P = Trips_serve.Protocol in
    match
      with_daemon socket (fun conn ->
          Trips_serve.Client.rpc conn (P.Trace_of req_id))
    with
    | None ->
      Fmt.epr
        "chfc: trace: no trace for %s (unknown id, or evicted from the \
         ring; raise --trace-ring on the daemon)@."
        req_id;
      exit 1
    | Some tr -> (
      print_string (Trips_obs.Telemetry.render tr);
      match chrome with
      | None -> ()
      | Some file ->
        write_text_file file (Trips_obs.Trace.to_chrome_json [ (-1, tr) ]);
        Fmt.epr "chfc: wrote %s@." file)
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ socket_arg $ req_id $ chrome)

let shutdown_cmd =
  let doc =
    "Gracefully stop a running daemon: admitted jobs finish, the pool is \
     joined, the socket removed."
  in
  let run socket =
    with_daemon socket (fun conn ->
        Trips_serve.Client.rpc conn Trips_serve.Protocol.Shutdown);
    Fmt.pr "daemon at %s shutting down@." socket
  in
  Cmd.v (Cmd.info "shutdown" ~doc) Term.(const run $ socket_arg)

(* The one handler for what escapes a command: a file or socket the
   system refuses (an output path that cannot be written, a socket path
   that cannot be bound) is one line and exit 2, like a bad name; any
   other exception is an internal error, as cmdliner reports it. *)
let () =
  let doc = "convergent hyperblock formation for TRIPS (MICRO 2006 reproduction)" in
  let info = Cmd.info "chfc" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      ([
         list_cmd; compile_cmd; compile_file_cmd; chaos_cmd; fuzz_cmd;
         report_cmd;
       ]
      @ List.map experiment_cmd Experiment.all
      @ [ serve_cmd; submit_cmd; stats_cmd; trace_cmd; shutdown_cmd ])
  in
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Sys_error m ->
      Fmt.epr "chfc: %s@." m;
      2
    | exception Unix.Unix_error (e, fn, arg) ->
      Fmt.epr "chfc: %s%s: %s@." fn
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e);
      2
    | exception e ->
      Fmt.epr "chfc: internal error, uncaught exception:@.%s@."
        (Printexc.to_string e);
      Cmd.Exit.internal_error)
