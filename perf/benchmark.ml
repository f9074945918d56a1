(* The repeatable benchmark.  Subcommands:

     bench --workload W --seed S --seconds T --trace 0|1
         one run of one workload; the last stdout line is the result
         object {correct, attempted, failed, metrics}: every end-to-end
         metric with --trace 0, every per-layer metric with --trace 1.
         A detailed copy (samples, quartiles, load) goes to --out.
     run --seed S [--seconds T] [--runs N] [--out DIR]
         every workload, untraced then traced, each in its own child
         process; prints every metric with unit, median, [q1, q3] and
         sample count, and writes DIR/result.json and DIR/trace-*.json.
     compare BASE.json NEW.json
         judge each (end-to-end metric, workload) pair against the
         bounds in BENCHMARK.json; exit 1 on a regression.
     golden
         regenerate perf/golden/ from the current build.

   See perf/README.md for the workloads, metrics and how to read the
   traces. *)

let usage () =
  prerr_endline
    "usage: benchmark.exe (bench|run|compare|golden) [options]; see perf/README.md";
  exit 2

(* ---- options ------------------------------------------------------------- *)

type opts = {
  mutable workload : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : int;
  mutable runs : int;
  mutable out : string;
  mutable setup_only : bool;
  mutable positional : string list;
}

let parse_opts args =
  let o =
    {
      workload = [];
      seed = 0;
      seconds = 30.0;
      trace = 0;
      runs = 1;
      out = "_perf";
      setup_only = false;
      positional = [];
    }
  in
  let int_of k v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "benchmark: %s expects an integer, got %S\n" k v;
      exit 2
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o.workload <- o.workload @ [ v ]; go rest
    | "--seed" :: v :: rest -> o.seed <- int_of "--seed" v; go rest
    | "--seconds" :: v :: rest -> o.seconds <- float_of_int (int_of "--seconds" v); go rest
    | "--trace" :: v :: rest -> o.trace <- int_of "--trace" v; go rest
    | "--runs" :: v :: rest -> o.runs <- max 1 (int_of "--runs" v); go rest
    | "--out" :: v :: rest -> o.out <- v; go rest
    | "--setup-only" :: rest -> o.setup_only <- true; go rest
    | v :: rest when String.length v > 0 && v.[0] <> '-' ->
      o.positional <- o.positional @ [ v ];
      go rest
    | v :: _ ->
      Printf.eprintf "benchmark: unknown option %s\n" v;
      exit 2
  in
  go args;
  o

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ()
  end

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let unit_of name =
  match Spec.find_metric name with Some m -> m.Spec.unit_ | None -> "?"

(* ---- bench: one run of one workload --------------------------------------- *)

(* A metric as JSON: value and unit, plus quartiles, count and samples
   when it has samples. *)
let metric_json ?(samples = [||]) value name =
  let base = [ ("value", Json.Num value); ("unit", Json.Str (unit_of name)) ] in
  if Array.length samples = 0 then Json.Obj base
  else
    let q1, _, q3 = Quantile.quartiles samples in
    Json.Obj
      (base
      @ [
          ("q1", Json.Num q1);
          ("q3", Json.Num q3);
          ("n", Json.Num (float_of_int (Array.length samples)));
          ("samples", Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) samples)));
        ])

let print_metric name value samples =
  if Array.length samples = 0 then Printf.eprintf "  %-32s %14.4f %s\n" name value (unit_of name)
  else
    let q1, _, q3 = Quantile.quartiles samples in
    Printf.eprintf "  %-32s %14.4f %-9s [%.4f, %.4f]  n=%d\n" name value (unit_of name) q1 q3
      (Array.length samples)

let bench o =
  let w = match o.workload with [ w ] -> w | _ -> usage () in
  if not (List.mem w Spec.workload_names) then begin
    Printf.eprintf "benchmark: unknown workload %S (%s)\n" w
      (String.concat ", " Spec.workload_names);
    exit 2
  end;
  mkdir_p o.out;
  let nproc = Proc.nproc () in
  let load_before = Proc.loadavg () in
  let trace_file = Filename.concat o.out (Printf.sprintf "trace-%s.json" w) in
  (* (metrics as (name, samples, value), attempted, failed, reps, latency
     tail); per-layer metrics carry no samples *)
  let metrics, attempted, failed, reps, tail =
    match Batch.kind_of_name w with
    | Some kind ->
      if Batch.golden_file kind o.seed <> None
         && Batch.read_golden kind o.seed = None
      then begin
        Printf.eprintf "benchmark: no golden for %s under %s\n" w Batch.golden_dir;
        exit 2
      end;
      if o.trace = 0 then
        let probes, warmup, reps =
          Batch.measure ~kind ~seed:o.seed ~seconds:o.seconds
        in
        let attempted, failed = Batch.verdict ~warmup reps in
        (Batch.end_to_end ~probes ~reps, attempted, failed, List.length reps, None)
      else
        let r = Batch.traced ~kind ~seed:o.seed ~trace_file in
        (List.map (fun (n, v) -> (n, [||], v)) r.Replica.layer, r.Replica.attempted,
         r.Replica.failed, 1, None)
    | None ->
      if o.trace = 0 then
        let warmup, segs =
          Serve_load.measure ~seed:o.seed ~seconds:o.seconds ~out:o.out ~workers:nproc
            ~clients:nproc
        in
        let attempted, failed, store_ok = Serve_load.verdict ~seed:o.seed (warmup :: segs) in
        ( Serve_load.end_to_end segs,
          attempted,
          (failed + if store_ok then 0 else 1),
          List.length segs,
          Serve_load.latency_tail segs )
      else
        let r =
          Serve_load.traced ~seed:o.seed ~seconds:o.seconds ~out:o.out ~workers:nproc
            ~clients:nproc ~trace_file
        in
        (List.map (fun (n, v) -> (n, [||], v)) r.Replica.layer, r.Replica.attempted,
         r.Replica.failed, 1, None)
  in
  let declared = if o.trace = 0 then Spec.end_to_end else Spec.per_layer in
  let ordered =
    List.map
      (fun (m : Spec.metric) ->
        match List.find_opt (fun (n, _, _) -> n = m.Spec.name) metrics with
        | Some x -> x
        | None -> failwith ("benchmark: metric not measured: " ^ m.Spec.name))
      declared
  in
  let correct = failed = 0 in
  Printf.eprintf "%s seed %d trace %d: %d attempted, %d failed%s\n" w o.seed o.trace attempted
    failed (if correct then "" else " (INCORRECT)");
  List.iter (fun (n, samples, v) -> print_metric n v samples) ordered;
  Option.iter
    (fun (p, v, n) -> Printf.eprintf "  latency tail: p%g = %.4f ms over %d requests\n" p v n)
    tail;
  let detail =
    Json.Obj
      [
        ("workload", Json.Str w);
        ("seed", Json.Num (float_of_int o.seed));
        ("trace", Json.Num (float_of_int o.trace));
        ("seconds", Json.Num o.seconds);
        ("jobs", Json.Num (float_of_int (Trips_harness.Engine.default_jobs ())));
        ("nproc", Json.Num (float_of_int nproc));
        ("reps", Json.Num (float_of_int reps));
        ( "latency_tail",
          match tail with
          | Some (p, v, n) ->
            Json.Obj
              [ ("percentile", Json.Num p); ("ms", Json.Num v);
                ("requests", Json.Num (float_of_int n)) ]
          | None -> Json.Null );
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int attempted));
        ("failed", Json.Num (float_of_int failed));
        ("loadavg_before", Json.Arr (List.map (fun x -> Json.Num x) load_before));
        ("loadavg_after", Json.Arr (List.map (fun x -> Json.Num x) (Proc.loadavg ())));
        ( "metrics",
          Json.Obj (List.map (fun (n, samples, v) -> (n, metric_json ~samples v n)) ordered) );
      ]
  in
  write_file
    (Filename.concat o.out (Printf.sprintf "bench-%s-trace%d.json" w o.trace))
    (Json.to_string ~indent:2 detail ^ "\n");
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ( "metrics",
              Json.Obj (List.map (fun (n, _, v) -> (n, metric_json v n)) ordered) );
          ]))

(* ---- run: every workload, untraced and traced ------------------------------ *)

let git_commit () =
  try
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let spawn_bench o ~workload ~seed ~trace =
  let args =
    [ "bench"; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%.0f" o.seconds; "--trace"; string_of_int trace; "--out"; o.out ]
  in
  let c = Proc.spawn Sys.executable_name args in
  let rec drain () = match Proc.read_line c with Some _ -> drain () | None -> () in
  drain ();
  let ok = Proc.wait c in
  let detail = Filename.concat o.out (Printf.sprintf "bench-%s-trace%d.json" workload trace) in
  if ok && Sys.file_exists detail then Some (Json.of_file detail) else None

let run o =
  mkdir_p o.out;
  let workloads = if o.workload = [] then Spec.workload_names else o.workload in
  let nproc = Proc.nproc () in
  let load_before = Proc.loadavg () in
  let num k d = Option.value ~default:0.0 (Json.to_num (Json.member k d)) in
  let field d name k = Json.member k (Json.member name (Json.member "metrics" d)) in
  let per_workload =
    List.map
      (fun w ->
        let seeds = List.init o.runs (fun i -> o.seed + i) in
        let results = List.map (fun seed -> spawn_bench o ~workload:w ~seed ~trace:0) seeds in
        let untraced = List.filter_map Fun.id results in
        let crashed = List.length results - List.length untraced in
        let traced = spawn_bench o ~workload:w ~seed:o.seed ~trace:1 in
        (w, untraced, crashed, traced))
      workloads
  in
  let load_after = Proc.loadavg () in
  let jobs = Trips_harness.Engine.default_jobs () in
  let stamp =
    Json.Obj
      [
        ("commit", Json.Str (git_commit ()));
        ("seed", Json.Num (float_of_int o.seed));
        ("runs", Json.Num (float_of_int o.runs));
        ("seconds", Json.Num o.seconds);
        ("jobs", Json.Num (float_of_int jobs));
        ("nproc", Json.Num (float_of_int nproc));
        ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("loadavg_before", Json.Arr (List.map (fun x -> Json.Num x) load_before));
        ("loadavg_after", Json.Arr (List.map (fun x -> Json.Num x) load_after));
        ( "noisy",
          Json.Bool (match load_before with l1 :: _ -> l1 > float_of_int nproc | [] -> false) );
      ]
  in
  Printf.printf "commit %s, seed %d, %d run(s) of %.0f s, jobs %d, nproc %d, OCaml %s\n"
    (git_commit ()) o.seed o.runs o.seconds jobs nproc Sys.ocaml_version;
  let all_ok = ref true in
  let workloads_json =
    List.map
      (fun (w, untraced, crashed, traced) ->
        let sum k = List.fold_left (fun acc d -> acc +. num k d) 0.0 untraced in
        (* a run that crashed or printed no result is one failed attempt *)
        let crashed = float_of_int crashed in
        let attempted = sum "attempted" +. crashed and failed = sum "failed" +. crashed in
        let traced_failed = match traced with Some d -> num "failed" d | None -> 1.0 in
        let correct = untraced <> [] && failed = 0.0 && traced_failed = 0.0 in
        if not correct then all_ok := false;
        Printf.printf "\n== %s: %s, %.0f attempted, %.0f failed (fail_ratio %.4f); traced: %s\n" w
          (if correct then "correct" else "INCORRECT") attempted failed
          (if attempted > 0.0 then failed /. attempted else 0.0)
          (match traced with
          | Some d -> Printf.sprintf "%.0f checks, %.0f failed" (num "attempted" d) (num "failed" d)
          | None -> "did not complete");
        let e2e =
          List.filter_map
            (fun (m : Spec.metric) ->
              let name = m.Spec.name in
              let values = List.filter_map (fun d -> Json.to_num (field d name "value")) untraced in
              let samples =
                Array.of_list
                  (List.concat_map
                     (fun d -> List.filter_map Json.to_num (Json.to_list (field d name "samples")))
                     untraced)
              in
              if values = [] || Array.length samples = 0 then None
              else begin
                let value = Quantile.median (Array.of_list values) in
                let q1, _, q3 = Quantile.quartiles samples in
                Printf.printf "  %-32s %14.4f %-9s median, [%.4f, %.4f], n=%d\n" name value
                  m.Spec.unit_ q1 q3 (Array.length samples);
                Some (name, metric_json ~samples value name)
              end)
            Spec.end_to_end
        in
        let layer =
          match traced with
          | None -> []
          | Some d ->
            List.filter_map
              (fun (m : Spec.metric) ->
                match Json.to_num (field d m.Spec.name "value") with
                | Some v ->
                  Printf.printf "  %-32s %14.4f %-9s moves %s\n" m.Spec.name v m.Spec.unit_
                    m.Spec.moves;
                  Some (m.Spec.name, metric_json v m.Spec.name)
                | None -> None)
              Spec.per_layer
        in
        Json.Obj
          [
            ("name", Json.Str w);
            ("correct", Json.Bool correct);
            ("attempted", Json.Num attempted);
            ("failed", Json.Num failed);
            ("reps", Json.Num (sum "reps"));
            ("end_to_end", Json.Obj e2e);
            ("per_layer", Json.Obj layer);
            ( "traced",
              match traced with
              | Some d ->
                Json.Obj
                  [ ("attempted", Json.member "attempted" d); ("failed", Json.member "failed" d) ]
              | None -> Json.Null );
          ])
      per_workload
  in
  let result = Json.Obj [ ("stamp", stamp); ("workloads", Json.Arr workloads_json) ] in
  let path = Filename.concat o.out "result.json" in
  write_file path (Json.to_string ~indent:2 result ^ "\n");
  Printf.printf "\nwrote %s and %s/trace-<workload>.json\n" path o.out;
  if not !all_ok then exit 1

(* ---- compare --------------------------------------------------------------- *)

let compare_cmd o =
  let base, fresh = match o.positional with [ a; b ] -> (a, b) | _ -> usage () in
  let bounds = Verdict.bounds_of_benchmark (Json.of_file "BENCHMARK.json") in
  let rows =
    Verdict.compare_sides ~bounds
      ~base:(Verdict.sides_of_result (Json.of_file base))
      ~fresh:(Verdict.sides_of_result (Json.of_file fresh))
  in
  Printf.printf "%-12s %-16s %14s %14s %9s %7s  %s\n" "workload" "metric" "base" "new" "change"
    "bound" "verdict";
  List.iter
    (fun (r : Verdict.row) ->
      Printf.printf "%-12s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n" r.Verdict.r_workload
        r.Verdict.r_metric r.Verdict.r_base r.Verdict.r_new (100.0 *. r.Verdict.r_change)
        (100.0 *. r.Verdict.r_bound) (Verdict.verdict_name r.Verdict.r_verdict))
    rows;
  if Verdict.regressed rows then exit 1

(* ---- golden ---------------------------------------------------------------- *)

let golden () =
  mkdir_p Batch.golden_dir;
  List.iter
    (fun kind ->
      let file = Option.get (Batch.golden_file kind 0) in
      let out =
        Batch.sweep kind ~jobs:(Trips_harness.Engine.default_jobs ())
          ~cache:(Trips_harness.Stage.create ()) (Batch.inputs kind 0)
      in
      if Batch.failures out > 0 then begin
        Printf.eprintf "benchmark: %s sweep recorded failures; golden not written\n" file;
        exit 1
      end;
      let path = Filename.concat Batch.golden_dir file in
      write_file path (Batch.render out);
      Printf.printf "wrote %s\n" path)
    [ Batch.Paper_micro; Batch.Spec_gen ]

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: args -> (
    let o = parse_opts args in
    match cmd with
    | "bench" -> bench o
    | "child" -> (
      match o.workload with
      | [ w ] -> (
        match Batch.kind_of_name w with
        | Some kind ->
          Batch.child ~kind ~seed:o.seed ~setup_only:o.setup_only
        | None -> usage ())
      | _ -> usage ())
    | "run" -> run o
    | "compare" -> compare_cmd o
    | "golden" -> golden ()
    | _ -> usage ())
  | _ -> usage ()
