(* The staged sweep engine: domain-pool determinism (jobs-invariant
   output) and prefix-cache transparency (cache-on ≡ cache-off) of every
   paper table and figure, exception isolation per slot, and fault
   containment — a chaos-corrupted cell in a parallel sweep must produce
   one structured failure without disturbing its sibling rows. *)

open Trips_workloads
open Trips_harness

let check = Alcotest.check

(* ---- Engine.map -------------------------------------------------------- *)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected cell error: %s" (Printexc.to_string e)

let test_map_order () =
  let xs = List.init 37 Fun.id in
  let expect = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      let got = List.map ok_or_fail (Engine.map ~jobs (fun x -> x * x) xs) in
      check Alcotest.(list int) (Fmt.str "jobs=%d preserves order" jobs) expect
        got)
    [ 1; 2; 4; 64 (* more domains than items *) ]

let test_map_exception_isolation () =
  let f x = if x mod 3 = 1 then failwith (string_of_int x) else x * 2 in
  let results = Engine.map ~jobs:4 f (List.init 10 Fun.id) in
  List.iteri
    (fun i r ->
      match r with
      | Ok v ->
        check Alcotest.bool "slot not poisoned" true (i mod 3 <> 1);
        check Alcotest.int "slot value" (i * 2) v
      | Error (Failure m) ->
        check Alcotest.bool "failing slot" true (i mod 3 = 1);
        check Alcotest.string "slot's own exception" (string_of_int i) m
      | Error e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e))
    results

let test_map_empty_and_defaults () =
  check Alcotest.int "empty input" 0 (List.length (Engine.map ~jobs:8 Fun.id []));
  check Alcotest.bool "default_jobs >= 1" true (Engine.default_jobs () >= 1)

(* Regression: a Domain.spawn failure mid-pool used to leak the already-
   spawned helper domains (they were never joined).  With the injected
   spawn limit, map must still complete every slot on the calling domain
   plus the helpers that did start, join them all, and count the
   degradation in the metrics registry. *)
let test_map_degrades_on_spawn_failure () =
  Trips_obs.Metrics.reset ();
  Engine.spawn_limit_for_tests := Some 1;
  Fun.protect
    ~finally:(fun () -> Engine.spawn_limit_for_tests := None)
    (fun () ->
      let xs = List.init 40 Fun.id in
      let expect = List.map (fun x -> x * 3) xs in
      let got = List.map ok_or_fail (Engine.map ~jobs:8 (fun x -> x * 3) xs) in
      check Alcotest.(list int) "all slots complete despite spawn failure"
        expect got);
  check Alcotest.int "degradation recorded" 1
    (Trips_obs.Metrics.counter_value
       (Trips_obs.Metrics.snapshot ())
       "engine.spawn_failures");
  (* and with the limit cleared, the full pool works again *)
  let got = List.map ok_or_fail (Engine.map ~jobs:4 succ (List.init 8 Fun.id)) in
  check Alcotest.(list int) "pool restored" (List.init 8 succ) got

(* ---- sweep determinism ------------------------------------------------- *)

(* cheap microbenchmarks only: these properties re-run full table sweeps *)
let pool = [ "sieve"; "vadd"; "gzip_1"; "matrix_1"; "bzip2_3"; "ammp_1" ]

let workloads_of names = List.filter_map Micro.by_name names

let render_table1 outcome = Fmt.str "%a" Table1.render outcome

let prop_jobs_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"table1 rows are byte-identical across -j"
       ~count:4
       QCheck2.Gen.(
         pair
           (map
              (fun bits ->
                match
                  List.filteri (fun i _ -> List.nth bits (i mod List.length bits))
                    pool
                with
                | [] -> [ "sieve" ]
                | names -> names)
              (list_size (return 6) bool))
           (int_range 2 4))
       (fun (names, jobs) ->
         let ws = workloads_of names in
         let seq = render_table1 (Table1.run ~jobs:1 ~workloads:ws ()) in
         let par = render_table1 (Table1.run ~jobs ~workloads:ws ()) in
         if seq <> par then
           QCheck2.Test.fail_reportf "-j%d diverged on {%s}" jobs
             (String.concat ", " names);
         true))

let prop_cache_transparent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"prefix cache never changes table1 output"
       ~count:3
       QCheck2.Gen.(
         map
           (fun k -> List.filteri (fun i _ -> i <= k) pool)
           (int_range 1 (List.length pool - 1)))
       (fun names ->
         let ws = workloads_of names in
         let cached = Stage.create () in
         let hot = render_table1 (Table1.run ~cache:cached ~workloads:ws ()) in
         let cold =
           render_table1 (Table1.run ~cache:(Stage.disabled ()) ~workloads:ws ())
         in
         let s = Stage.stats cached in
         if s.Stage.cache_hits = 0 then
           QCheck2.Test.fail_reportf "expected cache hits on {%s}"
             (String.concat ", " names);
         if hot <> cold then
           QCheck2.Test.fail_reportf "cache changed output on {%s}"
             (String.concat ", " names);
         true))

(* The other paper experiments under the same two contracts at once: an
   uncached sequential sweep is the oracle, and a cached sweep on four
   domains must render Table 2, Figure 7 and Table 3 byte for byte. *)
let test_experiments_cache_and_jobs_invariant () =
  let micro = workloads_of [ "sieve"; "vadd"; "gzip_1" ] in
  let spec = List.filter_map Spec_like.by_name [ "mcf"; "gzip" ] in
  check Alcotest.int "two SPEC-like programs" 2 (List.length spec);
  let baselines cache =
    let k = List.assoc "stage.baseline" (Stage.store_counters cache) in
    (k.Trips_store.Store.hits, k.Trips_store.Store.misses)
  in
  (* in order: Table 2, then Table 1 (Figure 7) on the baselines Table 2
     stored, then Table 3; returns the baseline counters around Table 1 *)
  let renders ~cache ~jobs =
    let table2 =
      Fmt.str "%a" Table2.render (Table2.run ~cache ~jobs ~workloads:micro ())
    in
    let stored = baselines cache in
    let figure7 =
      Fmt.str "%a" Figure7.render (Table1.run ~cache ~jobs ~workloads:micro ())
    in
    let reused = baselines cache in
    let table3 =
      Fmt.str "%a" Table3.render (Table3.run ~cache ~jobs ~workloads:spec ())
    in
    ( [ ("table2", table2); ("figure7", figure7); ("table3", table3) ],
      (stored, reused) )
  in
  let oracle, _ = renders ~cache:(Stage.disabled ()) ~jobs:1 in
  let cached = Stage.create () in
  let hot, (stored, reused) = renders ~cache:cached ~jobs:4 in
  check Alcotest.bool "the cached sweep hit its cache" true
    ((Stage.stats cached).Stage.cache_hits > 0);
  check
    Alcotest.(pair int int)
    "Table 2 stored three baselines" (0, 3) stored;
  check
    Alcotest.(pair int int)
    "Table 1 hit the three baselines Table 2 stored" (3, 3) reused;
  List.iter2
    (fun (name, want) (_, got) ->
      check Alcotest.string (name ^ ": cache on -j4 = cache off -j1") want got)
    oracle hot

(* ---- fault containment in a parallel sweep ----------------------------- *)

(* A sweep whose cell corrupts its own measured CFG (via the chaos
   injector) for exactly one victim workload, then checksum-verifies: the
   corruption must surface as one structured failure in the victim's
   slot, with every sibling row complete — under both -j 1 and -j 4. *)
let chaos_spec victim : (string, int) Sweep.spec =
  {
    Sweep.columns = [ "clean"; "chaos" ];
    configure = (fun _ -> (Chf.Phases.Iupo_merged, Chf.Policy.edge_default));
    backend = false;
    cycles = false;
    attribution = false;
    cell =
      (fun baseline col m ->
        let c = m.Pipeline.compiled in
        let verify c =
          (Pipeline.verify_against ~baseline:baseline.Sweep.base_functional c)
            .Trips_sim.Func_sim.blocks_executed
        in
        if col = "chaos" && c.Pipeline.workload.Workload.name = victim then begin
          (* draw injection sites like Chaos.run_suite until one is
             actually observable (a dead stripped block would pass) *)
          let rng = Random.State.make [| 1234 |] in
          let rec attempt k =
            if k = 0 then Alcotest.fail "no chaos injection diverged"
            else
              match
                Trips_verify.Chaos.inject rng Trips_verify.Chaos.Strip_exits
                  c.Pipeline.cfg
              with
              | None -> Alcotest.fail "chaos injector found no site"
              | Some inj ->
                ignore (verify { c with Pipeline.cfg = inj.Trips_verify.Chaos.cfg });
                attempt (k - 1)
          in
          attempt 8
        end
        else m.Pipeline.functional.Trips_sim.Func_sim.blocks_executed);
  }

let test_parallel_chaos_containment () =
  let victim = "vadd" in
  let ws = workloads_of [ "sieve"; victim; "gzip_1" ] in
  let outcomes =
    List.map
      (fun jobs -> Sweep.run ~cache:(Stage.create ()) ~jobs (chaos_spec victim) ws)
      [ 1; 4 ]
  in
  List.iter
    (fun (o : int Sweep.outcome) ->
      check Alcotest.int "every row survives" (List.length ws)
        (List.length o.Sweep.rows);
      check Alcotest.int "exactly one structured failure" 1
        (List.length o.Sweep.failures);
      let f = List.hd o.Sweep.failures in
      check Alcotest.string "failure names the victim" victim
        f.Pipeline.fail_workload;
      List.iter
        (fun (r : int Sweep.row) ->
          let expected_cells =
            if r.Sweep.row_workload = victim then 1 else 2
          in
          check Alcotest.int
            (Fmt.str "cells of %s intact" r.Sweep.row_workload)
            expected_cells
            (List.length r.Sweep.row_cells))
        o.Sweep.rows)
    outcomes;
  let project (o : int Sweep.outcome) =
    ( List.map (fun r -> (r.Sweep.row_workload, r.Sweep.row_cells)) o.Sweep.rows,
      List.map (Fmt.str "%a" Pipeline.pp_failure) o.Sweep.failures )
  in
  match outcomes with
  | [ seq; par ] ->
    check Alcotest.bool "parallel outcome equals sequential" true
      (project seq = project par)
  | _ -> assert false

let suite =
  ( "engine",
    [
      Alcotest.test_case "map preserves input order" `Quick test_map_order;
      Alcotest.test_case "map isolates exceptions per slot" `Quick
        test_map_exception_isolation;
      Alcotest.test_case "map edge cases" `Quick test_map_empty_and_defaults;
      Alcotest.test_case "map degrades on spawn failure" `Quick
        test_map_degrades_on_spawn_failure;
      prop_jobs_invariant;
      prop_cache_transparent;
      Alcotest.test_case "tables 2, 3 and figure 7 ignore cache and -j" `Quick
        test_experiments_cache_and_jobs_invariant;
      Alcotest.test_case "parallel sweep contains a chaos-corrupted cell"
        `Quick test_parallel_chaos_containment;
    ] )
