(* The benchmark's own arithmetic and declarations: order statistics
   against Python's statistics module, the percentile reporting rule,
   the compare verdicts, and that the runner declares exactly the names
   BENCHMARK.json lists. *)

let close = Alcotest.float 1e-9

let quartiles () =
  (* expected values from Python's statistics.quantiles(d, n=4) *)
  List.iter
    (fun (d, (q1, q2, q3), med) ->
      let a, b, c = Quantile.quartiles (Array.of_list d) in
      Alcotest.check close "q1" q1 a;
      Alcotest.check close "q2" q2 b;
      Alcotest.check close "q3" q3 c;
      Alcotest.check close "median" med (Quantile.median (Array.of_list d)))
    [
      ([ 1.; 2.; 3.; 4.; 5. ], (1.5, 3.0, 4.5), 3.0);
      ([ 1.; 2.; 3.; 4. ], (1.25, 2.5, 3.75), 2.5);
      ([ 2.; 10. ], (0.0, 6.0, 12.0), 6.0);
      ([ 7.; 1.; 3. ], (1.0, 3.0, 7.0), 3.0);
      ([ 3.5; 1.25; 9.; 2.; 8.; 6.; 4. ], (2.0, 4.0, 8.0), 4.0);
    ];
  Alcotest.check close "spread is IQR over median" 1.0 (Quantile.spread [| 1.; 2.; 3.; 4. |])

let percentiles () =
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50 of 1..100" 50.0 (Quantile.nearest_rank 50.0 hundred);
  Alcotest.check close "p99 of 1..100" 99.0 (Quantile.nearest_rank 99.0 hundred);
  Alcotest.check close "p100 of 1..100" 100.0 (Quantile.nearest_rank 100.0 hundred);
  Alcotest.check close "p90 of 10" 9.0
    (Quantile.nearest_rank 90.0 (Array.init 10 (fun i -> float_of_int (10 - i))))

let reportable () =
  let check p n expected =
    Alcotest.(check bool) (Printf.sprintf "p%.0f of %d" p n) expected (Quantile.reportable p n)
  in
  check 99.0 1000 true;
  check 99.0 999 false;
  check 90.0 100 true;
  check 90.0 99 false;
  check 50.0 20 true;
  check 50.0 19 false;
  let ps = [ 90.0; 99.0; 99.9 ] in
  let n k = Array.init k float_of_int in
  let tail = Alcotest.(option (pair (float 0.) (float 0.))) in
  Alcotest.check tail "highest reportable of 1000" (Some (99.0, 989.0)) (Quantile.tail ps (n 1000));
  Alcotest.check tail "none of 50" None (Quantile.tail ps (n 50))

let verdict () =
  let v = Alcotest.testable (Fmt.of_to_string Verdict.verdict_name) ( = ) in
  let judge better base fresh =
    Verdict.judge ~better ~bound:0.1 ~base:(Array.of_list base) ~fresh:(Array.of_list fresh)
  in
  let steady = [ 100.; 101.; 99.; 100.; 102.; 98.; 100. ] in
  Alcotest.check v "within bound" Verdict.Same
    (judge Spec.Lower steady (List.map (fun x -> x *. 1.05) steady));
  Alcotest.check v "slower beyond bound" Verdict.Regressed
    (judge Spec.Lower steady (List.map (fun x -> x *. 1.2) steady));
  Alcotest.check v "lower throughput beyond bound" Verdict.Regressed
    (judge Spec.Higher steady (List.map (fun x -> x *. 0.8) steady));
  Alcotest.check v "faster beyond bound" Verdict.Improved
    (judge Spec.Lower steady (List.map (fun x -> x *. 0.8) steady));
  let wide = [ 60.; 100.; 140.; 80.; 120.; 100.; 90. ] in
  Alcotest.check v "spread wider than the bound" Verdict.Unresolved
    (judge Spec.Lower wide (List.map (fun x -> x *. 1.2) wide));
  Alcotest.check v "wide, but every new sample beats every base sample" Verdict.Improved
    (judge Spec.Lower wide (List.map (fun x -> x /. 3.0) wide))

let fail_ratio () =
  let side ?(correct = true) ?(samples = [ ("latency_p50_ms", [| 1.0 |]) ]) attempted failed =
    { Verdict.correct; attempted; failed; samples }
  in
  let compare fresh =
    Verdict.compare_sides ~bounds:[ ("latency_p50_ms", 0.1) ] ~base:[ ("w", side 100 0) ] ~fresh
  in
  let verdicts rows =
    List.map (fun r -> (r.Verdict.r_metric, Verdict.verdict_name r.Verdict.r_verdict)) rows
  in
  let check what expected fresh =
    Alcotest.(check (list (pair string string))) what expected (verdicts (compare fresh))
  in
  check "same runs pass" [ ("latency_p50_ms", "same"); ("fail_ratio", "same") ]
    [ ("w", side 100 0) ];
  check "a rising failure ratio regresses"
    [ ("latency_p50_ms", "same"); ("fail_ratio", "regressed") ]
    [ ("w", side 100 1) ];
  (* what `run` records when every run of a workload crashed *)
  check "a crashed workload regresses"
    [ ("latency_p50_ms", "regressed"); ("fail_ratio", "regressed") ]
    [ ("w", side ~correct:false ~samples:[] 1 1) ];
  check "an incorrect workload regresses"
    [ ("latency_p50_ms", "same"); ("fail_ratio", "regressed") ]
    [ ("w", side ~correct:false 100 0) ];
  check "a metric missing from NEW regresses"
    [ ("latency_p50_ms", "regressed"); ("fail_ratio", "same") ]
    [ ("w", side ~samples:[] 100 0) ];
  check "a workload missing from NEW regresses" [ ("workload", "regressed") ]
    [ ("other", side 100 0) ]

let json () =
  List.iter
    (fun x ->
      match Json.parse (Json.to_string (Json.Num x)) with
      | Json.Num y -> Alcotest.check close "round trip" x y
      | _ -> Alcotest.fail "not a number")
    [ 0.1; 1.0 /. 3.0; 3155.9235414999876; 7.736033038018384e-05; 42.0 ];
  Alcotest.(check string) "integers print bare" "{\"n\": 5}"
    (Json.to_string (Json.Obj [ ("n", Json.Num 5.0) ]))

(* The runner and BENCHMARK.json must declare the same names, units and
   directions, in the same order. *)
let names () =
  let doc = Json.of_file "../../BENCHMARK.json" in
  let field k f m = Json.str_exn k (Json.member f m) in
  let entries k = Json.to_list (Json.member k doc) in
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun (w : Spec.workload) -> (w.Spec.w_name, w.Spec.why)) Spec.workloads)
    (List.map
       (fun w -> (field "workloads" "name" w, field "workloads" "why" w))
       (entries "workloads"));
  let declared k (ms : Spec.metric list) =
    Alcotest.(check (list (triple string string string)))
      k
      (List.map
         (fun (m : Spec.metric) -> (m.Spec.name, m.Spec.unit_, Spec.better_name m.Spec.better))
         ms)
      (List.map (fun m -> (field k "name" m, field k "unit" m, field k "better" m)) (entries k))
  in
  declared "end_to_end" Spec.end_to_end;
  declared "per_layer" Spec.per_layer

let () =
  Alcotest.run "perf"
    [
      ( "quantile",
        [
          Alcotest.test_case "median and quartiles match Python" `Quick quartiles;
          Alcotest.test_case "nearest-rank percentiles" `Quick percentiles;
          Alcotest.test_case "ten samples beyond a reported percentile" `Quick reportable;
        ] );
      ( "compare",
        [
          Alcotest.test_case "same, regressed, improved, unresolved" `Quick verdict;
          Alcotest.test_case "failures, crashes and missing results" `Quick fail_ratio;
        ] );
      ("json", [ Alcotest.test_case "numbers keep every digit" `Quick json ]);
      ("names", [ Alcotest.test_case "runner matches BENCHMARK.json" `Quick names ]);
    ]
