(* Fuzz subsystem: generator validity, the differential oracle's
   accept/reject behavior, corpus round-trip and the committed
   reproducer replay gate, the shrinker, campaign determinism — and the
   watchdog corners the fuzzer leans on: a structured [Timed_out]
   flowing through a sweep without aborting siblings. *)

open Trips_ir
open Trips_fuzz
open Trips_workloads
open Trips_harness

let check = Alcotest.check

(* ---- generator --------------------------------------------------------- *)

(* Every CFG shape must produce a structurally valid, self-contained
   case: any oracle failure indicts the pipeline, never the input. *)
let test_gen_shapes_valid () =
  List.iter
    (fun shape ->
      List.iter
        (fun seed ->
          let case = Gen.generate shape ~seed in
          match case.Gen.payload with
          | Gen.Cfg_case { cfg; registers; _ } ->
            let params = IntSet.of_list (List.map fst registers) in
            (match
               Trips_verify.Cfg_verify.check ~allow_unreachable:false ~params
                 cfg
             with
            | [] -> ()
            | viols ->
              Alcotest.failf "%s seed %d: %a" (Gen.shape_name shape) seed
                Fmt.(list ~sep:(any "; ") Trips_verify.Cfg_verify.pp_violation)
                viols)
          | Gen.Lang_case _ -> ())
        [ 1; 77; 4242 ])
    Gen.all_shapes

let test_gen_deterministic () =
  List.iter
    (fun shape ->
      let render c = Corpus.render c in
      check Alcotest.string
        (Gen.shape_name shape ^ " deterministic per seed")
        (render (Gen.generate shape ~seed:123))
        (render (Gen.generate shape ~seed:123)))
    Gen.all_shapes

(* ---- oracle ------------------------------------------------------------ *)

(* One case per shape from the campaign stream must pass end to end
   (seed 42 is the acceptance campaign; its first round covers every
   shape). *)
let test_oracle_passes_sample () =
  List.iter
    (fun i ->
      let case = Gen.generate_nth ~base_seed:42 i in
      match Oracle.check case with
      | Oracle.Pass -> ()
      | Oracle.Fail { stage; bucket; reason } ->
        Alcotest.failf "case %d (%s): %s / %s: %s" i
          (Gen.shape_name case.Gen.shape)
          stage bucket reason)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]

(* A structurally corrupted input must be rejected up front, in the
   input-verify stage, with an [input:*] bucket — the oracle never
   blames the pipeline for a bad case. *)
let test_oracle_rejects_corruption () =
  let case = Gen.generate_nth ~base_seed:42 0 in
  match case.Gen.payload with
  | Gen.Lang_case _ -> Alcotest.fail "expected a CFG case at index 0"
  | Gen.Cfg_case { cfg; registers; mem_words } -> (
    match
      Trips_verify.Chaos.inject
        (Random.State.make [| 1 |])
        Trips_verify.Chaos.Strip_exits cfg
    with
    | None -> Alcotest.fail "no injection site for strip-exits"
    | Some inj -> (
      let corrupted =
        { case with
          Gen.payload =
            Gen.Cfg_case { cfg = inj.Trips_verify.Chaos.cfg; registers; mem_words }
        }
      in
      match Oracle.check corrupted with
      | Oracle.Pass -> Alcotest.fail "corrupted case passed the oracle"
      | Oracle.Fail { stage; bucket; _ } ->
        check Alcotest.string "rejected in input verification" "input-verify"
          stage;
        check Alcotest.bool "bucket marks a generator-side problem" true
          (String.length bucket >= 6 && String.sub bucket 0 6 = "input:")))

(* ---- corpus ------------------------------------------------------------ *)

let test_corpus_roundtrip () =
  List.iter
    (fun i ->
      let case = Gen.generate_nth ~base_seed:7 i in
      let text = Corpus.render ~bucket:"unit:test" case in
      match Corpus.parse text with
      | Error msg ->
        Alcotest.failf "%s: %s" (Gen.shape_name case.Gen.shape) msg
      | Ok entry ->
        check
          Alcotest.(option string)
          (Gen.shape_name case.Gen.shape ^ " bucket preserved")
          (Some "unit:test") entry.Corpus.bucket;
        check Alcotest.string
          (Gen.shape_name case.Gen.shape ^ " stable under re-render")
          text
          (Corpus.render ?bucket:entry.Corpus.bucket entry.Corpus.case))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_corpus_parse_error () =
  (match Corpus.parse "this is not a corpus file\n" with
  | Ok _ -> Alcotest.fail "garbage parsed"
  | Error _ -> ());
  match Corpus.parse "" with
  | Ok _ -> Alcotest.fail "empty input parsed"
  | Error _ -> ()

let test_replay_reports_parse_error () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "chfz-bad-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir "broken.chfz" in
  let oc = open_out path in
  output_string oc "not a corpus file\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.rmdir dir)
    (fun () ->
      match Fuzzer.replay ~dir with
      | Ok _ -> Alcotest.fail "broken corpus replayed"
      | Error msg ->
        check Alcotest.bool "error names the file" true
          (let sub = "broken.chfz" in
           let n = String.length sub and m = String.length msg in
           let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
           go 0))

(* The committed reproducers (minimized findings from past campaigns and
   one exemplar per shape) must all pass: a regression reopens the
   finding.  [dune runtest] runs from [_build/default/test], so the
   corpus directory is a sibling. *)
let test_corpus_replay_gate () =
  match Fuzzer.replay ~dir:"corpus" with
  | Error msg -> Alcotest.failf "corpus unreadable: %s" msg
  | Ok r ->
    check Alcotest.bool "corpus is non-empty" true (r.Fuzzer.r_executed > 0);
    List.iter
      (fun f ->
        Alcotest.failf "reproducer regressed: %s (%s)" f.Fuzzer.fd_bucket
          f.Fuzzer.fd_reason)
      r.Fuzzer.r_findings;
    check Alcotest.int "every reproducer passes" r.Fuzzer.r_executed
      r.Fuzzer.r_passed

(* ---- shrinker ---------------------------------------------------------- *)

(* Against a synthetic oracle ("any case with >= 2 blocks fails") the
   shrinker must return a smaller same-bucket failing case, never a
   passing or invalid one. *)
let test_shrink_synthetic () =
  let case = Gen.generate Gen.Nested_loops ~seed:5 in
  let blocks c =
    match c.Gen.payload with
    | Gen.Cfg_case { cfg; _ } -> Cfg.num_blocks cfg
    | Gen.Lang_case _ -> 0
  in
  let oracle c =
    if blocks c >= 2 then
      Oracle.Fail
        { stage = "unit"; bucket = "unit:too-many-blocks"; reason = "n >= 2" }
    else Oracle.Pass
  in
  let orig = blocks case in
  check Alcotest.bool "input is shrinkable" true (orig > 2);
  let min = Shrink.shrink ~oracle ~bucket:"unit:too-many-blocks" case in
  check Alcotest.bool "shrunk case is strictly smaller" true
    (blocks min < orig);
  check Alcotest.bool "shrunk case still fails in the same bucket" true
    (match oracle min with
    | Oracle.Fail { bucket = "unit:too-many-blocks"; _ } -> true
    | _ -> false);
  (* the shrunk CFG is still a valid, self-contained input *)
  match min.Gen.payload with
  | Gen.Lang_case _ -> ()
  | Gen.Cfg_case { cfg; registers; _ } ->
    let params = IntSet.of_list (List.map fst registers) in
    check Alcotest.int "shrunk case still verifies" 0
      (List.length
         (Trips_verify.Cfg_verify.check ~allow_unreachable:false ~params cfg))

(* A bucket nothing smaller reproduces: shrink must hand back the
   original case, not a passing reduction. *)
let test_shrink_keeps_original_when_stuck () =
  let case = Gen.generate Gen.Giant_block ~seed:9 in
  let oracle _ = Oracle.Pass in
  let min = Shrink.shrink ~oracle ~bucket:"unit:never" case in
  check Alcotest.string "unshrinkable case returned unchanged"
    (Corpus.render case) (Corpus.render min)

(* ---- campaign driver --------------------------------------------------- *)

let stable_of_report (r : Fuzzer.report) =
  ( (r.Fuzzer.r_seed, r.Fuzzer.r_requested, r.Fuzzer.r_executed, r.Fuzzer.r_passed),
    List.map
      (fun f ->
        (f.Fuzzer.fd_index, f.Fuzzer.fd_seed, f.Fuzzer.fd_stage,
         f.Fuzzer.fd_bucket, f.Fuzzer.fd_count))
      r.Fuzzer.r_findings )

let test_fuzzer_deterministic () =
  let run () = Fuzzer.run ~count:12 ~seed:11 () in
  check Alcotest.bool "same seed, same campaign (modulo wall clock)" true
    (stable_of_report (run ()) = stable_of_report (run ()))

let test_fuzzer_report_rendering () =
  let r = Fuzzer.run ~count:4 ~seed:11 () in
  let text = Fmt.str "%a" Fuzzer.pp_report r in
  check Alcotest.bool "summary mentions the seed" true
    (let sub = "seed 11" in
     let n = String.length sub and m = String.length text in
     let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
     go 0);
  let json = Fuzzer.report_json r in
  check Alcotest.bool "json carries the header fields" true
    (let contains sub s =
       let n = String.length sub and m = String.length s in
       let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains "\"seed\":11" json
     && contains "\"executed\":4" json
     && contains "\"findings\":[" json)

(* ---- watchdog corners -------------------------------------------------- *)

let sieve () = Option.get (Micro.by_name "sieve")

let clear_stage_policy () = Trips_obs.Watchdog.set_stage_policy ()

(* A formation stage that exhausts its budget must surface as a
   structured [Timed_out] failure naming the stage, never an opaque
   exception. *)
let test_timeout_is_structured () =
  Trips_obs.Watchdog.set_stage_policy ~fuel:1 ~stages:[ "formation" ] ();
  Fun.protect ~finally:clear_stage_policy (fun () ->
      let w = sieve () in
      match Pipeline.compile Chf.Phases.Iupo_merged w with
      | _ -> Alcotest.fail "expected a timeout"
      | exception e -> (
        let f =
          Pipeline.failure_of_exn ~workload:w ~ordering:(Some Chf.Phases.Iupo_merged) e
        in
        check Alcotest.string "phase is formation" "formation"
          f.Pipeline.fail_phase;
        match f.Pipeline.fail_kind with
        | Pipeline.Crash -> Alcotest.fail "classified as a crash"
        | Pipeline.Timed_out { to_stage; to_reason; _ } ->
          check Alcotest.string "timeout names the stage" "formation" to_stage;
          check Alcotest.bool "reason is the fuel budget" true
            (match to_reason with
            | Trips_obs.Watchdog.Fuel _ -> true
            | Trips_obs.Watchdog.Deadline _ -> false)))

(* A sweep with one cell timing out (formation fuel exhausted) and one
   crashing (a poisoned workload failing in lowering, outside the
   budgeted stage) must complete, record both structured failures with
   their distinct kinds, and still render. *)
let test_sweep_survives_timeout_and_crash () =
  let poisoned =
    let w = Option.get (Micro.by_name "vadd") in
    { w with Workload.name = "poisoned"; args = [ ("no_such_param", 1) ] }
  in
  Trips_obs.Watchdog.set_stage_policy ~fuel:1 ~stages:[ "formation" ] ();
  let outcome =
    Fun.protect ~finally:clear_stage_policy (fun () ->
        Table1.run ~workloads:[ poisoned; sieve () ] ())
  in
  let timed_out, crashed =
    List.partition
      (fun (f : Pipeline.failure) ->
        match f.Pipeline.fail_kind with
        | Pipeline.Timed_out _ -> true
        | Pipeline.Crash -> false)
      outcome.Table1.failures
  in
  check Alcotest.bool "sieve cell recorded as timed out" true
    (List.exists
       (fun (f : Pipeline.failure) -> f.Pipeline.fail_workload = "sieve")
       timed_out);
  check Alcotest.bool "poisoned cell recorded as crash" true
    (List.exists
       (fun (f : Pipeline.failure) ->
         f.Pipeline.fail_workload = "poisoned"
         && f.Pipeline.fail_phase = "lower")
       crashed);
  (* rendering the partial table must not raise *)
  ignore (Fmt.str "%a" Table1.render outcome);
  (* the policy is cleared: the same sweep now completes cleanly *)
  let healthy = Table1.run ~workloads:[ sieve () ] () in
  check Alcotest.int "no failures once the policy is cleared" 0
    (List.length healthy.Table1.failures);
  check Alcotest.int "row restored" 1 (List.length healthy.Table1.rows)

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "generator shapes valid" `Quick test_gen_shapes_valid;
      Alcotest.test_case "generator deterministic" `Quick test_gen_deterministic;
      Alcotest.test_case "oracle passes campaign sample" `Slow
        test_oracle_passes_sample;
      Alcotest.test_case "oracle rejects corrupted input" `Quick
        test_oracle_rejects_corruption;
      Alcotest.test_case "corpus round-trip" `Quick test_corpus_roundtrip;
      Alcotest.test_case "corpus parse error" `Quick test_corpus_parse_error;
      Alcotest.test_case "replay reports parse error" `Quick
        test_replay_reports_parse_error;
      Alcotest.test_case "corpus replay gate" `Slow test_corpus_replay_gate;
      Alcotest.test_case "shrinker minimizes" `Quick test_shrink_synthetic;
      Alcotest.test_case "shrinker keeps stuck case" `Quick
        test_shrink_keeps_original_when_stuck;
      Alcotest.test_case "campaign deterministic" `Slow test_fuzzer_deterministic;
      Alcotest.test_case "campaign report rendering" `Slow
        test_fuzzer_report_rendering;
      Alcotest.test_case "watchdog: structured timeout" `Quick
        test_timeout_is_structured;
      Alcotest.test_case "watchdog: sweep survives timeout and crash" `Slow
        test_sweep_survives_timeout_and_crash;
    ] )
