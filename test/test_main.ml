(* Entry point for the full test suite: one Alcotest run over all
   per-library suites.  Property tests (qcheck) are registered as
   alcotest cases inside each suite. *)

let () =
  Alcotest.run "trips-chf"
    [
      Test_ir.suite;
      Test_analysis.suite;
      Test_lang.suite;
      Test_opt.suite;
      Test_transform.suite;
      Test_formation.suite;
      Test_regalloc.suite;
      Test_sim.suite;
      Test_workloads.suite;
      Test_verify.suite;
      Test_engine.suite;
      Test_obs.suite;
      Test_telemetry.suite;
      Test_provenance.suite;
      Test_fuzz.suite;
      Test_serve.suite;
      Test_cli.suite;
      Test_integration.suite;
    ]
