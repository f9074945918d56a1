(** The differential oracle: everything we can check about one case.

    For a CFG case: the input must verify cleanly and terminate (else
    the generator, not the pipeline, is at fault); then a phase ordering
    runs under {!Trips_verify.Diff_check} (structural invariants plus
    functional re-simulation after {e every} phase), the back end runs
    and the result is re-verified, the final checksum must match the
    input's, and formation under {!Chf.Formation.audit} (every cached
    liveness, loop-forest and predecessor answer checked against a
    fresh solve) must produce the identical CFG and statistics as an
    unaudited run.  For a mini-language case the full
    {!Trips_harness.Pipeline} runs with per-phase verification against
    the basic-block baseline.

    Budget limits are enforced through the phases only when the input
    itself fits them, so a case built {e near} the caps (giant blocks)
    reports only regressions. *)

type verdict =
  | Pass
  | Fail of { stage : string; bucket : string; reason : string }

val check : ?fuel:int -> Gen.case -> verdict
(** Run the full oracle stack on one case.  [fuel] (default 2M) bounds
    every functional simulation.  Never raises for a pipeline defect —
    those become [Fail] — but a {!Trips_obs.Watchdog.Timed_out} from an
    enclosing per-case scope propagates where it cannot be attributed
    to a specific oracle step. *)
