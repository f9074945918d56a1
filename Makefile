# Convenience targets; everything is plain dune underneath.

CHAOS_SEED ?= 42
FUZZ_SEED ?= 42

.PHONY: all build test chaos fuzz-smoke trace-check equiv-check report-check \
	serve-smoke telemetry-check perf-check check bench-all clean

all: build

build:
	dune build

test: build
	dune runtest

# Fault-injection suite: every injected fault class must be detected.
chaos: build
	dune exec bin/chfc.exe -- chaos $(CHAOS_SEED) --workload sieve
	dune exec bin/chfc.exe -- chaos $(CHAOS_SEED) --workload gzip_1 --ordering upio

# Fuzz smoke: a fixed-seed ~200-case adversarial campaign (exits non-zero
# on any finding) plus a replay of the committed regression corpus, whose
# pass rate must be 100%.  The time budget keeps a pathological machine
# from wedging the gate; early-stopped campaigns still report.
fuzz-smoke: build
	dune exec bin/chfc.exe -- fuzz --seed $(FUZZ_SEED) --count 200 --time-budget 120
	dune exec bin/chfc.exe -- fuzz --replay test/corpus

# Trace determinism and freeze: the formation decision log of table 1
# over every micro kernel (the 24 plus the store-dense ones, whose
# rejects hit the load/store budget) must be identical under -j 1 and
# -j 4, and so must the table itself, which freezes the BB and
# four-ordering cycles of every kernel.  The same holds for table 3's
# decision log and table over the 19 SPEC-like programs, which pins
# formation's merge decisions on large CFGs (loops, tail duplication,
# the retry pool).  The -j 1 logs and table 1 must match the md5s
# committed in test/golden/trace_check.md5 (the rendered table 3 is
# already pinned by perf/golden/spec_gen_seed0.txt).  Events are (cell,
# seq)-sorted on write, so byte comparisons are the checks; both runs
# write each log under one name, so the tables' closing "written to"
# lines match too.
# Regenerate the golden, only for a change meant to alter formation
# decisions or cycles, by running this target's -j 1 lines and then
#   md5sum _build/trace-j1.jsonl _build/table1-j1.txt _build/trace3-j1.jsonl > test/golden/trace_check.md5
TRACE_KERNELS = ammp_1 ammp_2 art_1 art_2 art_3 bzip2_1 bzip2_2 bzip2_3 \
	dct8x8 dhry doppler_GMTI equake_1 fft2_GMTI fft4_GMTI forward_GMTI \
	gzip_1 gzip_2 matrix_1 parser_1 sieve transpose_GMTI twolf_1 twolf_3 \
	vadd fill12 fill16

trace-check: build
	dune exec bin/chfc.exe -- table1 $(TRACE_KERNELS:%=-w %) -j 1 --trace _build/trace.jsonl > _build/table1-j1.txt
	mv _build/trace.jsonl _build/trace-j1.jsonl
	dune exec bin/chfc.exe -- table1 $(TRACE_KERNELS:%=-w %) -j 4 --trace _build/trace.jsonl > _build/table1-j4.txt
	mv _build/trace.jsonl _build/trace-j4.jsonl
	cmp _build/trace-j1.jsonl _build/trace-j4.jsonl
	cmp _build/table1-j1.txt _build/table1-j4.txt
	dune exec bin/chfc.exe -- table3 -j 1 --trace _build/trace.jsonl > _build/table3-j1.txt
	mv _build/trace.jsonl _build/trace3-j1.jsonl
	dune exec bin/chfc.exe -- table3 -j 4 --trace _build/trace.jsonl > _build/table3-j4.txt
	mv _build/trace.jsonl _build/trace3-j4.jsonl
	cmp _build/trace3-j1.jsonl _build/trace3-j4.jsonl
	cmp _build/table3-j1.txt _build/table3-j4.txt
	md5sum -c test/golden/trace_check.md5
	@echo "trace-check: event streams and tables identical across -j 1 / -j 4 and match the golden"

# Fast-path equivalence: the formation suite includes the property test
# that formation under Formation.audit (every cached liveness and
# predecessor answer, the whole patched successor and predecessor maps
# after every edit, and every loop-header and back-edge answer of the
# cached dominator tree, checked against a from-scratch solve) produces
# byte-identical CFGs, stats and traces to an unaudited run, on random
# programs, the kernels and three SPEC-like programs, a directed test
# that a rolled-back trial keeps the cached dominator tree, and one that
# the seed pick breaks count ties in reverse postorder and prunes a
# stranded block before the next seed; the obs suite
# runs the failed-trial rollback property (tight limits, chaos-injected
# combine failures) under the audit and checks that the merge-attempt
# trace agrees with the statistics, for formation and for IUPO; the
# analysis suite checks the dominator tree against a naive solver (random
# CFGs and the sparse ids formation leaves), gen/kill against the
# quadratic reference, that gen/kill's soft set is disjoint from hard
# and kill (the two-term transfer relies on it), and Liveness.compute,
# Liveness.update and the trial region solve (Liveness.live_out_at)
# against the round-robin reference in test/liveness_oracle.ml, on
# random CFGs and on negative and above-2^30 registers; the sim suite byte-compares the
# cycle model against the reference timing model in test/cycle_oracle.ml
# (results, attribution rows and timing traces) and the functional
# simulator and profiler against the reference interpreter in
# test/sim_oracle.ml.
equiv-check: build
	dune exec test/test_main.exe -- test analysis
	dune exec test/test_main.exe -- test formation
	dune exec test/test_main.exe -- test obs
	dune exec test/test_main.exe -- test sim

# Report determinism and freeze: the per-block utilization report over
# every micro kernel (per-block cycles, attribution classes and flushes)
# must be byte-identical under -j 1 and -j 4 and match the committed
# golden (the cycle model has no wall clock, so the golden is
# machine-independent too).  Regenerate it, only for a change meant to
# alter cycles or attribution, with
#   cp _build/report-j1.txt test/golden/report_check.txt
report-check: build
	dune exec bin/chfc.exe -- report $(TRACE_KERNELS:%=-w %) -j 1 --out _build/report-j1.txt
	dune exec bin/chfc.exe -- report $(TRACE_KERNELS:%=-w %) -j 4 --out _build/report-j4.txt
	cmp _build/report-j1.txt _build/report-j4.txt
	cmp _build/report-j1.txt test/golden/report_check.txt
	@echo "report-check: reports identical across -j 1 / -j 4 and match the golden"

# End-to-end gate for the resident compile service: boots a daemon on a
# private socket, replays good / chaos-poisoned / past-deadline requests
# over real connections, byte-compares a served compile against the
# one-shot pipeline, checks the stats accounting, and asserts a clean
# drain-and-unlink shutdown.  A second daemon with the SLO sentinel armed
# and one admission slot takes a simultaneous burst: it must shed with
# Overloaded (stats agreeing), flip to degraded with exactly one breach,
# and still serve one-shot bytes afterwards.  A third daemon soaks:
# 1000 requests that all miss its output store (capacity one, two
# alternating sources) must leave every lifetime-registry histogram's
# retained sample count flat after warm-up and the trace ring within its
# capacity (about 20 s).
serve-smoke: build
	dune exec tools/serve_smoke.exe

# Request-scoped telemetry gate: boots a daemon, drives a deterministic
# request mix, byte-compares the Prometheus exposition against the
# committed golden (volatile floats masked; integers are structural),
# replays one request's span tree from the daemon ring asserting
# well-formedness, and checks a served reply stays byte-identical to the
# one-shot pipeline with telemetry collecting.  Regenerate the golden
# with --write-golden.
telemetry-check: build
	dune exec tools/telemetry_check.exe

# Benchmark smoke: one short untraced run of each perf/ workload (see
# perf/README.md): paper-micro and spec-gen byte-check their warmup rep
# against perf/golden/, and serve-miss drives a daemon with compile
# requests that all miss its output store and checks every reply.  The
# gate fails unless each result line (the last line on stdout) reads
# "correct": true.
perf-check: build
	@for w in paper-micro spec-gen serve-miss; do \
	  line=$$(bash perf/run.sh --workload $$w --seed 0 --seconds 5 --trace 0 | tail -n 1); \
	  echo "perf-check $$w: $$line"; \
	  case "$$line" in *'"correct": true'*) ;; *) exit 1 ;; esac; \
	done

check: build test chaos fuzz-smoke trace-check equiv-check report-check \
	serve-smoke telemetry-check perf-check

# Every EXPERIMENTS.md block: the paper's Tables 1-3 and Figure 7, the
# design-knob ablation and the placement study, one chfc command each
# (`chfc --help` lists them; each takes -w, -j and the observability flags).
EXPERIMENTS = table1 table2 table3 figure7 ablation placement

bench-all: build
	@for e in $(EXPERIMENTS); do \
	  echo "== chfc $$e"; \
	  dune exec bin/chfc.exe -- $$e || exit 1; \
	done

clean:
	dune clean
