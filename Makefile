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
# four-ordering cycles of every kernel.  The -j 1 log and table must
# match the md5s committed in test/golden/trace_check.md5.  Events are
# (cell, seq)-sorted on write, so byte comparisons are the checks; both
# runs write the log under one name, so the table's closing "written to"
# line matches too.
# Regenerate the golden, only for a change meant to alter formation
# decisions or cycles, by running this target's -j 1 lines and then
#   md5sum _build/trace-j1.jsonl _build/table1-j1.txt > test/golden/trace_check.md5
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
	md5sum -c test/golden/trace_check.md5
	@echo "trace-check: event streams and tables identical across -j 1 / -j 4 and match the golden"

# Fast-path equivalence: the formation suite includes the property test
# that formation under Formation.audit (every cached liveness, loop-forest
# and predecessor answer checked against a from-scratch solve) produces
# byte-identical CFGs, stats and traces to
# an unaudited run, on random programs and the kernels; the sim suite
# byte-compares the cycle model against the reference timing model in
# test/cycle_oracle.ml (results, attribution rows and timing traces) and
# the functional simulator and profiler against the reference
# interpreter in test/sim_oracle.ml.
equiv-check: build
	dune exec test/test_main.exe -- test formation
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
# and still serve one-shot bytes afterwards.
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

# Benchmark smoke: one short untraced run each of the paper-micro and
# spec-gen workloads of perf/ (see perf/README.md).  Every run
# byte-checks its warmup rep against perf/golden/, and the gate fails
# unless the result line (the last line on stdout) reads "correct": true.
perf-check: build
	@for w in paper-micro spec-gen; do \
	  line=$$(bash perf/run.sh --workload $$w --seed 0 --seconds 5 --trace 0 | tail -n 1); \
	  echo "perf-check $$w: $$line"; \
	  case "$$line" in *'"correct": true'*) ;; *) exit 1 ;; esac; \
	done

check: build test chaos fuzz-smoke trace-check equiv-check report-check \
	serve-smoke telemetry-check perf-check

# Every experiment: tables, figure, ablations, Bechamel micro-benchmarks.
bench-all: build
	dune exec bench/main.exe

clean:
	dune clean
