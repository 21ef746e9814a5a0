# Convenience targets for the distfdk reproduction. Everything is plain
# `go` underneath; these just name the common workflows.

GO ?= go

.PHONY: all build test race check fuzz-smoke chaos chaos-recover trace-smoke status-smoke transport-smoke slo-gate bench bench-smoke bench-json experiments examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Concurrency-sensitive packages under the race detector.
race:
	$(GO) test -race ./internal/mpi/ ./internal/pipeline/ ./internal/storage/ ./internal/iterative/

# Full static + race-detector gate: the worker-pool kernel and pipeline
# stages must stay race-clean everywhere, not just the curated race list.
# The trace smoke-run keeps the telemetry artifacts loadable end to end.
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/fdkbench -check-bench BENCH_kernel.json,BENCH_exec.json
	$(MAKE) trace-smoke
	$(MAKE) status-smoke
	$(MAKE) chaos-recover
	$(MAKE) transport-smoke
	$(MAKE) fuzz-smoke

# Fuzz gate: a short native-fuzzing pass per target (stdlib testing.F;
# seed corpora live under each package's testdata/fuzz/). Fuzz targets are
# named Fuzz<Thing>; each gets one line here. A failing input is written
# to testdata/fuzz/ and replays as a regular test from then on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFilterRow$$' -fuzztime 10s ./internal/filter/

# Telemetry artifact gate: a tiny distributed reconstruction with tracing
# and metrics on, then the artifact validators. Catches any drift in the
# Chrome-trace / metrics JSON shape that the unit tests' synthetic
# snapshots wouldn't exercise. -require-matched-flows makes the validator
# insist every mpi send links to its recv via a flow arrow, so a telemetry
# change that silently drops the causal edges fails here.
trace-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -batches 4 -groups 2 -ranks 2 \
		-o artifacts/trace_smoke_vol.bin \
		-trace-out artifacts/trace_smoke.json \
		-metrics-json artifacts/metrics_smoke.json
	$(GO) run ./cmd/fdkbench \
		-check-trace artifacts/trace_smoke.json \
		-check-metrics artifacts/metrics_smoke.json \
		-require-matched-flows
	rm -f artifacts/trace_smoke_vol.bin

# Live introspection gate: the same tiny world with -pprof on and the
# -status-poll loop hitting the live /metrics and /statusz endpoints
# while back-projection is in flight. fdkrecon exits non-zero unless at
# least one poll validated both endpoints AND observed in-flight work.
status-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -batches 8 -groups 2 -ranks 2 \
		-o artifacts/status_smoke_vol.bin \
		-pprof 127.0.0.1:6161 -status-poll 5ms
	rm -f artifacts/status_smoke_vol.bin

# Fault-tolerance gate: the seeded chaos matrix (transient recovery must be
# bit-identical, permanent faults must surface typed and bounded with zero
# leaked goroutines — the goroutine-settle check is part of the matrix),
# kill-and-resume, the deadline/teardown suite and the journal/atomic-write
# storage tests, all under the race detector. -count=1 defeats the test
# cache so the schedules actually re-run.
chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestReconstructSingleRetryAndResume|TestRecvDeadline|TestWorldTeardown|TestSplitInherits|TestInterceptor|TestSendDeadline|TestTeardownLeavesNoGoroutines|TestErrorPropagationKeepsLiveness|TestJournal|TestWriteStackIsAtomic|TestOpenStackRejects|TestSlabWriterPartial|TestResumeSlabWriter' \
		./internal/core/ ./internal/mpi/ ./internal/fault/ ./internal/storage/ ./internal/pipeline/
	$(GO) test -race -count=1 ./internal/fault/

# Recovery gate: the supervised shrink-and-resume suite under the race
# detector (the rank-kill matrix asserts bit-identical recovery from every
# single-rank loss at every batch boundary), then an end-to-end recovery
# drill of the CLI — rank 1 killed at batch 1, world replanned onto the
# survivors, volume promoted — whose trace and metrics artifacts are
# validated and kept in artifacts/ for the CI run to upload.
chaos-recover:
	$(GO) test -race -count=1 \
		-run 'TestSupervise|TestShrinkPlan|TestClusterReportSkippedBatches|TestTeardownAttributes|TestDeadlineExpiryCarriesNoAttribution|TestLostRanks|TestScheduleKill|TestBatchStartNilInjector|TestJournal' \
		./internal/core/ ./internal/mpi/ ./internal/fault/ ./internal/storage/
	mkdir -p artifacts
	rm -f artifacts/recover_drill.fbk artifacts/recover_drill.fbk.partial artifacts/recover_drill.journal
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -batches 4 -groups 2 -ranks 2 \
		-o artifacts/recover_drill.fbk \
		-journal artifacts/recover_drill.journal \
		-max-restarts 2 -restart-backoff 50ms -kill 1@1 \
		-trace-out artifacts/recover_trace.json \
		-metrics-json artifacts/recover_metrics.json
	$(GO) run ./cmd/fdkbench \
		-check-trace artifacts/recover_trace.json \
		-check-metrics artifacts/recover_metrics.json
	rm -f artifacts/recover_drill.fbk

# Real-transport gate: the same reconstruction twice — once in-process,
# once as a 4-process loopback TCP world (coordinator + 3 re-exec'd
# workers over internal/mpi/nettrans) with a wire sever at rank 1's 2nd
# frame and a rank-1 kill at batch 1. The sever must be absorbed by the
# link's reconnect + replay (fdkrecon itself asserts transport.reconnects
# >= 1 when -sever is given), the kill must shrink-and-resume through the
# journal across OS processes, and the recovered volume must be
# byte-identical to the fault-free in-process one. The metrics artifact
# (with the transport.* counters under the shared rank) is validated and
# kept in artifacts/ for CI to upload. The binary is built once — the
# workers are the coordinator re-exec'd, so `go run`'s temp binary works
# too, but an explicit build keeps the spawn path obvious.
transport-smoke:
	mkdir -p artifacts
	rm -f artifacts/transport_ref.fbk artifacts/transport_world.fbk \
		artifacts/transport_ref.journal artifacts/transport_world.journal
	$(GO) build -o artifacts/fdkrecon.bin ./cmd/fdkrecon
	artifacts/fdkrecon.bin -div 16 -n 32 -batches 4 -groups 2 -ranks 2 \
		-journal artifacts/transport_ref.journal \
		-o artifacts/transport_ref.fbk
	artifacts/fdkrecon.bin -div 16 -n 32 -batches 4 -groups 2 -ranks 2 \
		-world 4 -sever 1@2 -kill 1@1 \
		-journal artifacts/transport_world.journal \
		-max-restarts 2 -restart-backoff 50ms \
		-metrics-json artifacts/transport_metrics.json \
		-o artifacts/transport_world.fbk
	$(GO) run ./cmd/fdkbench -check-metrics artifacts/transport_metrics.json
	cmp artifacts/transport_ref.fbk artifacts/transport_world.fbk
	rm -f artifacts/fdkrecon.bin artifacts/transport_ref.fbk artifacts/transport_world.fbk

# Robustness release wall: replay every scenario under scenarios/ (paired
# fault-free vs injected arms, robust medians, SLO gates) and fail the
# build on any breach. The analysis artifacts land in artifacts/slo/ and
# the JSON is immediately re-validated, so CI uploads a checked artifact.
slo-gate:
	$(GO) run ./cmd/slogate -scenarios scenarios -out artifacts/slo
	$(GO) run ./cmd/slogate -check artifacts/slo/analysis.json

bench:
	$(GO) test -bench=. -benchmem -timeout 45m ./...

# CI kernel gate: a reduced-size kernel benchmark whose parity validation
# must pass — recurrence-vs-exact (and, on AVX2 hosts, simd-vs-exact)
# RMSE/max-abs inside the package gates and streaming bit-identical to
# batch — and whose JSON record lands in artifacts/ for upload. The second
# run times the simd kernel itself (falling back to recurrence off-AVX2),
# so the dispatch path is exercised end to end. Exits non-zero on any gate
# violation, so a kernel change that breaks the arithmetic contract fails
# the build even when every unit test still passes.
bench-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/fdkbench -smoke -kernel-json artifacts/bench_smoke.json
	$(GO) run ./cmd/fdkbench -smoke -kernels simd -label bench-smoke-simd \
		-kernel-json artifacts/bench_smoke.json

# Append a machine-readable hot-loop record (GUPS, ns/voxel-update,
# filter rows/s, alloc stats, git commit) to BENCH_kernel.json.
bench-json:
	$(GO) run ./cmd/fdkbench -kernel-json BENCH_kernel.json -label "$(BENCH_LABEL)"

# Regenerate every table/figure of the paper's evaluation into artifacts/.
experiments:
	$(GO) run ./cmd/fdkbench -exp all -out artifacts | tee artifacts/fdkbench_all.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/outofcore
	$(GO) run ./examples/distributed
	$(GO) run ./examples/microct
	$(GO) run ./examples/iterative

clean:
	rm -f quickstart_slice.pgm iterative_slice.pgm microct_bean_slice.pgm
