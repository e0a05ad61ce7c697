# Development targets. Every step of CI (.github/workflows/ci.yml) calls
# one of them, and its gate job runs the targets of `check` in order.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race chaos serve-chaos serve-smoke vet fmt-check lint benchmark-check bench-json bench-gate fuzz-smoke obs-overhead trace-golden loc check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Chaos gate: the seeded fault-injection suite (injected panics, NaNs,
# cancellations and SMW guard trips against the real pipeline, plus the
# typed failures of the CG reference solver, which is not on the
# production path) and the packages that implement the recovery paths,
# under the race detector. -count=1 because the injector is
# process-global state the test cache cannot see.
chaos:
	$(GO) test -race -count=1 ./internal/faults/... ./internal/engine/... ./internal/thermal/...

# Service chaos gate: seeded faults (typed errors of every class,
# worker panics, injected latency) driven through the live tecserve
# HTTP pipeline under the race detector, asserting the status-code
# contract, per-request isolation, backpressure, deadline partial
# flush and the drain state machine, plus the gate drain-vs-acquire
# stress in the engine. -count=1: the fault injector is process-global
# state the test cache cannot see.
serve-chaos:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -race -count=1 -run 'TestGateDrain' ./internal/engine/

# Service smoke: build the real tecserve binary, drive every endpoint
# over HTTP, force a 429 through a one-worker/no-queue configuration,
# verify the cross-request solver-cache hit on /metrics,
# SIGTERM-drain to a clean exit 0, and drain to exit 5 when -timeout
# expires.
serve-smoke:
	$(GO) test -count=1 -run 'TestServeBinary' ./cmd/tecserve

vet:
	$(GO) vet ./...

# Formatting gate: every Go file outside testdata directories (whose lint
# fixtures are laid out by hand) and the benchmark's build output must be
# gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(find . -path ./.bench_build -prune -o -name testdata -prune -o -name '*.go' -print)); \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

# teclint lists packages with `go list`, whose ./... stops at the nested
# benchmark module, so the benchmark is linted from its own directory.
lint:
	$(GO) run ./cmd/teclint ./...
	$(GO) -C benchmark run tecopt/cmd/teclint ./...

# The repository benchmark (benchmark/, run by benchmark/run.sh) is a Go
# module of its own, so the ./... patterns above do not reach it: vet it
# and run its tests, every workload at toy size, from its directory.
benchmark-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Benchmark snapshot: runs the Table I engine benchmarks (default-path,
# explicit-SMW, and explicit-direct variants), the h_kl-sweep SMW vs
# direct benchmark and the solver layer benchmarks (assembly of G, its
# minimum-degree and RCM orderings, SMW setup, eigendecomposition,
# sparse Cholesky factorization, solves, SMW correction of a field,
# pole-form silicon rows and one h_kl point) through `go test -bench -json` and
# distills name / ns/op / allocs into
# BENCH_solver.json (committed; EXPERIMENTS.md tracks history).
# -benchtime=1x for the engine benchmarks because Table I is a full
# paper reproduction per iteration; the layer benchmarks take the
# default benchtime. Every benchmark runs three times (-count 3) and
# the snapshot keeps the median of each figure. -merge keeps snapshot
# entries a partial run did not re-measure; the temp file exists
# because the merge reads the same file the pipeline writes.
LAYER_BENCH = ^Benchmark(Assembly|Ordering|SMWSetup|EigenSym|CholeskyFactor|CholeskySolve|CholeskySolveUnits|SMWCorrect|SMWReadRows|SMWEntry)$$

bench-json:
	{ $(GO) test -run '^$$' -bench 'BenchmarkEngine_(TableI|HklSweep)(_SMW|_Direct)?$$' \
		-benchmem -benchtime=1x -count 3 -json ./internal/bench ./internal/core; \
	  $(GO) test -run '^$$' -bench '$(LAYER_BENCH)' -benchmem -count 3 -json ./internal/sparse ./internal/eigen; } \
		| $(GO) run ./cmd/benchjson -merge BENCH_solver.json > BENCH_solver.json.tmp
	mv BENCH_solver.json.tmp BENCH_solver.json
	@cat BENCH_solver.json

# Benchmark regression gate: re-times the SMW fast-path benchmarks three
# times and fails if the median of any regresses more than 1% in
# allocs/op or B/op against the committed BENCH_solver.json snapshot,
# or more than 20% in ns/op against a snapshot entry measured on the
# same host fingerprint (CPU model, GOMAXPROCS, Go version); on another
# host ns/op is reported as not compared. Only the fast variants run —
# the gate must stay cheap enough for CI.
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine_(TableI_SMW|HklSweep_SMW)$$' \
		-benchmem -benchtime=1x -count 3 -json ./internal/bench ./internal/core \
		| $(GO) run ./cmd/benchjson -gate BENCH_solver.json

# Short fuzz runs over every parser fuzz target; catches regressions in
# input handling without the cost of a long campaign. FuzzCFG throws
# arbitrary function bodies at the lint CFG builder, which must never
# panic on code that parses; FuzzDataflow pushes the resulting graphs
# through the fixpoint engine (step-bound termination, state isolation).
# FuzzCholesky factors random small SPD patterns and values under the
# minimum-degree ordering (solution, backward error, unit columns
# bitwise the solve). FuzzServeRequest feeds arbitrary bodies to the
# service's request decoding and system resolution (only typed
# invalid-input rejections).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseFLP -fuzztime=$(FUZZTIME) -run='^$$' ./internal/floorplan
	$(GO) test -fuzz=FuzzParsePtrace -fuzztime=$(FUZZTIME) -run='^$$' ./internal/power
	$(GO) test -fuzz=FuzzCFG -fuzztime=$(FUZZTIME) -run='^$$' ./internal/lint
	$(GO) test -fuzz=FuzzDataflow -fuzztime=$(FUZZTIME) -run='^$$' ./internal/lint
	$(GO) test -fuzz=FuzzSMWGuard -fuzztime=$(FUZZTIME) -run='^$$' ./internal/sparse
	$(GO) test -fuzz=FuzzCholesky -fuzztime=$(FUZZTIME) -run='^$$' ./internal/sparse
	$(GO) test -fuzz=FuzzServeRequest -fuzztime=$(FUZZTIME) -run='^$$' ./internal/serve

# Observability overhead gate: times one Alpha row of Table I in process
# CPU time with the obs registry off and on, over 64 alternated pairs,
# and fails if the median on/off ratio shows instrumentation costing
# more than 5%.
obs-overhead:
	OBS_OVERHEAD=1 $(GO) test -count=1 -run TestObsOverheadOnTableI -v ./internal/bench

# Trace format gate: span IDs, parent links and event links in the obs
# package, the Perfetto exporter, the deterministic JSONL and Perfetto
# goldens in cmd/tectrace (with a traced real solve in the default
# format), and the concurrent-hierarchy test in the engine. Regenerate
# the goldens with
#   go test ./cmd/tectrace -update
# after an intentional format change.
trace-golden:
	$(GO) test -count=1 -run 'TestFlightSpanHierarchy|TestEventCtxFlightLinks|TestPerfettoExport' ./internal/obs
	$(GO) test -count=1 ./cmd/tectrace
	$(GO) test -count=1 -run TestMapTasksCtxFlight ./internal/engine

# Size of the program: non-test Go lines outside the benchmark module,
# its build output and testdata directories. A report, not a gate.
loc:
	@find . -path ./benchmark -prune -o -path ./.bench_build -prune -o -name testdata -prune \
		-o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

# The full gate, in the order CI runs it.
check: build vet fmt-check lint test benchmark-check trace-golden race chaos serve-chaos serve-smoke
