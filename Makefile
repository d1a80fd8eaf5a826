# Local targets mirror .github/workflows/ci.yml step for step, so `make ci`
# reproduces exactly what CI runs.

GO ?= go

# Benchtime for the JSON benchmark record; CI keeps the smoke value, local
# perf runs want something like BENCHTIME=2s.
BENCHTIME ?= 1x
BENCH_DATE := $(shell date +%Y-%m-%d)

.PHONY: build test race vet fmt-check staticcheck vulncheck loc bench bench-json bench-compare bench-check quickstart serve loadtest crashtest fuzz ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Focused race gate for the snapshot/txn/materialize/parallel-eval surface:
# the packages where lock-free snapshot readers, COW relations, commit-time
# view maintenance, the partitioned delta rounds of the fixpoint, the WAL
# (commit appends vs the background fsync and checkpoint loops) and the
# concurrent HTTP serving layer meet. `make test` already runs everything
# under -race; this target is the quick loop while working on that surface.
race:
	$(GO) test -race ./datalog/ ./internal/database/ ./internal/eval/ ./internal/wal/ ./internal/server/

vet:
	$(GO) vet ./...

# Deeper static analysis than go vet. The tools are not vendored: the
# targets run them when installed and skip with a note otherwise, so a
# bare container still completes `make ci` while CI (which installs both
# via `go install`) always runs them.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; fi

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:" >&2; echo "$$out" >&2; exit 1; fi

# Non-test Go lines of the three core packages: the figure the ROADMAP north
# star ("the least code") states its goal in, so every simplicity PR quotes
# the same number. The target fails above LOC_CEILING, the total the last
# simplicity PR reached: the figure only goes up by an edit to this line,
# which shows in the diff. The `module` line (non-test Go lines outside
# benchmark/, the north star's whole-system figure) and the `served` line
# (non-test Go lines of the packages `go list -deps ./cmd/datalogd` names:
# what the server binary is built from) are informational and have no
# ceiling. The `rewrite` line (non-test Go lines of
# internal/rewrite and its subpackages, the four rewritings of the paper
# built by one sip walk) is ratcheted the same way by REWRITE_LOC_CEILING.
LOC_PKGS := internal/eval datalog internal/database
LOC_CEILING := 6722
REWRITE_LOC_CEILING := 895
loc:
	@total=0; for d in $(LOC_PKGS); do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
		printf '%-18s %6d\n' $$d $$n; total=$$((total + n)); done; \
	printf '%-18s %6d\n' total $$total; \
	printf '%-18s %6d\n' module $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l); \
	printf '%-18s %6d\n' served $$($(GO) list -deps -f '{{if not .Standard}}{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}{{end}}' ./cmd/datalogd | xargs cat | wc -l); \
	rw=$$(find internal/rewrite -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	printf '%-18s %6d\n' rewrite $$rw; \
	if [ $$total -gt $(LOC_CEILING) ]; then \
		echo "loc: $$total non-test lines exceed LOC_CEILING=$(LOC_CEILING) (Makefile)" >&2; exit 1; fi; \
	if [ $$rw -gt $(REWRITE_LOC_CEILING) ]; then \
		echo "loc: $$rw non-test lines in internal/rewrite exceed REWRITE_LOC_CEILING=$(REWRITE_LOC_CEILING) (Makefile)" >&2; exit 1; fi

# Benchmark smoke run: one iteration of every benchmark, no unit tests.
bench:
	$(GO) test -bench . -benchtime=1x -run '^$$' .

# Archive the benchmark suite (with allocation stats) as a JSON record:
# BENCH_<date>.json with name, ns/op, B/op and allocs/op per benchmark.
# CI uploads the file as an artifact so the perf trajectory is preserved.
# Two commands, not a pipe: a benchmark failure must fail the target
# instead of being masked by the converter's exit status.
bench-json:
	$(GO) test -bench . -benchmem -benchtime=$(BENCHTIME) -run '^$$' . > .bench.out
	$(GO) run ./cmd/benchjson -out BENCH_$(BENCH_DATE).json < .bench.out
	@rm -f .bench.out

# Committed baseline the comparison target diffs against; regenerate with
# `make bench-json && cp BENCH_<date>.json BENCH_baseline.json` when a PR
# deliberately moves the performance floor.
BASELINE ?= BENCH_baseline.json

# Run the suite and print per-benchmark deltas against the committed
# baseline (CI uploads the same comparison as an artifact). Reuses an
# existing BENCH_<date>.json from a previous bench-json run if present.
bench-compare:
	@test -f BENCH_$(BENCH_DATE).json || $(MAKE) bench-json
	$(GO) run ./cmd/benchjson -compare $(BASELINE) BENCH_$(BENCH_DATE).json

# The repository benchmark (benchmark/, see BENCHMARK.json) is a Go module of
# its own, outside the root `go test ./...`: vet it, run its tests (they hold
# it to BENCHMARK.json and to the golden fact counts of the paper's suite),
# and drive every workload's code path once against an in-process server.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./... && $(GO) run . -workload all -smoke -seconds 0.2

quickstart:
	$(GO) run ./examples/quickstart

# Run datalogd locally (override with e.g. `make serve ADDR=:9000`).
ADDR ?= :8344
serve:
	$(GO) run ./cmd/datalogd -addr $(ADDR)

# Serving smoke (mirrors the CI step): one real, untraced mixed_rw run of the
# repository benchmark. It boots a durable datalogd subprocess, drives a
# reader and a writer against it concurrently over loopback and checks every
# reply against the benchmark's own oracle; a wrong reply, a failed
# operation, or a run too short to support its p99 (1,000 reads) fails it.
# The durable SIGTERM checkpoint + seal and the reboot's recovery are
# covered by cmd/datalogd's TestDurableShutdownRecovers.
loadtest:
	@out=$$(mktemp); cd benchmark && $(GO) run . -workload mixed_rw -trace 0 -seconds 15 -o "$$out"; \
		rc=$$?; rm -f "$$out"; exit $$rc

# Crash-recovery oracle at CI strength: CRASH_ITERS child processes are
# SIGKILLed at randomized points mid-commit/mid-checkpoint and every
# recovered store must equal the deterministic prefix of acknowledged
# commits (datalog/crash_test.go; `go test ./datalog/` runs a lighter 8).
CRASH_ITERS ?= 50
crashtest:
	CRASH_ITERS=$(CRASH_ITERS) $(GO) test -race -run TestCrashRecovery -count=1 ./datalog/

# Bounded fuzz pass over the WAL record and checkpoint decoders: corrupt
# input must always surface as a clean ErrCorruptLog, never a panic or an
# overallocation. The seeded corpus (valid frames + bit flips) runs as part
# of the normal test suite; this target adds coverage-guided time.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime $(FUZZTIME) ./internal/wal/

ci: build test vet staticcheck vulncheck fmt-check loc crashtest bench-json bench-check quickstart loadtest
