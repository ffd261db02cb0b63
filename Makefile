# Development and CI entry points. `make ci` is what every CI matrix cell
# runs: vet + build + full test suite (and its `long` half), plus the race
# detector over the packages with concurrent code (the frontier-parallel
# BFS engine with its sharded store, the spill-to-disk store, and the core
# they drive) and the packages whose tests exercise them (the POR
# ignoring-proviso matrix, the cyclic protocol generators, the eval cells
# that run spill-backed searches, the liveness layer and DPOR). `make fuzz` runs the native fuzz targets — the cross-engine
# differential harness and the fingerprint pin — for FUZZTIME each (CI
# smokes them at 30s, with the corpus cached across runs so coverage
# accumulates). `make bench-ci` is the determinism gate: a fixed-work
# mpbench run whose report (BENCH_ci.json) is held to the verdicts and
# state/event counts of the committed BENCH_baseline.json and uploaded as a
# CI artifact; regenerate the baseline with `make bench-baseline` after an
# intentional state-count change. `make lint` runs the in-repo mplint suite
# (internal/lint: the determinism/soundness contract analyzers, closure
# roots extendable with ENTRYPOINTS=func:p.N,iface:p.N,struct:p.N) and
# then staticcheck when it is on PATH (CI installs it; mplint itself is
# dependency-free and always runs). `make vet` runs plain `go vet` plus
# `go vet -vettool` with mplint, so every CI cell enforces the contracts
# with full build caching. `make test-long` runs the tests behind the
# `long` build tag — the full-size versions of tests whose always-on slice
# runs a smaller configuration (today the DPOR bundled-model sweeps, about
# three minutes). `make lint-fix` inserts idempotent
# //lint:<marker> TODO annotations above findings; `make lint-abs`
# prints findings as absolute file:line:col paths for editor jump.
# `make lint-sarif` writes SARIF 2.1.0 reports from both drivers
# (mplint.sarif standalone, mplint-vet.sarif merged from the vet run's
# per-unit fragments); it is reporting-only, so findings do not fail it.

GO ?= go
FUZZTIME ?= 30s
# The bench smoke's fixed work cap: every cell stops at this many states
# (or the budget), so baseline and CI runs compare like against like.
BENCH_MAX_STATES ?= 100000
BENCH_BUDGET ?= 30s

.PHONY: all vet build test test-long race fuzz bench bench-smoke bench-ci bench-baseline bench-e2e bench-compare bench-e2e-smoke lint lint-fix lint-abs lint-sarif mplint ci

all: ci

# The mplint binary go vet loads as its -vettool. Built into bin/ (not
# `go run`) because vet needs a stable executable to fingerprint via
# -V=full for its result cache.
MPLINT := bin/mplint
mplint:
	$(GO) build -o $(MPLINT) ./cmd/mplint

vet: mplint
	$(GO) vet ./...
	$(GO) vet -vettool=$(MPLINT) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-long:
	$(GO) test -tags long -run 'FullSize$$' ./internal/dpor/

race:
	$(GO) test -race ./internal/explore/ ./internal/core/ ./internal/por/ ./internal/mptest/ ./internal/eval/ ./internal/liveness/ ./internal/dpor/

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineAgreement$$' -fuzztime $(FUZZTIME) ./internal/explore/
	$(GO) test -run '^$$' -fuzz '^FuzzFingerprint128$$' -fuzztime $(FUZZTIME) ./internal/explore/

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# One iteration of every benchmark with a tight per-cell budget: keeps the
# benchmark suites (the facade's, the engines', and the core and por
# microbenchmarks perf PRs quote) compiling and runnable in CI without
# paying for real measurements.
bench-smoke:
	MPBASSET_BENCH_BUDGET=2s $(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/explore/ ./internal/core/ ./internal/por/

# The CI determinism gate: run every table under the fixed work cap, write
# the machine-readable report, and fail on any verdict or state/event-count
# drift (or a vanished or failing cell) against the committed baseline.
# Cell wall-clock is in the report but gates nothing — single-sample
# timings of 1 ms–1 s cells spread 13–48 % on identical code; speed is
# measured by bench/ (bench-e2e, bench-compare below).
bench-ci:
	$(GO) run ./cmd/mpbench -budget $(BENCH_BUDGET) -max-states $(BENCH_MAX_STATES) -out BENCH_ci.json -baseline BENCH_baseline.json

bench-baseline:
	$(GO) run ./cmd/mpbench -budget $(BENCH_BUDGET) -max-states $(BENCH_MAX_STATES) -out BENCH_baseline.json

# bench/ (the benchmark BENCHMARK.json declares) is a module of its own, so
# nothing above builds it: these targets are what keeps a core or explore
# signature change from silently breaking it. `bench-e2e` is the full
# measuring session (≈95 s, writes bench/out/result.json); `bench-compare
# BASE=a.json CHANGE=b.json` compares two of its result files;
# `bench-e2e-smoke` is the CI step — the benchmark's own tests, vet over the
# traced build, and five seconds of every workload checked against its pins
# (the driver line's failed count; no timing gate, a hosted runner cannot
# carry one).
BENCH_WORKLOADS := paxos-quorum-spor storage-single-unreduced small-suite paxos-quorum-spor-par2 paxos-quorum-bfs-par2
bench-e2e:
	$(GO) run -C bench .

bench-compare:
	$(GO) run -C bench . -compare $(abspath $(BASE)) $(abspath $(CHANGE))

bench-e2e-smoke:
	$(GO) -C bench test ./...
	$(GO) -C bench vet -tags benchlayers ./...
	@for w in $(BENCH_WORKLOADS); do \
		echo "bench smoke: $$w"; \
		bash bench/run.sh --workload $$w --seed 1 --seconds 5 --trace 0 | tail -n 1 | grep -q '"failed":0' \
			|| { echo "bench smoke: $$w missed a pin or did not run"; exit 1; }; \
	done

lint:
	$(GO) run ./cmd/mplint $(if $(ENTRYPOINTS),-entrypoints '$(ENTRYPOINTS)') ./...
	@command -v staticcheck >/dev/null && staticcheck ./... || echo "staticcheck not installed; skipped"

# Insert //lint:<marker> TODO annotations above findings. Idempotent:
# re-running never stacks duplicate markers; findings without an escape
# hatch (statsmask) are listed and left for a real fix.
lint-fix:
	$(GO) run ./cmd/mplint -fix ./...

# Editor-jump helper: mplint findings with absolute file:line:col paths.
lint-abs:
	$(GO) run ./cmd/mplint -abs ./...

# SARIF 2.1.0 reports from both drivers: the standalone run writes
# mplint.sarif directly; the vet run drops one fragment per build unit
# into MPLINT_SARIF_DIR (a fresh temp dir, which busts vet's result
# cache via the -V=full fingerprint) and -merge-sarif unions them into
# mplint-vet.sarif. Reporting-only: findings do not fail the target —
# `make lint` and `make vet` are the enforcing entry points.
lint-sarif: mplint
	$(GO) run ./cmd/mplint -sarif ./... > mplint.sarif || true
	@dir=$$(mktemp -d); \
	MPLINT_SARIF_DIR=$$dir $(GO) vet -vettool=$(MPLINT) ./... || true; \
	$(GO) run ./cmd/mplint -merge-sarif $$dir > mplint-vet.sarif; \
	rm -rf $$dir

ci: vet build test test-long race
