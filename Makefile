# Tier-1 gate: everything `make check` runs must stay green.

GO ?= go
REV ?= dev

# Third-party linters, pinned so CI is reproducible. They are fetched
# with `go run pkg@version`, which needs network access: the lint
# target runs them only when the module proxy is reachable (or when
# LINT_STRICT=1 forces the failure, as CI does).
STATICCHECK_VERSION ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK_VERSION ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: check fmt vet build test race fuzz lint bench experiments bench-json bench-gate bench-profile bench-allocs perfbench-smoke

check: fmt vet build race lint fuzz perfbench-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static analysis: the repo-invariant analyzers (always — they build
# from this module with no network), then the pinned third-party
# linters when they can be fetched. LINT_STRICT=1 (CI) turns a skipped
# third-party linter into a failure instead.
lint:
	$(GO) run ./cmd/matchlint ./...
	@if GOFLAGS= $(GO) run $(STATICCHECK_VERSION) ./... 2>/dev/null; then \
		echo "staticcheck: ok"; \
	elif [ "$(LINT_STRICT)" = "1" ]; then \
		echo "staticcheck failed or could not be fetched"; exit 1; \
	else \
		echo "staticcheck: skipped (offline or findings; set LINT_STRICT=1 to enforce)"; \
	fi
	@if GOFLAGS= $(GO) run $(GOVULNCHECK_VERSION) ./... 2>/dev/null; then \
		echo "govulncheck: ok"; \
	elif [ "$(LINT_STRICT)" = "1" ]; then \
		echo "govulncheck failed or could not be fetched"; exit 1; \
	else \
		echo "govulncheck: skipped (offline or findings; set LINT_STRICT=1 to enforce)"; \
	fi

# Short fuzz smoke over the RBG1/RBG2 decoders: hostile bytes must be
# rejected with a typed error, never a panic or hostile allocation, and
# the RBG2 frame decoder must decode (or reject) any payload exactly as
# its one-varint-at-a-time reference does.
fuzz:
	$(GO) test ./internal/stream/ -run=^$$ -fuzz=^FuzzOpenBinary$$ -fuzztime=10s
	$(GO) test ./internal/stream/ -run=^$$ -fuzz=^FuzzDecodeFramePayload$$ -fuzztime=10s

# The repository benchmark (perfbench/, see BENCHMARK.json) is a module
# of its own, so the root `go test ./...` never builds it: vet it and run
# its toy-size smoke tests, which build every workload (about 12 s).
# `check` runs it too, so a facade change that breaks perfbench's build
# fails locally as it does in CI.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Root testing.B benchmarks: one per experiment table, quick mode.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Full-scale experiment tables (EXPERIMENTS.md is a captured run).
experiments:
	$(GO) run ./cmd/matchbench

# Machine-readable quick-scale capture: BENCH_$(REV).json (the perf
# trajectory; see cmd/matchbench -json).
bench-json:
	$(GO) run ./cmd/matchbench -quick -json -rev $(REV)

# Bench diff: the newest capture's wall times against the previous
# one, with REGRESSION flags. It only reports: the target exits 0
# whatever it flags (an exact gate is ROADMAP item 10).
BENCH_OLD ?= BENCH_pr9.json
BENCH_NEW ?= BENCH_pr10.json
bench-gate:
	$(GO) run ./cmd/matchbench -compare $(BENCH_OLD) $(BENCH_NEW)

# Allocation-profile smoke: the allocs/op benchmarks for the
# allocation-flat paths — the batched field-update kernel in
# internal/sketch, session-reuse solves through the facade — at
# -benchtime=1x so CI sees the counters without paying a full benchmark
# run.
bench-allocs:
	$(GO) test -run='^$$' -bench='BenchmarkOneSparseUpdate' -benchmem -benchtime=1x ./internal/sketch/
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x ./match/

# Profile what the repository benchmark runs: five solves of
# solve-ooc's instance and options (BenchmarkSolveOOC), so the next perf
# PR starts from data; see "Profile snapshot" in EXPERIMENTS.md.
bench-profile:
	$(GO) test -run=^$$ -bench='^BenchmarkSolveOOC$$' \
		-benchtime=5x -cpuprofile=cpu.pprof -memprofile=mem.pprof .
	$(GO) tool pprof -top -nodecount=10 repro.test cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space repro.test mem.pprof
