# Development targets. `make check` is the full gate: vet, build, and the
# whole test suite under the race detector — the store-level concurrency and
# resilience tests (store_resilience_test.go) are only meaningful with -race.

GO ?= go

.PHONY: check vet staticcheck build test race lint-metrics chaos chaos-shard crash explain-smoke fuzz fuzz-store fuzz-wal bench bench-short perfbench-test

check: vet staticcheck build race lint-metrics chaos chaos-shard crash explain-smoke perfbench-test

vet:
	$(GO) vet ./...

# staticcheck is optional locally (it is not vendored; CI installs it with
# `go install honnef.co/go/tools/cmd/staticcheck@latest`). The target is a
# no-op with a notice when the binary is absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Metrics-conventions lint: every Prometheus exposition the store, server and
# shard coordinator serve must pass obs.LintExposition (counter/gauge/
# histogram naming, cumulative buckets, +Inf terminators, name charset).
lint-metrics:
	$(GO) test -run '^TestMetricsConventions$$|^TestLintExposition' -count=1 ./ ./internal/obs/

# End-to-end server chaos test: ≥32 concurrent clients against htlserve's
# handler while faultinject injects build failures, panics and stalls.
# Run alone (not in parallel with other packages): fault plans are
# process-wide.
chaos:
	$(GO) test -race -run '^TestServerChaos$$' -count=1 -v ./internal/server/

# Multi-process scatter-gather chaos test: N shard server processes (one
# under fault injection, one killed outright) behind the coordinator, driven
# by 32 concurrent clients. Asserts no dropped responses, a breaker open on
# the dead shard, partials from the survivors, quorum refusal, and a merged
# ranking byte-identical to a single store while healthy.
chaos-shard:
	$(GO) test -race -run '^TestShardChaosMultiProcess$$' -count=1 -v ./internal/shard/

# Crash-injection harness for the durable store: re-execs the test binary as
# a child that kills itself (SIGKILL-equivalent exit) at chosen WAL byte
# offsets mid-commit, then recovers the directory in the parent and checks
# query results byte-for-byte against an uncrashed store. The in-process
# every-byte-prefix property test rides along.
crash:
	$(GO) test -race -run '^TestWALCrashKillAtOffset$$|^TestDurableCrashEveryBytePrefix$$' -count=1 -v .

# Explain smoke: `htlquery -explain` on the Fig. 2 until example must print a
# non-empty annotated plan tree (a panic or an empty tree fails the target).
explain-smoke:
	@out=$$($(GO) run ./cmd/htlquery -demo -explain "M1 until M2") || exit 1; \
	echo "$$out"; \
	echo "$$out" | grep -q '^until' || { echo "explain-smoke: no until node in output" >&2; exit 1; }; \
	echo "$$out" | grep -q 'visits=' || { echo "explain-smoke: no per-node stats in output" >&2; exit 1; }

# Short parser fuzz session (FuzzParse: parse → print → re-parse is total).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/htl/

# Short store-format fuzz session (FuzzLoadStore: load never panics and
# load → save → load round-trips byte-identically).
fuzz-store:
	$(GO) test -run '^$$' -fuzz=FuzzLoadStore -fuzztime=30s .

# Short WAL-replay fuzz session (FuzzWALReplay: recovery over arbitrary log
# bytes never panics, accounts for every byte, and the committed prefix it
# reports re-replays identically).
fuzz-wal:
	$(GO) test -run '^$$' -fuzz=FuzzWALReplay -fuzztime=30s ./internal/wal/

# Benchmarks plus BENCH_obs.json (per-engine query latency from the store's
# own metrics histograms), BENCH_perf.json (compilation/caching ns/op,
# B/op, allocs/op, and the warm-vs-cold repeated-query speedup), and the
# trace-propagation gate (always-on trace context within 5% of the warm
# repeated-query path).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
	BENCH_OBS_OUT=BENCH_obs.json $(GO) test -run '^TestWriteBenchObs$$' -count=1 -v .
	BENCH_PERF_OUT=BENCH_perf.json $(GO) test -run '^TestWriteBenchPerf$$' -count=1 -v .
	BENCH_TRACE_GATE=1 $(GO) test -run '^TestTracePropagationOverhead$$' -count=1 -v .

# The end-to-end benchmark's own tests (perfbench/ is a module of its own,
# outside ./...): seeded corpora and streams, the open-loop timing rule, and
# BENCHMARK.json agreeing with the program's metric names.
perfbench-test:
	cd perfbench && GOFLAGS=-mod=mod $(GO) test ./...

# Fast allocation-aware bench smoke (CI): every benchmark once at reduced
# short-mode sizes, with allocs/op visible, plus the trace-propagation gate
# at a tolerance wide enough for noisy shared runners.
bench-short:
	$(GO) test -short -run '^$$' -bench=. -benchtime=1x -benchmem ./...
	BENCH_TRACE_GATE=1 BENCH_TRACE_TOLERANCE=0.5 $(GO) test -run '^TestTracePropagationOverhead$$' -count=1 -v .
