# Development targets for the wmsketch repository.

GO ?= go

# Pinned external linter versions: CI installs exactly these, so a lint
# run is reproducible. Locally they are optional — `make lint` skips any
# that are not on PATH and always runs wmlint.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build vet test race bench bench-json bench-serve bench-serve-check serve-smoke cluster-smoke bench-sim fuzz-smoke lint lint-tools

all: vet build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Micro-benchmarks of the hot paths (sketch update/estimate, heap ops,
# fused learner updates, sharded throughput), of the gossip round's
# heavy-list path (SortWeighted, frame encode/decode, heavy-diff replay),
# each swept over sizes, of the three decoders: binary update frames
# (DecodeUpdateRequest, ReadRequestFrame), gossip frames (ReadFrames) and
# checkpoint restore at the ingest and mixed geometries (LoadCheckpoint),
# and of whole gossip rounds of a three-node cluster over loopback HTTP
# (GossipOnce: time, allocations and new connections per round).
bench:
	$(GO) test -run '^$$' -bench 'Update|Heap|CountSketch|Sharded|SortWeighted|Frames|HeavyDiff|ReadRequestFrame|LoadCheckpoint|GossipOnce' -benchtime 2s . ./internal/sketch ./internal/topk ./internal/stream ./internal/cluster ./internal/wire ./internal/core ./internal/server

# Machine-readable throughput snapshot for the perf trajectory: writes
# BENCH_throughput.json via cmd/wmbench (see PERFORMANCE.md).
bench-json:
	$(GO) run ./cmd/wmbench -throughput -json BENCH_throughput.json

# End-to-end serving throughput/latency: wmbench boots an in-process
# wmserve and drives it with concurrent clients, one leg per protocol —
# HTTP/JSON and the binary hot protocol (SERVING.md "Binary protocol") —
# recorded side by side with the speedup ratio in BENCH_serve.json next to
# BENCH_throughput.json.
bench-serve:
	$(GO) run ./cmd/wmbench -serve-bench -json BENCH_serve.json

# Tier-2 regression gate: re-measure both protocol legs and fail if either
# drops more than 25% below the updates/sec recorded in BENCH_serve.json.
# CI runs this.
bench-serve-check:
	$(GO) run ./cmd/wmbench -serve-bench -json /tmp/bench_serve_check.json -serve-baseline BENCH_serve.json

# The serving API end to end on loopback, every backend: update ->
# predict -> topk -> estimate -> checkpoint -> restore, span chains and
# structured logs, the /metrics families, the background refresher, the
# JSON/binary conformance suite, and wmserve's restore-before-serve boot.
# CI runs these inside `go test -race ./...`.
serve-smoke:
	$(GO) test -run 'TestServer|TestTracesAndStructuredLogs|TestMetricsEndpoint|TestBackgroundRefresh|TestConformance|TestBoot' ./internal/server ./cmd/wmserve

# A 3-node loopback cluster trained on disjoint thirds of a stream, gossiped
# to quiescence: every node must land within 5% (relative) of a single
# learner trained on the union, and delta rounds must move under 0.8x the
# bytes of full-sync rounds (CLUSTER.md). -v logs rounds, bytes and errors.
# CI runs it inside `go test -race ./...`.
cluster-smoke:
	$(GO) test -run TestClusterMatchesUnionLearner -v ./internal/server

# Discrete-event robustness gate: 100 in-memory nodes under 10% message
# loss, a 30-round partition, and 20% churn, fixed seed. Fails unless
# survivors converge within the relative-error gate AND every churned-out
# node's origin is GC'd to zero weight AND the report equals BENCH_sim.json
# byte for byte (on a mismatch the test prints the observed report). CI
# runs it inside `go test -race ./...`.
bench-sim:
	$(GO) test -run TestAcceptanceScenario -v ./internal/cluster/sim

# Short fuzz pass over the surfaces hostile bytes can reach: the gossip
# wire decoder, sketch and learner checkpoint restore, both directions of
# the binary hot protocol's frame decoder, and the libsvm line parser. All
# must reject cleanly (no panic, no unbounded allocation); decoded inputs
# must round-trip bit-exactly and parsed lines hold a ±1 label and finite
# values. CI runs this from the seeded corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadFrames -fuzztime 20s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzReadCountSketch -fuzztime 20s ./internal/sketch
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 20s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzReadRequestFrame -fuzztime 20s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzReadResponseFrame -fuzztime 20s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzParseLibSVMLine -fuzztime 20s ./internal/stream

# Static analysis gate (LINTING.md): `gofmt -l .` must print nothing;
# wmlint (the project's own analyzers — clockdet, maporder, decodebounds,
# guardedby, nonfinite, metricnames, ctxflow) always runs and must report
# zero findings; staticcheck and govulncheck run when installed (CI
# installs the pinned versions via lint-tools).
lint:
	@echo "gofmt -l ."; unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/wmlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make lint-tools)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (make lint-tools)"; \
	fi

# Install the pinned external linters (network required; CI uses this).
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
