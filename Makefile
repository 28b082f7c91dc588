GO ?= go

.PHONY: all build vet lint bce-baseline test race race-concurrency pins bench smoke ingest-smoke govulncheck ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repository-specific invariant checks (internal/lint): Tally confinement,
# float equality, hot-path allocations, squared-space bounds, context
# conventions, metric names, lower-bound admissibility, and the BCE baseline.
# Copied locks are go vet's job, races make race's. -timing prints
# per-analyzer finding counts and wall time.
lint:
	$(GO) run ./cmd/lbkeoghvet -timing ./...

# Regenerate the committed bounds-check baseline for //lbkeogh:hotpath
# functions after a deliberate kernel change, then commit the file it names.
bce-baseline:
	$(GO) run ./cmd/lbkeoghvet -bce-update ./...

test:
	$(GO) test ./...

# The second line holds the pread segment reader (the fallback behind the
# lbkeogh_pread tag, which nothing else compiles) to the same index-path
# oracle and store tests as the mmap reader.
race:
	$(GO) test -race ./...
	$(GO) test -tags lbkeogh_pread . ./internal/segment/... ./internal/index/...

# Focused race pass over the concurrency-heavy packages (server admission and
# session pooling, streaming ingest, the shared cumulative telemetry, the parallel
# scan's shared best-so-far, the matrix pool every concurrent query build
# shares, the index every in-flight server session probes at once, and the
# root package's MetricsHandler / PublishExpvar over a live Query): -count=2
# reruns shake out init-order-dependent interleavings that a single -race pass
# can miss.
race-concurrency:
	$(GO) test -race -count=2 . ./internal/server/... ./internal/stream/... ./internal/obs/... ./internal/core/... ./internal/wedge/... ./internal/cluster/... ./internal/index/... ./internal/vptree/...

# The pinned tables (one scan's whole stats record, the index-path oracle's
# steps per cell, the collector's scans, a trace's composition, a monitor's
# record over one stream, the /metrics inventory after one session, a scan's
# dynamic-K trajectory against the controller it narrates) run three times
# over: a pin that moves between runs of one binary is not a pin. Nothing the
# dynamic-K controller decides may depend on a clock, a map order or a
# goroutine schedule.
pins:
	$(GO) test -count=3 -run 'TestPinned|TestIndexPathOracle|TestCollectorScanInto|TestTraceCompositionPinned|TestMetricsInventoryPinned|TestKTrajectoryChains' . ./internal/core ./internal/stream ./internal/server

# Short benchmark pass: one iteration of every benchmark, no unit tests. It
# checks that they run; a performance number comes from the repo benchmark
# (`bash benchmark/run.sh --workload <w>`, see benchmark/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Serving smoke test: boot shapeserver, drive search/top-K/deadline/drain and
# an EXPLAIN search whose plan must reconcile with /metrics. Part 3 runs the
# segment-store ingest smoke (ingest-smoke below).
smoke:
	./scripts/smoke.sh

# Segment-store end-to-end: shapeingest 50k shapes, serve the store with
# shapeserver -segments, search, online-ingest, compact, and assert the
# record counts on /livez and /metrics reconcile at every step.
ingest-smoke:
	./scripts/ingest-smoke.sh

# Known-vulnerability scan, skipped gracefully where the tool is not
# installed (the container has no network to fetch it).
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

ci: build vet lint race race-concurrency pins bench smoke govulncheck

# Removes what the repo benchmark builds; nothing committed lives there.
clean:
	rm -rf .bench_build
