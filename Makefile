GO ?= go

.PHONY: all build vet lint bce-baseline test race race-concurrency pins bench hot-align smoke ingest-smoke govulncheck loc ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repository-specific invariant checks (internal/lint): Tally confinement,
# float equality, hot-path allocations, context conventions, lower-bound
# admissibility (squared space included), and the BCE baseline. Copied locks
# are go vet's job, races make race's, metric names the /metrics format test's
# (TestMetricsBodiesAreTextFormat). -timing prints per-analyzer finding
# counts and wall time.
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
# session pooling, streaming ingest (shapeingest's worker pool and ordered
# commit), the atomic cumulative search records, the parallel scan's shared
# collector, the matrix pool every concurrent query build shares, the index
# every in-flight server session probes at once, the segment store's
# refcounted snapshot swap under concurrent Ingest/Compact, and the root
# package's TraceLog shared by concurrent queries and /metrics scraped over a
# live parallel Query): the packages of CI's race matrix. -count=2 reruns shake out init-order-dependent interleavings
# that a single -race pass can miss.
race-concurrency:
	$(GO) test -race -count=2 . ./internal/server/... ./internal/obs/... ./internal/core/... ./internal/wedge/... ./internal/cluster/... ./internal/index/... ./internal/segment/... ./internal/vptree/... ./cmd/shapeingest/...

# The pinned tables (one scan's whole stats record, the index-path oracle's
# steps per cell, the collector's scans, a trace's composition, a monitor's
# record over one stream, the /metrics inventory and family order after one
# session, a scan's dynamic-K trajectory against the controller it narrates,
# the efficiency experiments' num_steps) run three times over: a pin that
# moves between runs of one binary is not a pin. Nothing the dynamic-K
# controller decides may depend on a clock, a map order or a goroutine
# schedule.
pins:
	$(GO) test -count=3 -run 'TestPinned|TestIndexPathOracle|TestCollectorScanInto|TestTraceCompositionPinned|TestMetricsInventoryPinned|TestMetricsFamilyOrderPinned|TestKTrajectoryChains' . ./internal/core ./internal/stream ./internal/server ./internal/experiments

# Short benchmark pass: one iteration of every benchmark, no unit tests. It
# checks that they run; a performance number comes from the repo benchmark
# (`bash benchmark/run.sh --workload <w>`, see benchmark/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Entry address modulo 64 of each hot kernel (dist.dtwBanded,
# dist.EuclideanEA, envelope.LBKeogh, wedge.(*Tree).SearchInto) in the repo
# benchmark's binary, or in BIN=<binary>: their speed moves with their
# 64-byte alignment, so a scan claim reports both sides' (ROADMAP item 17).
hot-align:
	GO=$(GO) ./scripts/hot-align.sh $(BIN)

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

# Non-test Go lines per package and the module total, the count CHANGES.md
# and ROADMAP.md quote: every non-test .go file, outside internal/lint/testdata
# (the linter's fixtures) and dot-directories such as .bench_build.
loc:
	@find . -path ./internal/lint/testdata -prune -o -path '*/.*' -prune -o -name '*.go' ! -name '*_test.go' -print | \
		xargs awk '{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\./, "lbkeogh", d); n[d]++; t++ } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

# Removes what the repo benchmark builds; nothing committed lives there.
clean:
	rm -rf .bench_build
