// Command shapeserver serves rotation-invariant shape search over HTTP: load
// a CSV database (as written by mkdata) or a synthetic one, then answer
// nearest-neighbour, top-K, and range queries as JSON, each response carrying
// its own pruning breakdown. The server bounds concurrency with admission
// control (429 once the wait queue fills), bounds every search with a
// deadline wired into the library's cooperative cancellation (504 on
// expiry), pools compiled query sessions so repeated queries keep their
// O(n²) wedge hierarchy once built, and drains gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	mkdata -dataset projectile -m 500 > db.csv
//	shapeserver -db db.csv
//	shapeserver -synthetic 400,128 -addr :8321
//	shapeserver -segments /data/shapes     # mmap a segment store (see shapeingest)
//
//	curl -s localhost:8321/v1/search -d '{"query_index":0}'
//	curl -s localhost:8321/v1/topk   -d '{"series":[...], "k":5, "measure":"dtw", "r":5}'
//	curl -s localhost:8321/v1/range  -d '{"query_index":3, "threshold":2.5}'
//	curl -s localhost:8321/readyz
//	curl -s localhost:8321/metrics
//
// The process emits a structured request log (JSON by default; see -log and
// -log-level) and binds the listener before the database load so /livez
// answers immediately (/readyz stays 503 until the database is in). Counters
// and histograms are at /metrics. The trace log is at /debug/lbkeogh: its
// summaries as JSON, and with ?format=chrome its traces as Chrome trace-event
// JSON for ui.perfetto.dev (404 under -notrace). A segment store's
// generation, segments and orphans are in the /livez store block; each
// ingest and compaction logs one line with its generation. CPU and heap
// profiles, taken on demand, are at /debug/pprof/. The server starts no
// background telemetry goroutine.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"lbkeogh"
	"lbkeogh/internal/obs/ops"
	"lbkeogh/internal/segment"
	"lbkeogh/internal/seriesio"
	"lbkeogh/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8321", "listen address")
		dbPath      = flag.String("db", "", "CSV database file (label,v0,v1,...)")
		segments    = flag.String("segments", "", "memory-mapped segment store directory (see shapeingest); enables /v1/ingest and /v1/compact")
		segDims     = flag.Int("segment-dims", 8, "feature dims for segments created by online ingest into an empty store")
		segVerify   = flag.Bool("verify-on-open", false, "recompute every segment section CRC while mapping the store (faults the whole file in; default trusts shapeingest -verify and checks headers only)")
		synthetic   = flag.String("synthetic", "", "generate a synthetic database instead: m,n (series,samples)")
		seed        = flag.Int64("seed", 42, "synthetic dataset seed")
		inflight    = flag.Int("inflight", 4, "max concurrent searches")
		queue       = flag.Int("queue", 16, "max requests waiting beyond the in-flight slots (then 429)")
		pool        = flag.Int("pool", 32, "max idle query sessions kept for reuse")
		timeout     = flag.Duration("timeout", 10*time.Second, "default per-request search deadline")
		maxTO       = flag.Duration("max-timeout", 60*time.Second, "cap on client-requested timeout_ms")
		grace       = flag.Duration("grace", 15*time.Second, "shutdown grace period for draining in-flight requests")
		drainWait   = flag.Duration("drain-wait", 2*time.Second, "pause between flipping /readyz and closing the listener, so load balancers observe the flip")
		notrace     = flag.Bool("notrace", false, "disable query tracing (smaller overhead; /debug/lbkeogh answers 404)")
		traceSample = flag.Float64("trace-sample", 1.0, "fraction of non-slow traces the trace log retains")
		logFormat   = flag.String("log", "json", "structured log format: json or text")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		expSample   = flag.Int("explain-sample-interval", 0, "measure the full bound waterfall for one in N comparisons (0 = default 512, negative disables the sampler)")
	)
	flag.Parse()
	logger := ops.NewLogger(os.Stderr, *logFormat, *logLevel)

	// Bind before loading the database: /livez answers as soon as the
	// process is up, while /readyz reports "loading" until the real handler
	// is swapped in. The swap is one atomic store — no requests are dropped.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	var handler atomic.Value // of http.Handler
	var phase atomic.Value   // "loading" → "mapping" → swapped out by the real mux
	phase.Store("loading")
	handler.Store(loadingHandler(&phase))
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String())

	var labels []int
	var db []lbkeogh.Series
	var store *segment.DB
	sources := 0
	for _, set := range []bool{*dbPath != "", *synthetic != "", *segments != ""} {
		if set {
			sources++
		}
	}
	switch {
	case sources > 1:
		logger.Error("-db, -synthetic, and -segments are mutually exclusive")
		os.Exit(2)
	case *segments != "":
		// Distinct readiness phase: mapping a large store is not the same
		// wait as parsing a CSV, and probes can tell them apart.
		phase.Store("mapping")
		// Headers and section tables are always verified; skipping the data
		// CRCs keeps the open a true map — RSS grows with the pages queries
		// touch, not with store size.
		openOpts := []segment.OpenOption{segment.WithoutDataCRC()}
		if *segVerify {
			openOpts = nil
		}
		store, err = segment.OpenDB(*segments, *segDims, openOpts...)
		if err != nil {
			logger.Error("segment store open failed", "dir", *segments, "error", err)
			os.Exit(1)
		}
		defer store.Close()
		st := store.Stats()
		logger.Info("segment store mapped", "dir", *segments,
			"generation", st.Generation, "segments", len(st.Segments),
			"records", st.Records, "mapped_bytes", st.MappedBytes, "zero_copy", st.ZeroCopy)
		if len(st.Orphans) > 0 {
			logger.Warn("ignoring orphaned segment files not named by the manifest", "files", st.Orphans)
		}
	case *dbPath != "":
		var rows [][]float64
		labels, rows, err = seriesio.ReadCSV(*dbPath)
		if err != nil {
			logger.Error("database load failed", "path", *dbPath, "error", err)
			os.Exit(1)
		}
		db = make([]lbkeogh.Series, len(rows))
		for i, r := range rows {
			db[i] = r
		}
		logger.Info("database loaded", "path", *dbPath, "series", len(db))
	case *synthetic != "":
		parts := strings.Split(*synthetic, ",")
		var m, n int
		var err1, err2 error
		if len(parts) == 2 {
			m, err1 = strconv.Atoi(strings.TrimSpace(parts[0]))
			n, err2 = strconv.Atoi(strings.TrimSpace(parts[1]))
		}
		if len(parts) != 2 || err1 != nil || err2 != nil || m < 2 || n < 2 {
			logger.Error("-synthetic wants m,n with m,n >= 2", "got", *synthetic)
			os.Exit(2)
		}
		db = lbkeogh.SyntheticProjectilePoints(*seed, m, n)
		logger.Info("database generated", "series", m, "samples", n, "seed", *seed)
	default:
		logger.Error("one of -db, -synthetic, or -segments is required")
		os.Exit(2)
	}

	var tlog *lbkeogh.TraceLog
	if !*notrace {
		tlog = lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(*traceSample))
	}
	srv, err := server.New(server.Config{
		DB:             db,
		Labels:         labels,
		Store:          store,
		MaxInflight:    *inflight,
		MaxQueue:       *queue,
		PoolSize:       *pool,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTO,
		TraceLog:       tlog,
		Logger:         logger,

		ExplainSampleInterval: *expSample,
	})
	if err != nil {
		logger.Error("server build failed", "error", err)
		os.Exit(1)
	}
	handler.Store(srv.Handler())
	size := len(db)
	endpoints := "/v1/search /v1/topk /v1/range /v1/ingest /v1/compact /livez /readyz /metrics"
	if tlog != nil {
		endpoints += " /debug/lbkeogh"
	}
	if store != nil {
		size = store.Len()
	}
	logger.Info("serving",
		"series", size, "series_len", srv.Len(), "addr", ln.Addr().String(),
		"endpoints", endpoints+" /debug/pprof/")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	case s := <-sig:
		logger.Info("signal received", "signal", s.String(), "grace", grace.String(), "drain_wait", drainWait.String())
	}
	// Flip readiness first and leave the listener open for drainWait so
	// probes observe the 503 before connections stop being accepted; then
	// Shutdown waits out in-flight requests up to the grace period.
	srv.BeginDrain()
	time.Sleep(*drainWait)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown failed", "error", err)
		os.Exit(1)
	}
	logger.Info("drained")
}

// loadingHandler answers probes while the database comes up: alive but not
// ready, with the current startup phase ("loading" a CSV / synthetic build,
// "mapping" a segment store) as the unready reason so a slow start is never a
// bare 503. Everything else gets a 503 with Retry-After.
func loadingHandler(phase *atomic.Value) http.Handler {
	reason := func() string { return phase.Load().(string) }
	mux := http.NewServeMux()
	alive := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "phase": reason()}) //nolint:errcheck // probe body
	}
	mux.HandleFunc("/livez", alive)
	mux.HandleFunc("/healthz", alive)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "unready", "reason": reason()}) //nolint:errcheck // probe body
	})
	return mux
}
