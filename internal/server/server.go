// Package server implements the shape-search serving layer: an HTTP/JSON
// front end over a loaded series database, with per-request deadlines wired
// into the library's cooperative cancellation, admission control (a bounded
// in-flight set plus a bounded wait queue, shedding load with 429s once both
// fill), and an LRU pool of compiled query sessions so repeated queries skip
// the O(n²) rotation-set build. Every response carries the request's own
// pruning breakdown (SearchStats), and the server aggregates those into a
// record served at /metrics and /debug/lbkeogh.
package server

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"lbkeogh"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/ops"
	"lbkeogh/internal/segment"
)

// Config sizes a Server. The zero value of any field selects its default.
type Config struct {
	// DB is the series database searched by every request; all rows must
	// share one length. Labels optionally carries a class label per row.
	// Mutually exclusive with Store.
	DB     []lbkeogh.Series
	Labels []int

	// Store serves searches from a memory-mapped segment store instead of a
	// heap-resident DB: every request reads through a reference-counted
	// snapshot of the store's current generation, so /v1/ingest and
	// /v1/compact (only available in this mode) can grow and reorganize the
	// database online with zero failed queries. An empty store is allowed —
	// the ingest-first workflow — and searches answer 503 until the first
	// ingest fixes the series length. Labels come from the store's metadata
	// column; Config.Labels must be nil.
	Store *segment.DB

	// MaxInflight bounds concurrent searches (default 4); MaxQueue bounds
	// requests waiting for a slot beyond them (default 16; above it the
	// server answers 429 immediately).
	MaxInflight int
	MaxQueue    int

	// PoolSize bounds the idle query-session pool (default 32 sessions).
	PoolSize int

	// DefaultTimeout bounds requests that set no timeout_ms (default 10s);
	// MaxTimeout caps what a request may ask for (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// TraceLog, when set, traces every pooled query session; the dashboard
	// and Perfetto export at /debug/lbkeogh read from it.
	TraceLog *lbkeogh.TraceLog

	// Logger receives the structured request log (one line per terminal
	// outcome, carrying request and trace IDs). Nil discards it.
	Logger *slog.Logger

	// ExplainSampleInterval is the bound-tightness sampling interval: one of
	// every N candidate comparisons across all requests gets its full bound
	// waterfall measured (the FFT-magnitude bound under Euclidean distance
	// and the LB_Keogh envelope bound, against the true distance), feeding the tightness histograms on /metrics and the
	// explain panel on /debug/lbkeogh. Default 512; negative disables the
	// sampler entirely.
	ExplainSampleInterval int

	// BeforeSearchHook, when non-nil, runs after a request is admitted and
	// its session checked out, immediately before the search executes, and
	// the context it returns is the search's. It is a test seam: integration
	// tests block inside it to hold in-flight slots open and pin the
	// admission-control semantics (429 on queue overflow, 504 on
	// queued-deadline expiry), or wrap the request's context to cancel the
	// search at a fixed checkpoint, deterministically. Leave nil in
	// production.
	BeforeSearchHook func(context.Context) context.Context
}

func (c *Config) fillDefaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 32
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.ExplainSampleInterval == 0 {
		c.ExplainSampleInterval = 512
	}
}

// serveDims is the compressed dimensionality of the index a static-mode
// server answers through. A constant, not a setting: on the benchmark's
// serve-mix (4 096 × 251 points; EXPERIMENTS.md "Wall clock — the server
// answers through its index") dims 8 / 16 / 32 measured 459 / 634 / 668
// ops/s, 852 k / 620 k / 509 k steps per request and 135.9 / 136.9 / 138.9 MB
// peak RSS — the throughput curve has flattened by 16, resident memory has
// not, and nothing has a second value to ask for. NewIndex clamps it to half
// the series length.
const serveDims = 16

// Server serves rotation-invariant shape searches over one database.
// Create with New, mount Handler, and call BeginDrain before shutting the
// http.Server down so in-flight requests finish while new ones get 503s.
type Server struct {
	cfg   Config
	n     int         // series length every query must match (static mode)
	store *segment.DB // nil in static (heap DB) mode
	pool  *Pool
	adm   *Admission
	mux   *http.ServeMux
	tel   *telemetry

	// ix is the index over Config.DB that static mode answers through, built
	// once by New and shared by every in-flight session; nil in store mode,
	// which scans its snapshots flat.
	ix *lbkeogh.Index

	// sampler is the server-owned bound-tightness sink, armed on every
	// pooled query session (nil when ExplainSampleInterval < 0).
	sampler *lbkeogh.BoundSampler

	draining    atomic.Bool
	timeouts    atomic.Int64 // requests ended by deadline or client cancel
	drained     atomic.Int64 // requests refused because the server was draining
	mutationsIn atomic.Int64 // in-flight ingest/compact handlers (readyz reason)

	// stats is the cumulative search record: every served request's delta,
	// flushed in by searchEndpoint.
	stats obs.SearchStats
}

// New validates the database and builds the server.
func New(cfg Config) (*Server, error) {
	var n int
	if cfg.Store != nil {
		if cfg.DB != nil {
			return nil, fmt.Errorf("server: Config.DB and Config.Store are mutually exclusive")
		}
		if cfg.Labels != nil {
			return nil, fmt.Errorf("server: Config.Labels is unused in store mode (labels live in the store)")
		}
		n = cfg.Store.SeriesLen() // 0 for an empty store: fixed by the first ingest
	} else {
		if len(cfg.DB) == 0 {
			return nil, fmt.Errorf("server: empty database")
		}
		n = len(cfg.DB[0])
		if n < 2 {
			return nil, fmt.Errorf("server: database series need >= 2 samples, got %d", n)
		}
		for i, row := range cfg.DB {
			if len(row) != n {
				return nil, fmt.Errorf("server: database series %d length %d != %d", i, len(row), n)
			}
		}
		if cfg.Labels != nil && len(cfg.Labels) != len(cfg.DB) {
			return nil, fmt.Errorf("server: %d labels for %d series", len(cfg.Labels), len(cfg.DB))
		}
	}
	cfg.fillDefaults()
	s := &Server{
		cfg:   cfg,
		n:     n,
		store: cfg.Store,
		pool:  NewPool(cfg.PoolSize),
		adm:   NewAdmission(cfg.MaxInflight, cfg.MaxQueue),
		tel:   newTelemetry(cfg),
	}
	if cfg.ExplainSampleInterval > 0 {
		s.sampler = lbkeogh.NewBoundSampler(cfg.ExplainSampleInterval)
	}
	if s.store == nil {
		// The database is fixed for the life of the process: compute its
		// magnitude features and raise the tree over them once, here, and no
		// request ever compares against a row the bound could have excluded.
		ix, err := lbkeogh.NewIndex(cfg.DB, serveDims)
		if err != nil {
			return nil, fmt.Errorf("server: indexing the database: %w", err)
		}
		s.ix = ix
	}
	s.mux = s.buildMux()
	return s, nil
}

// Len returns the series length every query must match (0 while a
// store-backed server is still empty).
func (s *Server) Len() int { return s.seriesLen() }

// seriesLen is the live series length: fixed at construction in static mode,
// read from the store (which an ingest may have just fixed) in store mode.
func (s *Server) seriesLen() int {
	if s.store != nil {
		return s.store.SeriesLen()
	}
	return s.n
}

// dbSize is the live row count.
func (s *Server) dbSize() int {
	if s.store != nil {
		return s.store.Len()
	}
	return len(s.cfg.DB)
}

// dbView is one request's stable view of the database: in static mode the
// config slices, in store mode a pinned snapshot's zero-copy rows. release
// must be called when the request is done with the rows.
type dbView struct {
	rows    []lbkeogh.Series
	labels  []int
	release func()
}

// acquireView pins the database for one request.
func (s *Server) acquireView() dbView {
	if s.store == nil {
		return dbView{rows: s.cfg.DB, labels: s.cfg.Labels, release: func() {}}
	}
	snap := s.store.Acquire()
	return dbView{rows: snap.Rows(), labels: snap.Labels(), release: snap.Release}
}

// Handler returns the server's full mux: the /v1 search endpoints, healthz,
// and the observability surface (/metrics, /debug/lbkeogh, /debug/vars,
// /debug/pprof/).
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain puts the server into draining mode: search endpoints answer 503
// immediately, /readyz flips to 503 (so load balancers stop routing here),
// and already-admitted requests run to completion. Call it before
// http.Server.Shutdown, leaving readiness probes time to observe the flip.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.tel.logger.Info("drain started")
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats returns the server's cumulative search record: the sum of every
// served request's pruning breakdown (so the same reconciling outcome
// buckets as a single query's stats), with the trace log's per-stage
// latencies attached when tracing is on. Server implements
// lbkeogh.StatsSource, so it plugs straight into MetricsHandler and
// DebugHandler.
func (s *Server) Stats() lbkeogh.SearchStats {
	out := s.stats.Snapshot()
	if s.cfg.TraceLog != nil {
		out.StageLatencies = s.cfg.TraceLog.StageLatencies()
	}
	return out
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/search", s.searchEndpoint(kindNearest))
	mux.HandleFunc("/v1/topk", s.searchEndpoint(kindTopK))
	mux.HandleFunc("/v1/range", s.searchEndpoint(kindRange))
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/compact", s.handleCompact)
	// Kubernetes-style probe split: /livez answers 200 for as long as the
	// process can serve HTTP at all, /readyz drops to 503 once draining (or
	// before the database is swapped in — see cmd/shapeserver). /healthz is
	// a backwards-compatible alias for liveness.
	mux.HandleFunc("/livez", s.handleLivez)
	mux.HandleFunc("/healthz", s.handleLivez)
	mux.HandleFunc("/readyz", s.handleReadyz)
	sources := map[string]lbkeogh.StatsSource{"shapeserver": s}
	logs := map[string]*lbkeogh.TraceLog{}
	if s.cfg.TraceLog != nil {
		logs["shapeserver"] = s.cfg.TraceLog
	}
	mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lbkeogh.MetricsHandler(sources).ServeHTTP(w, r)
		s.writeServerMetrics(w)
		if s.sampler != nil {
			s.sampler.WriteMetrics(w)
		}
		s.tel.writeMetrics(w)
		if s.store != nil {
			s.store.Journal().WriteMetrics(w)
		}
	}))
	mux.Handle("/debug/lbkeogh", lbkeogh.DebugHandlerWithPanels(sources, logs, s.tel.panel(), s.explainPanel()))
	mux.HandleFunc("/debug/index", s.handleDebugIndex)
	mux.HandleFunc("/debug/storage", s.handleDebugStorage)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeServerMetrics appends the serving-layer families (admission, pool,
// request outcomes) to the Prometheus text the library already wrote.
func (s *Server) writeServerMetrics(w io.Writer) {
	ad := s.adm.Stats()
	ops.WriteGaugeInt(w, "shapeserver_inflight", "Searches currently executing.", ad.Inflight)
	ops.WriteGaugeInt(w, "shapeserver_queue_waiting", "Requests waiting for an in-flight slot.", ad.Waiting)
	ops.WriteCounter(w, "shapeserver_admitted_total", "Requests granted an in-flight slot.", ad.Admitted)
	ops.WriteCounter(w, "shapeserver_rejected_total", "Requests shed with 429 (queue full).", ad.Rejected)
	pl := s.pool.Stats()
	ops.WriteGaugeInt(w, "shapeserver_pool_idle", "Idle query sessions in the pool.", int64(pl.Idle))
	ops.WriteCounter(w, "shapeserver_pool_hits_total", "Checkouts served by a pooled session.", pl.Hits)
	ops.WriteCounter(w, "shapeserver_pool_misses_total", "Checkouts that built a fresh session.", pl.Misses)
	ops.WriteCounter(w, "shapeserver_pool_evictions_total", "Idle sessions evicted by the pool cap.", pl.Evictions)
	ops.WriteCounter(w, "shapeserver_timeouts_total", "Requests ended by deadline or client cancellation.", s.timeouts.Load())
	ops.WriteCounter(w, "shapeserver_drained_total", "Requests refused while draining.", s.drained.Load())
	drainingVal := int64(0)
	if s.Draining() {
		drainingVal = 1
	}
	ops.WriteGaugeInt(w, "shapeserver_draining", "1 while the server is draining.", drainingVal)
	s.writeStoreMetrics(w)
}

// writeStoreMetrics appends the segment-store families (store mode only):
// per-segment record counts, mapped bytes, generation, ingest and compaction
// counters, and page-fault-adjacent process stats — the numbers that show a
// mapped million-shape database being paged, not heaped.
func (s *Server) writeStoreMetrics(w io.Writer) {
	if s.store == nil {
		return
	}
	st := s.store.Stats()
	ops.WriteGaugeInt(w, "shapeserver_store_generation", "Manifest generation currently serving.", st.Generation)
	ops.WriteGaugeInt(w, "shapeserver_store_segments", "Live segment files in the current generation.", int64(len(st.Segments)))
	ops.WriteGaugeInt(w, "shapeserver_store_records", "Records visible in the current generation.", int64(st.Records))
	ops.WriteGaugeInt(w, "shapeserver_store_mapped_bytes", "Bytes of segment data currently memory-mapped.", st.MappedBytes)
	busy := int64(0)
	if st.Busy || s.mutationsIn.Load() > 0 {
		busy = 1
	}
	ops.WriteGaugeInt(w, "shapeserver_store_busy", "1 while an ingest or compaction is in flight.", busy)
	ops.WriteCounter(w, "shapeserver_store_ingests_total", "Online ingests applied to the store.", st.Ingests)
	ops.WriteCounter(w, "shapeserver_store_compactions_total", "Compactions applied to the store.", st.Compactions)
	ops.WriteCounter(w, "shapeserver_store_ingested_records_total", "Records appended through online ingest.", st.IngestedRecords)
	ops.WriteFamily(w, "shapeserver_store_segment_records", "gauge",
		"Records per live segment file.")
	for _, seg := range st.Segments {
		fmt.Fprintf(w, "shapeserver_store_segment_records{segment=%q} %d\n", seg.File, seg.Records)
	}
	if ps, ok := readProcStat(); ok {
		ops.WriteFamily(w, "shapeserver_page_faults_total", "counter",
			"Process page faults since start, by kind (major faults hit the disk — the mmap serving cost).")
		fmt.Fprintf(w, "shapeserver_page_faults_total{kind=\"minor\"} %d\n", ps.MinorFaults)
		fmt.Fprintf(w, "shapeserver_page_faults_total{kind=\"major\"} %d\n", ps.MajorFaults)
		ops.WriteGaugeInt(w, "shapeserver_rss_bytes",
			"Resident set size (stays well under mapped bytes when serving from page cache).", ps.RSSBytes)
	}
}
