package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"lbkeogh"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/ops"
	"lbkeogh/internal/segment"
)

// searchKind selects which search a /v1 endpoint runs.
type searchKind int

const (
	kindNearest searchKind = iota
	kindTopK
	kindRange
)

// SearchRequest is the JSON body of the /v1 search endpoints. Exactly one of
// Series and QueryIndex identifies the query shape; the rest parameterize
// the measure, invariances, strategy, and the endpoint-specific knobs.
type SearchRequest struct {
	// Series is the query signature (must match the database series length).
	Series []float64 `json:"series,omitempty"`
	// QueryIndex selects a database row as the query instead.
	QueryIndex *int `json:"query_index,omitempty"`

	// Measure is euclidean (default), dtw, or lcss; R is the DTW Sakoe-Chiba
	// radius / LCSS window (default 5), Eps the LCSS threshold (default 0.25).
	Measure string  `json:"measure,omitempty"`
	R       *int    `json:"r,omitempty"`
	Eps     float64 `json:"eps,omitempty"`

	// Mirror enables mirror-image invariance; MaxDegrees limits rotations to
	// ±deg of the original orientation.
	Mirror     bool     `json:"mirror,omitempty"`
	MaxDegrees *float64 `json:"max_degrees,omitempty"`

	// Strategy is wedge (default), brute, early_abandon, or fft.
	Strategy string `json:"strategy,omitempty"`

	// K is the neighbour count for /v1/topk (default 1); Threshold the
	// strict distance cutoff for /v1/range (required there); Parallel the
	// worker count for /v1/search (0 or 1: serial; clamped to GOMAXPROCS).
	K         int     `json:"k,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Parallel  int     `json:"parallel,omitempty"`

	// TimeoutMS bounds this request's search; 0 uses the server default, and
	// values above the server maximum are clamped to it.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// Explain runs the search in EXPLAIN mode: the response additionally
	// carries a structured plan (the stage waterfall, and the bound
	// tightness sampled on every fourth comparison). Costs one extra
	// waterfall measurement per four comparisons; meant for diagnostics, not
	// steady-state traffic.
	Explain bool `json:"explain,omitempty"`
}

// Hit is one search result row.
type Hit struct {
	Index    int     `json:"index"`
	Label    *int    `json:"label,omitempty"`
	Dist     float64 `json:"dist"`
	Shift    int     `json:"shift"`
	Degrees  float64 `json:"degrees"`
	Mirrored bool    `json:"mirrored,omitempty"`
}

// SearchResponse is the JSON body of a successful search.
type SearchResponse struct {
	Results []Hit `json:"results"`
	// Stats is this request's own pruning breakdown (its outcome buckets
	// reconcile); the server-wide aggregate lives at /metrics.
	Stats lbkeogh.SearchStats `json:"stats"`
	// PoolHit reports whether a pooled session served the request (the
	// rotation-set build was skipped).
	PoolHit   bool    `json:"pool_hit"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// TraceID is the retained trace of this search (0 when tracing is off or
	// the sampler dropped it); resolve it at /debug/lbkeogh.
	TraceID int64 `json:"trace_id"`
	// Plan is the structured EXPLAIN output, present only when the request
	// set explain. Its waterfall counts reconcile with Stats exactly.
	Plan *lbkeogh.ExplainPlan `json:"plan,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing left to do on a broken client connection
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// parse validates the body and resolves it into the query series, its pool
// spec, and the request deadline. rows is the request's database view (for
// query_index resolution against the same generation the search will scan).
func (s *Server) parse(r *http.Request, kind searchKind, rows []lbkeogh.Series) (SearchRequest, QuerySpec, time.Duration, error) {
	var req SearchRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, QuerySpec{}, 0, fmt.Errorf("bad request body: %v", err)
	}
	if (req.Series == nil) == (req.QueryIndex == nil) {
		return req, QuerySpec{}, 0, fmt.Errorf("exactly one of series and query_index is required")
	}
	series := req.Series
	if req.QueryIndex != nil {
		qi := *req.QueryIndex
		if qi < 0 || qi >= len(rows) {
			return req, QuerySpec{}, 0, fmt.Errorf("query_index %d outside [0,%d)", qi, len(rows))
		}
		series = rows[qi]
		if s.store != nil {
			// The row is a view into the request's snapshot, but the spec (and
			// the pooled session built from it) outlives the snapshot: copy.
			series = append(lbkeogh.Series(nil), series...)
		}
	}
	if n := s.seriesLen(); len(series) != n {
		return req, QuerySpec{}, 0, fmt.Errorf("series length %d != database series length %d", len(series), n)
	}
	if req.Measure == "" {
		req.Measure = "euclidean"
	}
	switch req.Measure {
	case "euclidean", "dtw", "lcss":
	default:
		return req, QuerySpec{}, 0, fmt.Errorf("unknown measure %q", req.Measure)
	}
	if req.Strategy == "" {
		req.Strategy = "wedge"
	}
	switch req.Strategy {
	case "wedge", "brute", "early_abandon", "fft":
	default:
		return req, QuerySpec{}, 0, fmt.Errorf("unknown strategy %q", req.Strategy)
	}
	if kind == kindRange && !(req.Threshold > 0) {
		return req, QuerySpec{}, 0, fmt.Errorf("range search requires threshold > 0")
	}
	if req.TimeoutMS < 0 {
		return req, QuerySpec{}, 0, fmt.Errorf("timeout_ms must be >= 0")
	}
	// One admitted request holds one in-flight slot whatever it asks for:
	// workers beyond the schedulable CPUs would only add goroutines and
	// per-worker searchers.
	req.Parallel = min(req.Parallel, runtime.GOMAXPROCS(0))
	radius := 5
	if req.R != nil {
		radius = *req.R
	}
	eps := req.Eps
	if eps == 0 {
		eps = 0.25
	}
	maxDeg := -1.0
	if req.MaxDegrees != nil {
		maxDeg = *req.MaxDegrees
		if !(maxDeg >= 0 && maxDeg < 180) {
			return req, QuerySpec{}, 0, fmt.Errorf("max_degrees %v outside [0, 180)", maxDeg)
		}
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Clamped in milliseconds: converting first overflows a Duration for
		// a large enough request and turns it into an already-expired one.
		timeout = s.cfg.MaxTimeout
		if int64(req.TimeoutMS) <= s.cfg.MaxTimeout.Milliseconds() {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
	}
	spec := QuerySpec{
		Measure:  req.Measure,
		R:        radius,
		Eps:      eps,
		Mirror:   req.Mirror,
		MaxDeg:   maxDeg,
		Strategy: req.Strategy,
		Series:   series,
	}
	return req, spec, timeout, nil
}

// buildQuery compiles the spec into a query session, tracing it through the
// server's log when one is configured.
func (s *Server) buildQuery(spec QuerySpec) (*lbkeogh.Query, error) {
	var m lbkeogh.Measure
	switch spec.Measure {
	case "dtw":
		m = lbkeogh.DTW(spec.R)
	case "lcss":
		m = lbkeogh.LCSS(spec.R, spec.Eps)
	default:
		m = lbkeogh.Euclidean()
	}
	var strat lbkeogh.Strategy
	switch spec.Strategy {
	case "brute":
		strat = lbkeogh.BruteForceSearch
	case "early_abandon":
		strat = lbkeogh.EarlyAbandonSearch
	case "fft":
		strat = lbkeogh.FFTSearch
	default:
		strat = lbkeogh.WedgeSearch
	}
	opts := []lbkeogh.QueryOption{lbkeogh.WithStrategy(strat)}
	if spec.Mirror {
		opts = append(opts, lbkeogh.WithMirrorInvariance())
	}
	if spec.MaxDeg >= 0 {
		opts = append(opts, lbkeogh.WithMaxRotationDegrees(spec.MaxDeg))
	}
	if s.cfg.TraceLog != nil {
		opts = append(opts, lbkeogh.WithTraceLog(s.cfg.TraceLog))
	}
	q, err := lbkeogh.NewQuery(spec.Series, m, opts...)
	if err != nil {
		return nil, err
	}
	// Every pooled session feeds the server-owned bound-tightness sampler
	// (a nil sampler detaches, costing one nil check per comparison).
	q.SetBoundSampler(s.sampler)
	return q, nil
}

// request is one /v1 request's identity and its single exit.
type request struct {
	s     *Server
	ep    string
	began time.Time
	lg    *slog.Logger // carries request_id and endpoint; handlers narrow it as they learn more
}

// begin opens every /v1 request: it assigns the request ID (echoed in the
// X-Request-ID header), derives the request logger, and answers the two
// refusals no endpoint body needs to see — 405 for anything but POST, 503
// once the server is draining. ok is false when begin already answered.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, ep string) (rq *request, ok bool) {
	rq = &request{s: s, ep: ep, began: time.Now()}
	rid := s.tel.ids.Next()
	w.Header().Set("X-Request-ID", rid)
	rq.lg = s.tel.logger.With("request_id", rid, "endpoint", ep)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		rq.finish(http.StatusMethodNotAllowed, "method not allowed", "method", r.Method)
		return rq, false
	}
	if s.Draining() {
		s.drained.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		rq.finish(http.StatusServiceUnavailable, "refused: draining")
		return rq, false
	}
	return rq, true
}

// finish is every terminal outcome's single exit: one RED observation and
// one log line per request, both of the same duration.
func (rq *request) finish(status int, msg string, attrs ...any) {
	dur := time.Since(rq.began)
	rq.s.tel.endpoints[rq.ep].Observe(status, dur)
	attrs = append(attrs, "status", status, "dur_ms", float64(dur.Microseconds())/1000)
	if status >= 400 {
		rq.lg.Warn(msg, attrs...)
	} else {
		rq.lg.Info(msg, attrs...)
	}
}

// searchEndpoint returns the handler for one /v1 endpoint: admission, pool
// checkout, the deadline-bounded search, and the stats-bearing response.
// Every terminal outcome is logged with the request ID and folded into the
// endpoint's RED record.
func (s *Server) searchEndpoint(kind searchKind) http.HandlerFunc {
	ep := endpointName(kind)
	return func(w http.ResponseWriter, r *http.Request) {
		rq, ok := s.begin(w, r, ep)
		if !ok {
			return
		}
		finish := rq.finish
		ctx := ops.WithLogger(r.Context(), rq.lg)
		// Pin this request's database view: in store mode a refcounted
		// snapshot whose mappings survive any concurrent compaction; the
		// search, query_index resolution, and labels all read one generation.
		view := s.acquireView()
		defer view.release()
		if len(view.rows) == 0 {
			writeError(w, http.StatusServiceUnavailable, "store is empty: ingest data first")
			finish(http.StatusServiceUnavailable, "refused: empty store")
			return
		}
		req, spec, timeout, err := s.parse(r, kind, view.rows)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			finish(http.StatusBadRequest, "bad request", "error", err.Error())
			return
		}
		rq.lg = rq.lg.With("strategy", spec.Strategy, "measure", spec.Measure)
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()

		if err := s.adm.Acquire(ctx); err != nil {
			switch {
			case errors.Is(err, ErrSaturated):
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "%v", err)
				finish(http.StatusTooManyRequests, "shed: admission queue full")
			case errors.Is(err, context.DeadlineExceeded):
				s.timeouts.Add(1)
				writeError(w, http.StatusGatewayTimeout, "deadline expired while queued for admission")
				finish(http.StatusGatewayTimeout, "timeout while queued")
			default: // client went away while queued
				s.timeouts.Add(1)
				writeError(w, http.StatusServiceUnavailable, "request cancelled while queued")
				finish(http.StatusServiceUnavailable, "client gone while queued")
			}
			return
		}
		defer s.adm.Release()

		sess, hit, err := s.pool.Checkout(spec, func() (*lbkeogh.Query, error) { return s.buildQuery(spec) })
		if err != nil {
			// The only build failures left after parse are option conflicts
			// (e.g. fft with a non-Euclidean measure): the client's fault.
			writeError(w, http.StatusBadRequest, "%v", err)
			finish(http.StatusBadRequest, "session build failed", "error", err.Error())
			return
		}
		if !hit {
			rq.lg.Debug("built fresh query session")
		}
		// A cancelled search leaves the session reusable (the library
		// guarantees its adaptive state is not polluted), so it goes back to
		// the pool on every path.
		defer s.pool.Checkin(sess)
		if req.Explain {
			sess.Q.SetExplain(true)
			// Disarm before Checkin (defers run LIFO) so a pooled session
			// never carries EXPLAIN cost into another request.
			defer sess.Q.SetExplain(false)
		}

		if hook := s.cfg.BeforeSearchHook; hook != nil {
			ctx = hook(ctx)
		}
		q := sess.Q
		q.ResetStats() // per-request delta: the response carries only this search
		start := time.Now()
		results, err := s.runSearch(ctx, q, kind, req, view.rows)
		elapsed := time.Since(start)
		stats := q.Stats()
		stats.StageLatencies = nil // log-global, not per-request; see /metrics
		var levels [obs.MaxPruneLevels]int64
		copy(levels[:], stats.WedgePrunesByLevel)
		s.stats.AddCounts(&stats.Counts, &levels)
		traceID := q.LastTraceID()
		searchDone := func(status int, msg string, attrs ...any) {
			attrs = append(attrs, "trace_id", traceID, "pool_hit", hit, "comparisons", stats.Comparisons)
			finish(status, msg, attrs...)
		}
		if err != nil {
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				s.timeouts.Add(1)
				writeError(w, http.StatusGatewayTimeout, "search exceeded its %v deadline", timeout)
				searchDone(http.StatusGatewayTimeout, "search deadline exceeded", "timeout", timeout.String())
			case errors.Is(err, context.Canceled):
				s.timeouts.Add(1)
				writeError(w, http.StatusServiceUnavailable, "search cancelled")
				searchDone(http.StatusServiceUnavailable, "search cancelled")
			default:
				writeError(w, http.StatusBadRequest, "%v", err)
				searchDone(http.StatusBadRequest, "search failed", "error", err.Error())
			}
			return
		}
		resp := SearchResponse{
			Results:   s.hits(results, view.labels),
			Stats:     stats,
			PoolHit:   hit,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
			TraceID:   traceID,
		}
		if req.Explain {
			resp.Plan = q.Explain()
		}
		writeJSON(w, http.StatusOK, resp)
		searchDone(http.StatusOK, "search served", "results", len(resp.Results))
	}
}

// runSearch executes the request's search and makes the server's one routing
// decision, read off the request and never set by a user: a Euclidean query
// under the wedge strategy on one goroutine goes through the serving index —
// a VP-tree probe over magnitude features whose survivors the session's own
// searcher verifies, so the answer, the adaptive state, the trace and the
// per-request stats are the flat scan's, minus the rows the bound excluded.
// Everything else scans rows flat: DTW (the index's PAA bound fetches most of
// the database and loses to a scan), LCSS (no compressed bound), the brute /
// early-abandon / fft ablation strategies (a request for one is a request for
// that scan), parallel searches, and store mode (no index per generation).
func (s *Server) runSearch(ctx context.Context, q *lbkeogh.Query, kind searchKind, req SearchRequest, rows []lbkeogh.Series) ([]lbkeogh.SearchResult, error) {
	indexed := s.ix != nil && req.Measure == "euclidean" && req.Strategy == "wedge" && req.Parallel <= 1
	switch kind {
	case kindTopK:
		k := max(req.K, 1)
		if indexed {
			return s.ix.SearchTopKContext(ctx, q, k)
		}
		return q.SearchTopKContext(ctx, rows, k)
	case kindRange:
		if indexed {
			return s.ix.SearchRangeContext(ctx, q, req.Threshold)
		}
		return q.SearchRangeContext(ctx, rows, req.Threshold)
	}
	var res lbkeogh.SearchResult
	var err error
	switch {
	case indexed:
		res, err = s.ix.SearchContext(ctx, q)
	case req.Parallel > 1: // serial unless explicitly parallel
		res, err = q.SearchParallelContext(ctx, rows, req.Parallel)
	default:
		res, err = q.SearchContext(ctx, rows)
	}
	if err != nil {
		return nil, err
	}
	return []lbkeogh.SearchResult{res}, nil
}

func (s *Server) hits(results []lbkeogh.SearchResult, labels []int) []Hit {
	out := make([]Hit, len(results))
	for i, r := range results {
		h := Hit{
			Index:    r.Index,
			Dist:     r.Dist,
			Shift:    r.Rotation.Shift,
			Degrees:  r.Rotation.Degrees,
			Mirrored: r.Rotation.Mirrored,
		}
		if labels != nil {
			label := labels[r.Index]
			h.Label = &label
		}
		out[i] = h
	}
	return out
}

// healthResponse is the /livez (and aliased /healthz) body.
type healthResponse struct {
	Status    string         `json:"status"` // always "ok": liveness, not readiness
	Draining  bool           `json:"draining"`
	SeriesLen int            `json:"series_len"`
	DBSize    int            `json:"db_size"`
	Admission AdmissionStats `json:"admission"`
	Pool      PoolStats      `json:"pool"`
	Timeouts  int64          `json:"timeouts"`
	// Store is present only in segment-store mode.
	Store *segment.Stats `json:"store,omitempty"`
}

// handleLivez is the liveness probe: 200 for as long as the process can
// serve HTTP at all, draining included — restarting a draining server would
// defeat the drain. Routing decisions belong to /readyz.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:    "ok",
		Draining:  s.Draining(),
		SeriesLen: s.seriesLen(),
		DBSize:    s.dbSize(),
		Admission: s.adm.Stats(),
		Pool:      s.pool.Stats(),
		Timeouts:  s.timeouts.Load(),
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// readyResponse is the /readyz body. Reason always explains the status —
// "serving" or "ingesting" when ready, "draining" (or, from the process
// wrapper before the database is swapped in, "loading" / "mapping") when not —
// so probes and operators never see a bare 503.
type readyResponse struct {
	Status string `json:"status"` // "ready" or "unready"
	Reason string `json:"reason"`
}

// handleReadyz is the readiness probe: 503 once the server is draining so
// load balancers route new work elsewhere while in-flight requests finish.
// A store mutation in flight does not unready the server — searches keep
// serving the previous snapshot — but the reason surfaces it as "ingesting".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, readyResponse{Status: "unready", Reason: "draining"})
		return
	}
	reason := "serving"
	if s.store != nil && (s.store.Busy() || s.mutationsIn.Load() > 0) {
		reason = "ingesting"
	}
	writeJSON(w, http.StatusOK, readyResponse{Status: "ready", Reason: reason})
}
