package lbkeogh

import (
	"context"
	"fmt"
	"math"

	"lbkeogh/internal/core"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/trace"
	"lbkeogh/internal/ts"
)

// Series is a 1-D signal: a shape's centroid-distance signature, a folded
// star light curve, or any fixed-length sequence to be matched under
// circular shifts.
type Series = []float64

// Strategy selects the search algorithm. All strategies return identical,
// exact results; they differ only in cost. The zero value (WedgeSearch) is
// the paper's contribution and the right default. A Strategy prints as
// "wedge", "brute", "early_abandon" or "fft".
type Strategy = core.Strategy

const (
	// WedgeSearch is H-Merge over hierarchically nested wedges with the
	// dynamic wedge-set-size controller (Section 4 of the paper).
	WedgeSearch = core.Wedge
	// BruteForceSearch evaluates the full distance for every rotation.
	BruteForceSearch = core.BruteForce
	// EarlyAbandonSearch evaluates every rotation with early abandoning.
	EarlyAbandonSearch = core.EarlyAbandon
	// FFTSearch filters with the rotation-invariant Fourier-magnitude lower
	// bound before falling back to early abandoning (Euclidean only).
	FFTSearch = core.FFTFilter
)

// Rotation describes the alignment at which a match was found.
type Rotation struct {
	// Shift is the circular shift (in samples) applied to the query that
	// produced the match.
	Shift int
	// Mirrored reports whether the matching alignment used the query's
	// mirror image (only possible with WithMirrorInvariance).
	Mirrored bool
	// Degrees is the shift expressed as a rotation angle of the original
	// shape, in [0, 360).
	Degrees float64
}

// queryConfig collects the functional options.
type queryConfig struct {
	mirror bool
	// maxDeg is the rotation limit in degrees; nil is unlimited.
	maxDeg   *float64
	strategy Strategy
	fixedK   int
	tlog     *TraceLog
}

// resolveOptions is the one reading of the options, shared by NewQuery and
// the mining operations: it applies opts and resolves the rotation limit
// against the series length n.
func resolveOptions(opts []QueryOption, n int) (queryConfig, core.Options, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	copts := core.Options{Mirror: cfg.mirror, MaxShift: -1}
	if d := cfg.maxDeg; d != nil {
		if !(*d >= 0 && *d < 180) {
			return cfg, copts, fmt.Errorf("lbkeogh: rotation limit %v degrees outside [0, 180)", *d)
		}
		copts.MaxShift = int(math.Round(*d / 360 * float64(n)))
	}
	return cfg, copts, nil
}

// QueryOption customizes NewQuery.
type QueryOption func(*queryConfig)

// WithMirrorInvariance additionally matches the query's mirror image
// (enantiomorphic invariance): a "d" will match a "b".
func WithMirrorInvariance() QueryOption {
	return func(c *queryConfig) { c.mirror = true }
}

// WithMaxRotationDegrees restricts matching to rotations within ±deg degrees
// of the query's original orientation — the paper's "find the best match to
// this shape allowing a maximum rotation of 15 degrees". deg must lie in
// [0, 180); for a series of n samples the limit is deg·n/360 rounded to the
// nearest sample, so a limit of k < n/2 samples is k·360/n degrees.
func WithMaxRotationDegrees(deg float64) QueryOption {
	return func(c *queryConfig) { c.maxDeg = &deg }
}

// WithStrategy overrides the search strategy (default WedgeSearch). All
// strategies are exact; the others exist as baselines and for benchmarks.
func WithStrategy(s Strategy) QueryOption {
	return func(c *queryConfig) { c.strategy = s }
}

// WithFixedWedgeCount pins the wedge-set size K instead of adapting it
// dynamically. Intended for experiments: the dynamic controller comes within
// a tenth of the best fixed K's steps without being told where it is.
func WithFixedWedgeCount(k int) QueryOption {
	return func(c *queryConfig) { c.fixedK = k }
}

// WithTraceLog attaches a TraceLog: the query's construction and every
// subsequent search record a span trace — rotation-matrix and wedge builds,
// one span per comparison carrying its counter deltas — which the log samples,
// screens for slow queries, and aggregates into per-stage latency
// histograms (surfaced through Stats). The log is safe to share across
// queries, including concurrent ones — each query records into its own
// buffer and only completed traces enter the log.
func WithTraceLog(t *TraceLog) QueryOption {
	return func(c *queryConfig) { c.tlog = t }
}

// Query is a compiled rotation-invariant query: the expanded rotation matrix
// of one series plus its hierarchical wedge structure. Build once (O(n²)),
// then match against any number of candidate series. A Query is not safe for
// concurrent use (it carries adaptive search state); build one per goroutine.
type Query struct {
	rs        *core.RotationSet
	searcher  *core.Searcher
	measure   Measure
	searchCfg core.SearcherConfig
	n         int
	// carry is what Steps adds to the record's steps: the build's
	// SetupSteps, less what ResetSteps discarded, plus what ResetStats
	// cleared from the record.
	carry int64
	obs   obs.SearchStats
	// lastTraceID is the retained trace ID of the most recently finished
	// operation (0 when untraced or sampled away). Queries are single-use
	// per operation — the server pool checks sessions out exclusively — so
	// a plain field is race-free.
	lastTraceID int64
	tlog        *trace.Log // nil: untraced
}

// NewQuery compiles series into a rotation-invariant query under the given
// measure. The series must have at least 2 samples, all finite, with a
// squared norm below MaxFloat64/8 so that no squared distance overflows;
// callers normally z-normalize first (shape.Signature and the dataset
// generators already do).
func NewQuery(series Series, m Measure, opts ...QueryOption) (*Query, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	if len(series) < 2 {
		return nil, fmt.Errorf("lbkeogh: query series needs >= 2 samples, got %d", len(series))
	}
	if err := ts.CheckRow(series); err != nil {
		return nil, fmt.Errorf("lbkeogh: query %w", err)
	}
	cfg, copts, err := resolveOptions(opts, len(series))
	if err != nil {
		return nil, err
	}
	if err := core.CheckStrategy(cfg.strategy, m.kern); err != nil {
		return nil, fmt.Errorf("lbkeogh: FFTSearch: %w", err)
	}
	q := &Query{measure: m, n: len(series), tlog: cfg.tlog.inner()}
	q.searchCfg = core.SearcherConfig{FixedK: cfg.fixedK, Obs: &q.obs}
	rec := q.tlog.StartTrace("build")
	buildSpan := rec.Begin(trace.StageBuild, -1)
	q.rs = core.NewRotationSetTraced(series, copts, rec)
	q.carry = q.rs.SetupSteps
	q.searcher = core.NewSearcher(q.rs, m.kern, cfg.strategy, q.searchCfg)
	rec.End(buildSpan)
	q.tlog.Finish(rec, obs.Counts{})
	return q, nil
}

// startTrace begins one observed operation: a recorder with a root search
// span, attached to the searcher so comparisons record under it, and the
// counter snapshot it is measured against. On an untraced query everything
// is nil/no-op.
func (q *Query) startTrace(label string) (*trace.Recorder, trace.SpanID, obs.Counts) {
	rec := q.tlog.StartTrace(label)
	if rec == nil {
		return nil, -1, obs.Counts{}
	}
	before := q.obs.Counts()
	root := rec.Begin(trace.StageSearch, -1)
	q.searcher.SetRecorder(rec)
	return rec, root, before
}

// finishTrace closes the root span with the operation's counter delta and
// hands the trace to the log for sampling and slow-query screening.
func (q *Query) finishTrace(rec *trace.Recorder, root trace.SpanID, before obs.Counts) {
	if rec == nil {
		return
	}
	q.searcher.SetRecorder(nil)
	delta := q.obs.Counts().Sub(before)
	rec.EndAttrs(root, delta)
	q.lastTraceID = q.tlog.Finish(rec, delta)
}

// LastTraceID returns the retained trace ID of the query's most recently
// finished operation, or 0 when the operation was untraced or not retained
// by the trace log's sampler. Serving layers attach it to responses and log
// lines so a slow request can be chased to its trace.
func (q *Query) LastTraceID() int64 { return q.lastTraceID }

// Len returns the query's series length; every candidate must match it.
func (q *Query) Len() int { return q.n }

// Rotations returns the number of alignments the query admits (n, doubled
// by mirror invariance, reduced by rotation limits).
func (q *Query) Rotations() int { return q.rs.Members() }

// Steps returns the cumulative num_steps (real-value subtractions) this
// query has spent, including its construction cost — the paper's
// implementation-free efficiency metric. It is the build's SetupSteps plus
// the steps of the instrumentation record, and ResetStats does not change it.
func (q *Query) Steps() int64 { return q.carry + q.obs.Steps() }

// ResetSteps zeroes Steps (construction cost included — call right after
// NewQuery to exclude it); the instrumentation record is unaffected.
func (q *Query) ResetSteps() { q.carry = -q.obs.Steps() }

// Stats returns a snapshot of the query's instrumentation record: the
// pruning breakdown per bound, the per-comparison steps histogram, and the
// dynamic-K trajectory, cumulative over every comparison this query has run
// (including through SearchParallel). Unlike Steps, it excludes the
// construction cost — it covers matching only. When a TraceLog is attached,
// the snapshot additionally carries the log's per-stage latency summaries.
func (q *Query) Stats() SearchStats {
	s := q.obs.Snapshot()
	s.StageLatencies = q.tlog.Latencies().Snapshot()
	return s
}

// ResetStats zeroes the instrumentation record; Steps is unaffected, since
// the record's steps move into what Steps carries.
func (q *Query) ResetStats() {
	q.carry += q.obs.Steps()
	q.obs.Reset()
}

func (q *Query) rotation(m core.Member) Rotation {
	return Rotation{
		Shift:    m.Shift,
		Mirrored: m.Mirrored,
		Degrees:  float64(m.Shift) / float64(q.n) * 360,
	}
}

func (q *Query) checkSeries(x Series) error {
	if len(x) != q.n {
		return fmt.Errorf("lbkeogh: candidate length %d != query length %d", len(x), q.n)
	}
	return nil
}

// Distance returns the exact rotation-invariant distance from the query to
// x — the minimum measure distance over every admitted alignment — and the
// minimizing rotation.
func (q *Query) Distance(x Series) (float64, Rotation, error) {
	if err := q.checkSeries(x); err != nil {
		return 0, Rotation{}, err
	}
	rec, root, before := q.startTrace("distance")
	m := q.searcher.MatchSeries(x, -1, nil)
	q.finishTrace(rec, root, before)
	return m.Dist, q.rotation(m.Member), nil
}

// Match tests whether any alignment of the query is strictly closer to x
// than threshold; when it is, the exact distance and rotation are returned
// with ok = true. This is the range-query primitive (and far cheaper than
// Distance when the threshold is tight, thanks to early abandoning). The
// threshold must be non-negative (0 matches nothing, +Inf everything); a
// negative or NaN one is an error.
func (q *Query) Match(x Series, threshold float64) (dist float64, rot Rotation, ok bool, err error) {
	if err := q.checkSeries(x); err != nil {
		return 0, Rotation{}, false, err
	}
	if !(threshold >= 0) {
		return 0, Rotation{}, false, fmt.Errorf("lbkeogh: match threshold must be >= 0, got %v", threshold)
	}
	rec, root, before := q.startTrace("match")
	m := q.searcher.MatchSeries(x, threshold, nil)
	q.finishTrace(rec, root, before)
	if !m.Found() {
		return math.Inf(1), Rotation{}, false, nil
	}
	return m.Dist, q.rotation(m.Member), true, nil
}

// SearchResult is one database hit.
type SearchResult struct {
	// Index is the position of the matched series in the database slice.
	Index int
	// Dist is the exact rotation-invariant distance.
	Dist float64
	// Rotation is the minimizing alignment.
	Rotation Rotation
}

// validateDB rejects an empty database and any series whose length differs
// from the query's, with the offending index in the error. It checks lengths
// only, not ts.CheckRows' finite samples: that pass would read every sample
// on every search, as much as the scan itself, and a row with a non-finite
// sample never matches (every distance to it is NaN, which compares false).
func (q *Query) validateDB(db []Series) error {
	if len(db) == 0 {
		return fmt.Errorf("lbkeogh: empty database")
	}
	for i, x := range db {
		if len(x) != q.n {
			return fmt.Errorf("lbkeogh: database series %d length %d != query length %d", i, len(x), q.n)
		}
	}
	return nil
}

// checkCtx is the Search*Context entry fast path: an already-expired context
// fails before any validation, tracing, or scanning happens. A nil ctx is
// treated as context.Background (uncancellable).
func checkCtx(ctx context.Context) (context.Context, error) {
	if ctx == nil {
		return context.Background(), nil
	}
	return ctx, ctx.Err()
}

// search is the bracket every database search runs in, flat or indexed: an
// expired context fails first, then whatever check finds malformed (the
// database, or the query against an index), and only then does run — the scan
// or probe proper — execute, inside the operation's trace; its hits come back
// as public results.
func (q *Query) search(ctx context.Context, label string, check func() error, run func(context.Context) ([]core.ScanResult, error)) ([]SearchResult, error) {
	q.lastTraceID = 0 // an operation refused below records no trace
	ctx, err := checkCtx(ctx)
	if err != nil {
		return nil, err
	}
	if err := check(); err != nil {
		return nil, err
	}
	rec, root, before := q.startTrace(label)
	rs, err := run(ctx)
	q.finishTrace(rec, root, before)
	if err != nil {
		return nil, err
	}
	return q.results(rs), nil
}

// results translates internal hits — a scan's or an index probe's — into
// public ones.
func (q *Query) results(rs []core.ScanResult) []SearchResult {
	out := make([]SearchResult, len(rs))
	for i, r := range rs {
		out[i] = SearchResult{Index: r.Index, Dist: r.Dist, Rotation: q.rotation(r.Member)}
	}
	return out
}

// scan is the serial search: the query's own searcher over db, keeping the k
// nearest strictly below limit (k = 0: all of them).
func (q *Query) scan(ctx context.Context, db []Series, label string, k int, limit float64) ([]SearchResult, error) {
	return q.search(ctx, label, func() error { return q.validateDB(db) }, func(ctx context.Context) ([]core.ScanResult, error) {
		c := core.NewCollector(k, limit)
		err := q.searcher.ScanInto(ctx, db, c)
		return c.Results(), err
	})
}

// Search scans db linearly and returns the exact nearest neighbour under
// the query's measure and invariances (Table 3 of the paper, with the
// query's strategy deciding how each comparison is accelerated).
func (q *Query) Search(db []Series) (SearchResult, error) {
	return q.SearchContext(context.Background(), db)
}

// SearchContext is Search bounded by ctx: the scan checks for cancellation
// at amortized checkpoints (at least once per database comparison, and every
// core.CancelCheckInterval'th rotation within one) and returns ctx.Err() as
// soon as one trips. A cancelled search leaves the query valid and reusable;
// the rotations it never disposed of are reported in
// SearchStats.CancelledMembers, so the stats record still reconciles. With
// an uncancelled ctx the result is identical to Search.
func (q *Query) SearchContext(ctx context.Context, db []Series) (SearchResult, error) {
	rs, err := q.scan(ctx, db, "search", 1, math.Inf(1))
	if err != nil {
		return SearchResult{}, err
	}
	if len(rs) == 0 { // no series at a finite distance
		return SearchResult{Index: -1, Dist: math.Inf(1)}, nil
	}
	return rs[0], nil
}

// SearchParallel is Search distributed across the given number of worker
// goroutines (0 selects GOMAXPROCS). The rotation set and its wedge
// hierarchy are shared (they are concurrency-safe); each worker owns its
// adaptive search state, and all workers prune against the shared
// best-so-far. The result is identical to Search.
func (q *Query) SearchParallel(db []Series, workers int) (SearchResult, error) {
	return q.SearchParallelContext(context.Background(), db, workers)
}

// SearchParallelContext is SearchParallel bounded by ctx. Each worker polls
// its own amortized checkpoint, so a cancellation stops every worker within
// one checkpoint interval; the workers are joined before the error returns,
// so a cancelled search leaks no goroutines and leaves the query reusable.
func (q *Query) SearchParallelContext(ctx context.Context, db []Series, workers int) (SearchResult, error) {
	// Parallel scans record the root span only: a Recorder is
	// single-goroutine, and the per-worker searchers are built from the
	// config, recorder-less.
	rs, err := q.search(ctx, "search_parallel", func() error { return q.validateDB(db) }, func(ctx context.Context) ([]core.ScanResult, error) {
		r, err := core.ScanParallelContext(ctx, q.rs, q.measure.kern, q.searcher.Strategy(), q.searchCfg, db, workers, nil)
		return []core.ScanResult{r}, err
	})
	if err != nil {
		return SearchResult{}, err
	}
	return rs[0], nil // Index -1, Dist +Inf when no series is at a finite distance, as Search
}

// SearchTopK returns the k exact nearest neighbours in ascending distance
// order (k is clamped to [1, len(db)]).
func (q *Query) SearchTopK(db []Series, k int) ([]SearchResult, error) {
	return q.SearchTopKContext(context.Background(), db, k)
}

// SearchTopKContext is SearchTopK bounded by ctx, with the same cancellation
// semantics as SearchContext.
func (q *Query) SearchTopKContext(ctx context.Context, db []Series, k int) ([]SearchResult, error) {
	return q.scan(ctx, db, "search_topk", max(1, min(k, len(db))), math.Inf(1))
}

// SearchRange returns every database series whose exact rotation-invariant
// distance is strictly below threshold, in ascending distance order (ties
// towards the lower index). The threshold doubles as the early-abandoning
// bound, so tight ranges are far cheaper than a full nearest-neighbour scan.
// It must be positive (+Inf: every series); anything else is an error.
func (q *Query) SearchRange(db []Series, threshold float64) ([]SearchResult, error) {
	return q.SearchRangeContext(context.Background(), db, threshold)
}

// SearchRangeContext is SearchRange bounded by ctx, with the same
// cancellation semantics as SearchContext.
func (q *Query) SearchRangeContext(ctx context.Context, db []Series, threshold float64) ([]SearchResult, error) {
	if err := checkRangeThreshold(threshold); err != nil {
		return nil, err
	}
	return q.scan(ctx, db, "search_range", 0, threshold)
}

// checkRangeThreshold is the one rule of both range searches, and the one
// the server applies to /v1/range: a threshold that is not positive — zero,
// negative or NaN — asks for nothing a search could return, and the scan
// would read a negative one as "unbounded".
func checkRangeThreshold(threshold float64) error {
	if !(threshold > 0) {
		return fmt.Errorf("lbkeogh: range threshold must be > 0, got %v", threshold)
	}
	return nil
}
