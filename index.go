package lbkeogh

import (
	"fmt"

	"lbkeogh/internal/index"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/segment"
	"lbkeogh/internal/wedge"
)

// Index is the exact disk-backed rotation-invariant index of Section 4.2:
// the full-resolution series live in a store — a segment store on disk
// (OpenSegmentIndex) or, for NewIndex, memory standing in for one — while a
// D-dimensional compressed representation — rotation-invariant Fourier
// magnitudes plus PAA means — stays in memory. Queries are answered exactly;
// the index only decides which objects must be fetched for verification.
type Index struct {
	ix     *index.Index
	n      int
	m      int
	closer func() error // set for segment-backed indexes
	seg    *segment.DB  // set for segment-backed indexes
	obs    obs.SearchStats
	tracer Tracer
	tlog   *TraceLog
}

// SegmentStore returns the underlying segment store for an index opened
// with OpenSegmentIndex, or nil for every other kind of index. It is how
// tools attach storage-plane observability (segment.DB.SetObserver) to an
// index they opened through this package. The store is owned by the index:
// do not Close it directly.
func (ix *Index) SegmentStore() *segment.DB { return ix.seg }

// initObserver wires the index's instrumentation record (and any tracer)
// into the internal layer; called at construction and by SetTracer.
// Tracer aliases the internal interface, so no adapter is needed.
func (ix *Index) initObserver() {
	ix.ix.SetObserver(&ix.obs, ix.tracer)
}

// Stats returns a snapshot of the index's instrumentation record,
// cumulative over every query answered: index-level candidate and fetch
// counts, disk reads, and the verification searches' pruning breakdowns.
// When a TraceLog is attached, the snapshot additionally carries the log's
// per-stage latency summaries.
func (ix *Index) Stats() SearchStats {
	s := ix.obs.Snapshot()
	s.StageLatencies = ix.tlog.inner().Latencies().Snapshot()
	return s
}

// SetTraceLog attaches a TraceLog (nil detaches): every subsequent query
// records a span trace — index probe, per-candidate disk fetch, and the
// verification comparisons — sampled and screened for slow queries by the
// log, and every fetch's duration feeds the log's disk_read histogram. Not
// safe to call concurrently with queries.
func (ix *Index) SetTraceLog(t *TraceLog) {
	ix.tlog = t
	ix.ix.SetTraceLog(t.inner())
}

// ResetStats zeroes the instrumentation record (the DiskReads counter is
// independent; see ResetDiskReads).
func (ix *Index) ResetStats() { ix.obs.Reset() }

// SetTracer installs a Tracer receiving per-fetch and verification-search
// events (nil removes it). Not safe to call concurrently with queries.
func (ix *Index) SetTracer(t Tracer) {
	ix.tracer = t
	ix.initObserver()
}

// NewIndex builds an index over db, keeping dims compressed dimensions per
// object (the paper evaluates dims in {4, 8, 16, 32}). All series must share
// one length.
func NewIndex(db []Series, dims int) (*Index, error) {
	if len(db) == 0 {
		return nil, fmt.Errorf("lbkeogh: empty database")
	}
	n := len(db[0])
	for i, s := range db {
		if len(s) != n {
			return nil, fmt.Errorf("lbkeogh: database series %d length %d != %d", i, len(s), n)
		}
	}
	if dims < 1 {
		return nil, fmt.Errorf("lbkeogh: dims must be >= 1, got %d", dims)
	}
	if dims > n/2 {
		dims = n / 2
	}
	out := &Index{ix: index.Build(db, dims), n: n, m: len(db)}
	out.initObserver()
	return out, nil
}

// WriteSegmentStore persists db as a segment store in dir, which must not
// already hold one, computing the dims-dimensional feature columns
// OpenSegmentIndex reuses (dims is clamped to half the series length). All
// series must share one length.
func WriteSegmentStore(dir string, db []Series, dims int) error {
	if len(db) == 0 {
		return fmt.Errorf("lbkeogh: empty database")
	}
	if dims < 1 {
		return fmt.Errorf("lbkeogh: dims must be >= 1, got %d", dims)
	}
	if _, ok, err := segment.LoadManifest(dir); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("lbkeogh: %s already holds a segment store", dir)
	}
	n := len(db[0])
	b, err := segment.NewBulkWriter(dir, n, min(dims, n/2), int64(len(db)))
	if err != nil {
		return err
	}
	for i, s := range db {
		if err := b.Add(s, int64(i)); err != nil {
			b.Abort()
			return err
		}
	}
	return b.Close()
}

// OpenSegmentIndex opens a memory-mapped segment store directory (written by
// WriteSegmentStore, shapeingest or the server's ingest API) and builds a
// rotation-invariant index over the generation current at open time. The
// stored feature columns — FFT magnitudes and PAA means computed once at
// ingest — are reused directly, so the build never re-reads the raw series;
// queries fetch only the records their compressed bounds cannot exclude,
// through the mapping rather than a heap copy of the database.
//
// dims is used only when the manifest does not fix one (it always does for
// stores written by this codebase); the store's own dimensionality wins.
// Records ingested into dir after the open are not visible — reopen to see
// them. Call Close when done.
func OpenSegmentIndex(dir string, dims int) (*Index, error) {
	store, err := segment.OpenDB(dir, dims)
	if err != nil {
		return nil, err
	}
	if store.Len() == 0 {
		store.Close()
		return nil, fmt.Errorf("lbkeogh: segment store %s is empty", dir)
	}
	// Pin the open-time generation: the index's feature rows, and every
	// series a query fetches for verification, are views into these
	// mappings, so they must outlive every query.
	snap := store.Acquire()
	mags, paas := snap.Features()
	inner, err := index.BuildFromColumns(store.Pinned(snap), store.SeriesLen(), store.Dims(), mags, paas)
	if err != nil {
		snap.Release()
		store.Close()
		return nil, err
	}
	out := &Index{ix: inner, n: store.SeriesLen(), m: store.Len(), seg: store, closer: func() error {
		snap.Release()
		return store.Close()
	}}
	out.initObserver()
	return out, nil
}

// Close releases the resources of a segment-backed index; it is a no-op for
// in-memory indexes.
func (ix *Index) Close() error {
	if ix.closer != nil {
		return ix.closer()
	}
	return nil
}

// Len returns the number of indexed series.
func (ix *Index) Len() int { return ix.m }

// Dims returns the retained compressed dimensionality.
func (ix *Index) Dims() int { return ix.ix.D() }

// DiskReads reports how many full series have been fetched from the store
// since the last ResetDiskReads — the metric of the paper's Figure 24.
func (ix *Index) DiskReads() int { return ix.ix.Reads() }

// ResetDiskReads zeroes the disk-access counter.
func (ix *Index) ResetDiskReads() { ix.ix.ResetReads() }

// SearchRange returns every indexed series whose exact rotation-invariant
// distance to the query is strictly below radius, in ascending database
// order — the "range" search of the paper's Section 3. Supports the
// Euclidean and DTW measures.
func (ix *Index) SearchRange(q *Query, radius float64) ([]SearchResult, error) {
	if q.Len() != ix.n {
		return nil, fmt.Errorf("lbkeogh: query length %d != indexed length %d", q.Len(), ix.n)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("lbkeogh: radius must be positive")
	}
	var rs []index.Result
	switch kern := q.searcher.Kernel().(type) {
	case wedge.ED:
		rs = ix.ix.RangeED(q.rs, radius, &q.counter)
	case wedge.DTW:
		rs = ix.ix.RangeDTW(q.rs, kern.R, 0, radius, &q.counter)
	default:
		return nil, fmt.Errorf("lbkeogh: range search supports Euclidean and DTW measures, not %s", q.measure.Name())
	}
	return q.results(rs), nil
}

// Search answers the query exactly against the indexed database: same
// result as Query.Search over the same data, but touching only the objects
// whose compressed lower bound cannot rule them out. Supports the Euclidean
// and DTW measures (LCSS queries fall back to a full scan).
func (ix *Index) Search(q *Query) (SearchResult, error) {
	if q.Len() != ix.n {
		return SearchResult{}, fmt.Errorf("lbkeogh: query length %d != indexed length %d", q.Len(), ix.n)
	}
	var r index.Result
	switch kern := q.searcher.Kernel().(type) {
	case wedge.ED:
		r = ix.ix.SearchED(q.rs, &q.counter)
	case wedge.DTW:
		r = ix.ix.SearchDTW(q.rs, kern.R, 0, &q.counter)
	default:
		// No admissible compressed bound implemented: exact fallback that
		// fetches everything once.
		r = ix.ix.SearchScan(q.rs, kern, &q.counter)
	}
	if r.Index < 0 {
		return SearchResult{}, fmt.Errorf("lbkeogh: index search found no result")
	}
	return SearchResult{Index: r.Index, Dist: r.Dist, Rotation: q.rotation(r.Member)}, nil
}
