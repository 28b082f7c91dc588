package lbkeogh

import (
	"context"
	"fmt"
	"math"

	"lbkeogh/internal/core"
	"lbkeogh/internal/index"
	"lbkeogh/internal/segment"
)

// Index is the exact disk-backed rotation-invariant index of Section 4.2:
// the full-resolution series live in a store — a segment store on disk
// (OpenSegmentIndex) or, for NewIndex, memory standing in for one — while a
// D-dimensional compressed representation — rotation-invariant Fourier
// magnitudes plus PAA means — stays in memory. Queries are answered exactly;
// the index only decides which objects must be fetched for verification.
//
// An Index is safe for concurrent use by distinct Query values: searching
// changes nothing in it but atomic counters, so one index serves any number
// of goroutines, each with its own query (a Query itself is not safe for
// concurrent use). A search is traced into its query's log (WithTraceLog),
// never into one of the index's own.
type Index struct {
	ix     *index.Index
	n      int
	m      int
	closer func() error // set for segment-backed indexes
	seg    *segment.DB  // set for segment-backed indexes
}

// SegmentStore returns the underlying segment store for an index opened
// with OpenSegmentIndex, or nil for every other kind of index: its Stats
// describe the segments and generation the index reads. The index, not the
// store, counts the fetches it makes (DiskReads, Stats().IndexFetches). The
// store is owned by the index: do not Close it directly.
func (ix *Index) SegmentStore() *segment.DB { return ix.seg }

// Stats returns a snapshot of the index's instrumentation record,
// cumulative over every query answered: the rows fetched for verification
// (IndexFetches) and the verification searches' pruning counters. Each
// search also lands on its own query's record (Query.Stats), which alone
// carries the per-level prune breakdown, the steps histogram and the dynamic-K
// trajectory.
func (ix *Index) Stats() SearchStats { return ix.ix.Stats().Snapshot() }

// ResetStats zeroes the instrumentation record, DiskReads included.
func (ix *Index) ResetStats() { ix.ix.Stats().Reset() }

// NewIndex builds an index over db, keeping dims compressed dimensions per
// object (the paper evaluates dims in {4, 8, 16, 32}). All series must share
// one length, and every sample must be finite: the error names the first
// series and sample that is not.
func NewIndex(db []Series, dims int) (*Index, error) {
	if err := index.Validate(db, dims); err != nil {
		return nil, fmt.Errorf("lbkeogh: %w", err)
	}
	n := len(db[0])
	if dims > n/2 {
		dims = n / 2
	}
	return &Index{ix: index.Build(db, dims), n: n, m: len(db)}, nil
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
	return &Index{ix: inner, n: store.SeriesLen(), m: store.Len(), seg: store, closer: func() error {
		snap.Release()
		return store.Close()
	}}, nil
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
// since the last ResetDiskReads or ResetStats — the metric of the paper's
// Figure 24, read from the instrumentation record (Stats().IndexFetches).
func (ix *Index) DiskReads() int { return int(ix.ix.Stats().Counts().IndexFetches) }

// ResetDiskReads zeroes the instrumentation record, whose IndexFetches is
// the disk-access count: it is ResetStats.
func (ix *Index) ResetDiskReads() { ix.ResetStats() }

// probe is every index search: Query.search's bracket around the internal
// probe, which runs through the query's own searcher — so under its strategy,
// options, adaptive state and statistics — keeping the k nearest strictly
// below limit (k = 0: all of them).
func (ix *Index) probe(ctx context.Context, q *Query, label string, k int, limit float64) ([]SearchResult, error) {
	check := func() error {
		if q.Len() != ix.n {
			return fmt.Errorf("lbkeogh: query length %d != indexed length %d", q.Len(), ix.n)
		}
		return nil
	}
	return q.search(ctx, label, check, func(ctx context.Context) ([]core.ScanResult, error) {
		c := core.NewCollector(k, limit)
		err := ix.ix.Probe(ctx, q.searcher, c)
		return c.Results(), err
	})
}

// Search answers the query exactly against the indexed database: same
// result as Query.Search over the same data, but touching only the objects
// whose compressed lower bound cannot rule them out; LCSS has no compressed
// bound, so an LCSS query verifies every row, as the flat scan does.
//
// The search runs through the query's own searcher: its strategy and options
// (WithFixedWedgeCount, WithTraceLog, SetBoundSampler) apply, and its
// steps and statistics land on q.Steps and q.Stats as well as on the index's
// cumulative record.
//
// Ties: candidates are verified in ascending order of their compressed bound
// (equal bounds by row), not in database order, so among rows at exactly the
// same distance but with different bounds the one reported — or, for top-K
// and range, their relative order — may differ from the flat scan's "lowest
// index first". Duplicate rows share their bound and resolve to the lowest
// index, as the scan does. Distances never differ.
func (ix *Index) Search(q *Query) (SearchResult, error) {
	return ix.SearchContext(context.Background(), q)
}

// SearchContext is Search bounded by ctx, with Query.SearchContext's
// cancellation semantics: ctx.Err() within one checkpoint interval, the
// undisposed rotations reported in CancelledMembers, the query reusable and
// the index untouched; an already-expired ctx does no work.
func (ix *Index) SearchContext(ctx context.Context, q *Query) (SearchResult, error) {
	rs, err := ix.probe(ctx, q, "index_search", 1, math.Inf(1))
	if err != nil {
		return SearchResult{}, err
	}
	if len(rs) == 0 {
		return SearchResult{}, fmt.Errorf("lbkeogh: index search found no result")
	}
	return rs[0], nil
}

// SearchTopK returns the k exact nearest indexed series in ascending distance
// order (k is clamped to [1, Len()]) — Query.SearchTopK through the index.
func (ix *Index) SearchTopK(q *Query, k int) ([]SearchResult, error) {
	return ix.SearchTopKContext(context.Background(), q, k)
}

// SearchTopKContext is SearchTopK bounded by ctx (see SearchContext).
func (ix *Index) SearchTopKContext(ctx context.Context, q *Query, k int) ([]SearchResult, error) {
	return ix.probe(ctx, q, "index_search_topk", max(1, min(k, ix.m)), math.Inf(1))
}

// SearchRange returns every indexed series whose exact rotation-invariant
// distance to the query is strictly below radius, in ascending distance
// order like Query.SearchRange — the "range" search of the paper's Section 3.
// Every measure is supported, as for Search: LCSS verifies every row. The
// radius must be positive (+Inf: every series); anything else is an error.
func (ix *Index) SearchRange(q *Query, radius float64) ([]SearchResult, error) {
	return ix.SearchRangeContext(context.Background(), q, radius)
}

// SearchRangeContext is SearchRange bounded by ctx (see SearchContext).
func (ix *Index) SearchRangeContext(ctx context.Context, q *Query, radius float64) ([]SearchResult, error) {
	if err := checkRangeThreshold(radius); err != nil {
		return nil, err
	}
	return ix.probe(ctx, q, "index_search_range", 0, radius)
}
