// Package index implements the disk-based exact rotation-invariant index of
// Section 4.2 (Table 7): a compressed, memory-resident representation of
// every database series — rotation-invariant Fourier magnitudes for
// Euclidean queries, PAA means for DTW queries — over a store of the
// full-resolution series, counting how many had to be fetched for exact
// verification.
//
// Disk accesses, not CPU, are the metric of Figure 24 ("the fraction of
// items that must be retrieved from disk"), so every fetch is counted — here
// and nowhere else; an object is fetched at most once per query.
package index

import (
	"fmt"
	"math"
	"sort"

	"lbkeogh/internal/core"
	"lbkeogh/internal/fourier"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/trace"
	"lbkeogh/internal/paa"
	"lbkeogh/internal/rtree"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/vptree"
	"lbkeogh/internal/wedge"
)

// SeriesStore is the disk-resident collection of full-resolution series
// (internal/segment's DB). Counting and timing its fetches is the index's
// job, not the store's.
type SeriesStore interface {
	// Fetch retrieves one full series.
	Fetch(id int) []float64
	// Len returns the collection size.
	Len() int
	// LinkTrace hands over the ID of a just-retained query trace, which
	// exists only once the query has finished, so a store that keeps deferred
	// fetch exemplars can stamp this query's slow/cold fetches with it.
	LinkTrace(id int64)
}

// memStore keeps the collection in memory — the "disk" of the Figure 24
// experiments, where only the number of fetches matters.
type memStore [][]float64

func (s memStore) Fetch(id int) []float64 { return s[id] }
func (s memStore) Len() int               { return len(s) }
func (memStore) LinkTrace(int64)          {}

// Index is the compressed in-memory representation plus the store.
type Index struct {
	store SeriesStore
	reads int // fetches since the last ResetReads
	n     int // series length
	d     int // retained dimensionality D

	mags [][]float64 // Fourier magnitude features (rotation invariant)
	vpt  *vptree.Tree
	paas [][]float64 // PAA means for the DTW path
	rt   *rtree.Tree // R-tree over the PAA points (ref [37])
	segW []float64   // PAA segment widths (the bound weights)

	obs    *obs.SearchStats // nil: the no-op sink
	tracer obs.Tracer       // nil: untraced
	tlog   *trace.Log       // nil: no trace recording
}

// SetObserver installs an instrumentation record and tracer used by every
// subsequent query: index-level candidate/fetch/disk-read counts and the
// verification searches' pruning breakdowns. Either argument may be nil. Not
// safe to call concurrently with queries.
func (ix *Index) SetObserver(st *obs.SearchStats, tr obs.Tracer) {
	ix.obs = st
	ix.tracer = tr
}

// SetTraceLog attaches (or with nil detaches) a trace log: every subsequent
// query records a span trace — index probe, per-candidate fetch, and the
// verification comparisons — which the log samples and screens for slow
// queries; each fetch's duration also feeds the log's disk_read stage
// histogram. Not safe to call concurrently with queries.
func (ix *Index) SetTraceLog(l *trace.Log) { ix.tlog = l }

// Reads reports the number of full series fetched since the last ResetReads.
func (ix *Index) Reads() int { return ix.reads }

// ResetReads zeroes the fetch counter.
func (ix *Index) ResetReads() { ix.reads = 0 }

// fetch retrieves one full series for verification. It is the only place a
// fetch is counted and timed: one interval is both the trace's fetch span
// and the disk_read stage sample.
func (ix *Index) fetch(rec *trace.Recorder, id int) []float64 {
	ix.reads++
	ix.obs.CountIndexCandidate()
	ix.obs.CountIndexFetch()
	ix.obs.CountDiskRead()
	obs.TraceFetch(ix.tracer, id)
	start := rec.Now()
	series := ix.store.Fetch(id)
	dur := rec.Now() - start
	rec.Emit(trace.StageFetch, id, start, dur)
	ix.tlog.ObserveStage(trace.StageDiskRead, dur)
	return series
}

// Build constructs the index over db, held in memory, with D retained
// dimensions per object (the paper sweeps D in {4, 8, 16, 32}). All series
// must share one length.
func Build(db [][]float64, D int) *Index {
	if len(db) == 0 {
		panic("index: empty database")
	}
	n := len(db[0])
	for i, s := range db {
		if len(s) != n {
			panic(fmt.Sprintf("index: series %d length %d != %d", i, len(s), n))
		}
	}
	if D < 1 {
		panic("index: D must be positive")
	}
	ix := &Index{store: memStore(db), n: n, d: D}
	ix.mags = make([][]float64, len(db))
	ix.paas = make([][]float64, len(db))
	for i, s := range db {
		ix.mags[i] = fourier.Magnitudes(s, D)
		ix.paas[i] = paa.Reduce(s, D)
	}
	ix.buildTrees()
	return ix
}

// BuildFromColumns constructs the index over a store whose compressed
// feature columns already exist — the segment-store path, where FFT
// magnitudes and PAA means were computed once at ingest time and are mapped,
// not recomputed, at index build. mags and paas are row views (one D-length
// row per record, in global ID order) and must stay valid for the index's
// lifetime; the caller pins the backing snapshot.
func BuildFromColumns(store SeriesStore, n, D int, mags, paas [][]float64) (*Index, error) {
	if store.Len() == 0 {
		return nil, fmt.Errorf("index: empty store")
	}
	if D < 1 {
		return nil, fmt.Errorf("index: D must be positive")
	}
	if len(mags) != store.Len() || len(paas) != store.Len() {
		return nil, fmt.Errorf("index: %d/%d feature rows for %d records",
			len(mags), len(paas), store.Len())
	}
	for i := range mags {
		if len(mags[i]) != D || len(paas[i]) != D {
			return nil, fmt.Errorf("index: feature row %d has dims %d/%d, want %d",
				i, len(mags[i]), len(paas[i]), D)
		}
	}
	ix := &Index{store: store, n: n, d: D, mags: mags, paas: paas}
	ix.buildTrees()
	return ix, nil
}

// buildTrees raises the search structures over already-populated feature
// columns.
func (ix *Index) buildTrees() {
	ix.vpt = vptree.New(ix.mags, 16, 0x5eed)
	ix.rt = rtree.New(ix.paas, 16)
	bounds := paa.Bounds(ix.n, ix.d)
	ix.segW = make([]float64, len(bounds)-1)
	for s := range ix.segW {
		ix.segW[s] = float64(bounds[s+1] - bounds[s])
	}
}

// dtwBound returns the admissible R-tree bound function for a query wedge
// set: the minimum, over the K envelope boxes, of the weighted MINDIST
// between the box and a candidate MBR. For a single point it equals
// paa.LowerBound, so pruning is exactly as tight as the linear compressed
// scan while touching only O(log m) of the index.
func (ix *Index) dtwBound(boxes []paa.Box) func(lo, hi []float64) float64 {
	return func(lo, hi []float64) float64 {
		best := math.Inf(1)
		for _, bx := range boxes {
			if d := rtree.MinDistBox(bx.Lo, bx.Hi, lo, hi, ix.segW); d < best {
				best = d
			}
		}
		return best
	}
}

// D returns the retained dimensionality.
func (ix *Index) D() int { return ix.d }

// Result is one exact answer of an index query.
type Result = core.ScanResult

// walk enumerates one query's candidates: it calls visit(id, bound, r) for
// every object its compressed bound cannot exclude at the current radius r
// and continues with the radius visit returns — the shape vptree.Search and
// rtree.Search share.
type walk func(r float64, visit func(id int, bound, r float64) float64)

// probe is the one index query path: trace the query, fetch each object
// candidates proposes, verify it exactly with H-Merge under kern and offer
// the match to c, whose radius — shrinking for a nearest query, fixed for a
// range — is what the walk continues with. No false dismissals: a walk skips
// an object only on an admissible bound that reaches the radius.
func (ix *Index) probe(label string, stage trace.Stage, rs *core.RotationSet, kern wedge.Kernel,
	candidates walk, c *core.Collector, cnt *stats.Counter) *core.Collector {
	searcher := core.NewSearcher(rs, kern, core.Wedge, core.SearcherConfig{Obs: ix.obs, Tracer: ix.tracer})
	rec := ix.tlog.StartTrace(label)
	searcher.SetRecorder(rec)
	before := ix.obs.Counts()
	span := rec.Begin(stage, -1)
	candidates(c.Radius(), func(id int, _, r float64) float64 {
		c.Offer(id, searcher.MatchSeries(ix.fetch(rec, id), r, cnt))
		return c.Radius()
	})
	rec.End(span)
	// The trace ID exists only once the trace is finished and retained.
	if id := ix.tlog.Finish(rec, ix.obs.Counts().Sub(before)); id != 0 {
		ix.store.LinkTrace(id)
	}
	return c
}

// byIndex reads a range probe's answer out in ascending index order.
func byIndex(c *core.Collector) []Result {
	out := c.Results()
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// vpWalk enumerates candidates best-first from the VP-tree over magnitude
// features, whose distance lower-bounds the rotation-invariant Euclidean
// distance.
func (ix *Index) vpWalk(rs *core.RotationSet) walk {
	qmag := fourier.Magnitudes(rs.Base(), ix.d)
	return func(r float64, visit func(int, float64, float64) float64) { ix.vpt.Search(qmag, r, visit) }
}

// rtWalk enumerates candidates best-first from the R-tree: each object's PAA
// means are lower-bounded against the K DTW-expanded envelopes of the
// query's wedge set. wedges selects K, clamped to the rotation count; 0
// picks one envelope per rotation (classic per-rotation LB_Keogh boxes):
// index-space bounds are cheap relative to a disk fetch, and fat merged
// wedges prune dramatically worse here — see BenchmarkAblationIndexWedges.
func (ix *Index) rtWalk(rs *core.RotationSet, R, wedges int) walk {
	if wedges <= 0 || wedges > rs.Members() {
		wedges = rs.Members()
	}
	envs := rs.Tree().FrontierEnvelopes(wedges, R)
	boxes := make([]paa.Box, len(envs))
	for i, e := range envs {
		boxes[i] = paa.ReduceEnvelope(e, ix.d)
	}
	bound := ix.dtwBound(boxes)
	return func(r float64, visit func(int, float64, float64) float64) { ix.rt.Search(bound, r, visit) }
}

// scanWalk proposes every object in index order: the walk for measures with
// no admissible compressed bound.
func (ix *Index) scanWalk(r float64, visit func(int, float64, float64) float64) {
	for id := range ix.mags {
		r = visit(id, 0, r)
	}
}

// SearchED answers an exact 1-NN rotation-invariant Euclidean query,
// fetching only the objects whose magnitude-feature bound beats the
// best-so-far.
func (ix *Index) SearchED(rs *core.RotationSet, cnt *stats.Counter) Result {
	return ix.probe("index_search_ed", trace.StageVPProbe, rs, wedge.ED{}, ix.vpWalk(rs), core.NewCollector(1, math.Inf(1)), cnt).Best()
}

// RangeED returns every database object whose exact rotation-invariant
// Euclidean distance to the query is strictly below r, in ascending index
// order. Only objects whose magnitude-feature bound is below r are fetched.
func (ix *Index) RangeED(rs *core.RotationSet, r float64, cnt *stats.Counter) []Result {
	return byIndex(ix.probe("index_range_ed", trace.StageVPProbe, rs, wedge.ED{}, ix.vpWalk(rs), core.NewCollector(0, r), cnt))
}

// SearchDTW answers an exact 1-NN rotation-invariant DTW query with band R,
// verifying candidates until the smallest outstanding PAA envelope bound
// reaches the best-so-far. wedges is rtWalk's K.
func (ix *Index) SearchDTW(rs *core.RotationSet, R int, wedges int, cnt *stats.Counter) Result {
	return ix.probe("index_search_dtw", trace.StageRTreeProbe, rs, wedge.DTW{R: R}, ix.rtWalk(rs, R, wedges), core.NewCollector(1, math.Inf(1)), cnt).Best()
}

// RangeDTW is the DTW analogue of RangeED, using the PAA envelope bounds in
// index space.
func (ix *Index) RangeDTW(rs *core.RotationSet, R int, wedges int, r float64, cnt *stats.Counter) []Result {
	return byIndex(ix.probe("index_range_dtw", trace.StageRTreeProbe, rs, wedge.DTW{R: R}, ix.rtWalk(rs, R, wedges), core.NewCollector(0, r), cnt))
}

// SearchScan answers an exact 1-NN query under a kernel the index has no
// compressed bound for (LCSS): every object is fetched once and verified,
// traced and counted like the pruning paths.
func (ix *Index) SearchScan(rs *core.RotationSet, kern wedge.Kernel, cnt *stats.Counter) Result {
	return ix.probe("index_search_scan", trace.StageSearch, rs, kern, ix.scanWalk, core.NewCollector(1, math.Inf(1)), cnt).Best()
}
