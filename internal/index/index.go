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
	"context"
	"fmt"
	"math"
	"sync/atomic"

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

// Index is the compressed in-memory representation plus the store. Once
// configured (SetObserver, SetTraceLog) it is safe for concurrent probes, each
// through its own searcher: the feature columns and trees are immutable, and
// a probe writes nothing here but the fetch counter and the observer record,
// both atomic.
type Index struct {
	store SeriesStore
	reads atomic.Int64 // fetches since the last ResetReads
	n     int          // series length
	d     int          // retained dimensionality D

	mags [][]float64 // Fourier magnitude features (rotation invariant)
	vpt  *vptree.Tree
	paas [][]float64 // PAA means for the DTW path
	rt   *rtree.Tree // R-tree over the PAA points (ref [37])
	segW []float64   // PAA segment widths (the bound weights)

	obs  *obs.SearchStats // nil: the no-op sink
	tlog *trace.Log       // nil: no trace recording
}

// SetObserver installs (or with nil removes) the index's cumulative
// instrumentation record: every probe's counter delta is added to it,
// whichever searcher ran it. Call it before the index is shared: it is not
// safe concurrently with queries.
func (ix *Index) SetObserver(st *obs.SearchStats) { ix.obs = st }

// SetTraceLog attaches (or with nil detaches) a trace log: every fetch's
// duration feeds its disk_read stage histogram, and a probe whose searcher
// carries no recorder of its own records its span trace — index probe,
// per-candidate fetch, and the verification comparisons — into it. Call it
// before the index is shared: it is not safe concurrently with queries.
func (ix *Index) SetTraceLog(l *trace.Log) { ix.tlog = l }

// Reads reports the number of full series fetched since the last ResetReads.
func (ix *Index) Reads() int { return int(ix.reads.Load()) }

// ResetReads zeroes the fetch counter.
func (ix *Index) ResetReads() { ix.reads.Store(0) }

// LinkTrace hands the store the ID of a retained trace a caller recorded a
// probe under (see SeriesStore.LinkTrace); a probe that records its own trace
// does this itself.
func (ix *Index) LinkTrace(id int64) { ix.store.LinkTrace(id) }

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
// every object its compressed bound cannot exclude at the current radius r,
// in ascending order of bound with ties by id, and continues with the radius
// visit returns — the shape vptree.Search and rtree.Search share (their one
// queue of subtrees and points is what makes the order exact; scanWalk's
// bounds are all 0). So the first verified row is the one most likely to be
// the answer, it sets the radius every later comparison abandons against,
// and a nearest or top-K probe fetches exactly the rows bounded below its
// answer. No bound is below -Inf, so that radius ends the walk.
type walk func(r float64, visit func(id int, bound, r float64) float64)

// Probe is the one index query path: each object the walk for s's kernel
// proposes — the VP-tree's under the Euclidean kernel, the R-tree's with
// wedges envelopes (see rtWalk) under DTW, every object under a kernel with
// no compressed bound — is fetched, verified exactly by s and offered to c,
// whose radius — shrinking for a nearest or top-K query, fixed for a range —
// is what the walk continues with. No false dismissals: a walk skips an
// object only on an admissible bound that reaches the radius.
//
// The probe is s's pass (core.Searcher.Begin/Offer), so it honours s's
// strategy, wedge-set size and EXPLAIN state, carries its adaptive
// state on, spends its steps on cnt and its outcomes — candidates and fetches
// included — on s's record, and stops with ctx.Err() within one cancellation
// checkpoint interval of ctx expiring, c then holding a partial answer to
// discard. Spans nest under the span s's recorder has open; a
// searcher without one is traced into the index's own log under label.
func (ix *Index) Probe(ctx context.Context, label string, s *core.Searcher, wedges int, c *core.Collector, cnt *stats.Counter) error {
	if err := s.Begin(ctx); err != nil {
		return err
	}
	defer s.End()
	rs := s.RotationSet()
	stage, candidates := trace.StageSearch, walk(ix.scanWalk)
	switch kern := s.Kernel().(type) {
	case wedge.ED:
		stage, candidates = trace.StageVPProbe, ix.vpWalk(rs)
	case wedge.DTW:
		stage, candidates = trace.StageRTreeProbe, ix.rtWalk(rs, kern.R, wedges)
	}
	st, rec := s.Stats(), s.Recorder()
	own := rec == nil
	if own {
		rec = ix.tlog.StartTrace(label)
		s.SetRecorder(rec)
		defer s.SetRecorder(nil)
	}
	before := st.Counts()
	span := rec.Begin(stage, -1)
	var fetched int64
	var err error
	candidates(c.Radius(), func(id int, _, _ float64) float64 {
		fetched++
		if err = s.Offer(id, ix.fetch(rec, id), c, cnt); err != nil {
			return math.Inf(-1)
		}
		return c.Radius()
	})
	rec.End(span)
	// A fetch is counted here and nowhere else, once per probe.
	ix.reads.Add(fetched)
	st.AddCounts(&obs.Counts{IndexCandidates: fetched, IndexFetches: fetched, DiskReads: fetched}, nil)
	delta := st.Counts().Sub(before)
	if st != ix.obs {
		ix.obs.AddCounts(&delta, nil)
	}
	if own {
		// The trace ID exists only once the trace is finished and retained.
		if id := ix.tlog.Finish(rec, delta); id != 0 {
			ix.store.LinkTrace(id)
		}
	}
	return err
}

// fetch retrieves one full series for verification. It is the only place a
// fetch is timed: one interval is both the trace's fetch span and the
// disk_read stage sample.
func (ix *Index) fetch(rec *trace.Recorder, id int) []float64 {
	start := rec.Now()
	series := ix.store.Fetch(id)
	dur := rec.Now() - start
	rec.Emit(trace.StageFetch, id, start, dur)
	ix.tlog.ObserveStage(trace.StageDiskRead, dur)
	return series
}

// probeDefault is Probe through the searcher the rotation-set–taking queries
// share: H-Merge under kern with the dynamic wedge-set size, recording
// straight into the index's observer, uncancellable.
func (ix *Index) probeDefault(label string, rs *core.RotationSet, kern wedge.Kernel, wedges int, c *core.Collector, cnt *stats.Counter) *core.Collector {
	s := core.NewSearcher(rs, kern, core.Wedge, core.SearcherConfig{Obs: ix.obs})
	_ = ix.Probe(context.Background(), label, s, wedges, c, cnt) // uncancellable: never errs
	return c
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
	for id := 0; id < len(ix.mags) && !math.IsInf(r, -1); id++ {
		r = visit(id, 0, r)
	}
}

func nearest() *core.Collector { return core.NewCollector(1, math.Inf(1)) }

// SearchED answers an exact 1-NN rotation-invariant Euclidean query,
// fetching only the objects whose magnitude-feature bound beats the
// best-so-far.
func (ix *Index) SearchED(rs *core.RotationSet, cnt *stats.Counter) Result {
	return ix.probeDefault("index_search_ed", rs, wedge.ED{}, 0, nearest(), cnt).Best()
}

// SearchDTW answers an exact 1-NN rotation-invariant DTW query with band R,
// verifying candidates until the smallest outstanding PAA envelope bound
// reaches the best-so-far. wedges is rtWalk's K.
func (ix *Index) SearchDTW(rs *core.RotationSet, R int, wedges int, cnt *stats.Counter) Result {
	return ix.probeDefault("index_search_dtw", rs, wedge.DTW{R: R}, wedges, nearest(), cnt).Best()
}
