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
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"lbkeogh/internal/core"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/fourier"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/trace"
	"lbkeogh/internal/paa"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
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
}

// memStore keeps the collection in memory — the "disk" of the Figure 24
// experiments, where only the number of fetches matters.
type memStore [][]float64

func (s memStore) Fetch(id int) []float64 { return s[id] }
func (s memStore) Len() int               { return len(s) }

// Index is the compressed in-memory representation plus the store. It is
// safe for concurrent probes, each through its own searcher: the feature
// columns and the tree are immutable, and a probe writes nothing here but
// the record, which is atomic.
type Index struct {
	store SeriesStore
	n     int // series length
	d     int // retained dimensionality D

	mags [][]float64 // Fourier magnitude features (rotation invariant)
	vpt  *vptree.Tree
	paas [][]float64 // PAA means for the DTW path, walked whole by each probe
	segW []float64   // PAA segment widths (the bound weights)

	obs obs.SearchStats // every probe's counter delta, whichever searcher ran it
}

// Stats returns the index's cumulative record: every probe's counter delta,
// whichever searcher ran it. Its IndexFetches is the one count of the full
// series fetched, the metric of Figure 24; Reset zeroes it.
func (ix *Index) Stats() *obs.SearchStats { return &ix.obs }

// Validate reports why Build would refuse db with D retained dimensions:
// what ts.CheckRows refuses — no series, series shorter than 2 samples or of
// unequal length, a NaN or ±Inf sample (every bound over its series would be
// NaN, so the VP-tree would never propose it or the subtree filed under it) —
// or D < 1. Nil means Build accepts it.
func Validate(db [][]float64, D int) error {
	if _, err := ts.CheckRows(db, "database series"); err != nil {
		return err
	}
	if D < 1 {
		return fmt.Errorf("dims must be >= 1, got %d", D)
	}
	return nil
}

// Build constructs the index over db, held in memory, with D retained
// dimensions per object (the paper sweeps D in {4, 8, 16, 32}). It panics on
// what Validate refuses.
func Build(db [][]float64, D int) *Index {
	if err := Validate(db, D); err != nil {
		panic("index: " + err.Error())
	}
	ix := &Index{store: memStore(db), n: len(db[0]), d: D}
	ix.mags = make([][]float64, len(db))
	ix.paas = make([][]float64, len(db))
	for i, s := range db {
		ix.mags[i] = fourier.Magnitudes(s, D)
		ix.paas[i] = paa.Reduce(s, D)
	}
	ix.buildTree()
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
	ix.buildTree()
	return ix, nil
}

// buildTree raises the VP-tree over the magnitude column and fixes the PAA
// bound's segment widths. The PAA column needs no structure: a DTW probe
// walks all of it (paaWalk).
func (ix *Index) buildTree() {
	ix.vpt = vptree.New(ix.mags, 16, 0x5eed)
	ix.segW = paa.Widths(ix.n, ix.d)
}

// D returns the retained dimensionality.
func (ix *Index) D() int { return ix.d }

// Result is one exact answer of an index query.
type Result = core.ScanResult

// walk enumerates one query's candidates: it calls visit(id, bound, r) for
// every object its compressed bound cannot exclude at the current radius r,
// in ascending order of bound with ties by id, and continues with the radius
// visit returns — vptree.Search's shape (its one queue of subtrees and points
// makes the order exact; paaWalk sorts; scanWalk's bounds are all 0). So the
// first verified row is the one most likely to be the answer, it sets the
// radius every later comparison abandons against, and a nearest or top-K
// probe fetches exactly the rows bounded below its answer. No bound is below
// -Inf, so that radius ends the walk.
type walk func(r float64, visit func(id int, bound, r float64) float64)

// Probe is the one index query path: each object the walk for s's kernel
// proposes — the VP-tree's under the Euclidean kernel, the PAA column's
// against the widened rotations (see paaWalk) under DTW, every object under
// LCSS, which has no compressed bound — is fetched, verified exactly by s and
// offered to c, whose radius — shrinking for a nearest or top-K query, fixed
// for a range — is what the walk continues with. No false dismissals: a walk
// skips an object only on an admissible bound that reaches the radius.
//
// The probe is s's pass (core.Searcher.Begin/Offer/End), so it honours s's
// strategy, wedge-set size and bound sampler, carries its adaptive state
// on, spends its steps (a widening the DTW walk is first to build included)
// on s's tally and its steps and outcomes — fetches included — on s's record,
// and stops with ctx.Err() within one cancellation checkpoint interval of ctx
// expiring, c then holding a partial answer to discard. Its spans — the walk
// and one fetch per fetched row, the comparisons beneath — go to s's recorder
// under the span it has open; a searcher without one records none.
func (ix *Index) Probe(ctx context.Context, s *core.Searcher, c *core.Collector) error {
	if err := s.Begin(ctx); err != nil {
		return err
	}
	st, rec := s.Stats(), s.Recorder()
	before := st.Counts()
	stage, candidates := trace.StageSearch, walk(ix.scanWalk)
	switch s.Kernel().(type) {
	case wedge.ED:
		stage, candidates = trace.StageVPProbe, ix.vpWalk(s.RotationSet())
	case wedge.DTW:
		stage, candidates = trace.StageColumnProbe, ix.paaWalk(s.Widened()[:s.RotationSet().Members()])
	}
	span := rec.Begin(stage, -1)
	var fetched int64
	var err error
	candidates(c.Radius(), func(id int, _, _ float64) float64 {
		fetched++
		if err = s.Offer(id, ix.fetch(rec, id), c); err != nil {
			return math.Inf(-1)
		}
		return c.Radius()
	})
	rec.End(span)
	s.End() // flushes a widening no comparison carried into the record
	// A fetch is counted here and nowhere else, once per probe.
	st.AddCounts(&obs.Counts{IndexFetches: fetched}, nil)
	if st != &ix.obs {
		delta := st.Counts().Sub(before)
		ix.obs.AddCounts(&delta, nil)
	}
	return err
}

// fetch retrieves one full series for verification, timed as the trace's
// fetch span: the only place a fetch is timed.
func (ix *Index) fetch(rec *trace.Recorder, id int) []float64 {
	start := rec.Now()
	series := ix.store.Fetch(id)
	rec.Emit(trace.StageFetch, id, start, rec.Now()-start)
	return series
}

// probeDefault is Probe through the searcher the rotation-set–taking queries
// share: H-Merge under kern with the dynamic wedge-set size, recording
// straight into the index's record, uncancellable. The probe's num_steps are
// added to cnt (nil: not accumulated).
func (ix *Index) probeDefault(rs *core.RotationSet, kern wedge.Kernel, c *core.Collector, cnt *stats.Counter) *core.Collector {
	s := core.NewSearcher(rs, kern, core.Wedge, core.SearcherConfig{Obs: &ix.obs})
	_ = ix.Probe(context.Background(), s, c) // uncancellable: never errs
	cnt.Add(s.Steps())
	return c
}

// vpWalk enumerates candidates best-first from the VP-tree over magnitude
// features, whose distance lower-bounds the rotation-invariant Euclidean
// distance.
func (ix *Index) vpWalk(rs *core.RotationSet) walk {
	qmag := fourier.Magnitudes(rs.Base(), ix.d)
	return func(r float64, visit func(int, float64, float64) float64) { ix.vpt.Search(qmag, r, visit) }
}

// paaWalk enumerates candidates in one sorted pass over the PAA column: each
// object's means are lower-bounded against the widened wedges' PAA boxes
// (paa.MinLowerBound, which box order does not change), the objects bounded
// below the starting radius are sorted by (bound, id), and they are proposed
// in that order while the bound stays below the current radius. With DTW's
// loose bound a probe fetches most of the store, so a tree over the column
// would save few bound computations; the sort is the whole of the ordering.
// Probe passes one box per rotation (the widened tree's leaves): merged
// wedges fetched no fewer rows (EXPERIMENTS.md, "index wedge count K").
func (ix *Index) paaWalk(wedges []envelope.Envelope) walk {
	boxes := make([]paa.Box, len(wedges))
	for i, e := range wedges {
		boxes[i] = paa.ReduceEnvelope(e, ix.d)
	}
	return func(r float64, visit func(int, float64, float64) float64) {
		type candidate struct {
			bound float64
			id    int
		}
		cands := make([]candidate, 0, len(ix.paas))
		for id, means := range ix.paas {
			if lb := paa.MinLowerBound(means, boxes, ix.segW); lb < r {
				cands = append(cands, candidate{lb, id})
			}
		}
		slices.SortFunc(cands, func(a, b candidate) int {
			return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.id, b.id))
		})
		for _, c := range cands {
			if c.bound >= r {
				break // every later bound is at least as large
			}
			r = visit(c.id, c.bound, r)
		}
	}
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
	return ix.probeDefault(rs, wedge.ED{}, nearest(), cnt).Best()
}

// SearchDTW answers an exact 1-NN rotation-invariant DTW query with band R,
// verifying candidates until the smallest outstanding PAA envelope bound
// reaches the best-so-far. The third argument, once the walk's wedge count,
// is ignored; benchmark/ still passes it, and a benchmark-only PR retires it.
func (ix *Index) SearchDTW(rs *core.RotationSet, R int, _ int, cnt *stats.Counter) Result {
	return ix.probeDefault(rs, wedge.DTW{R: R}, nearest(), cnt).Best()
}
