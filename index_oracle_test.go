package lbkeogh

import (
	"path/filepath"
	"testing"

	"lbkeogh/internal/ts"
)

// oracleDB is the small seeded collection the index-path table runs on: a
// prime series length (no power-of-two FFT, uneven PAA segments) and one
// constant series.
func oracleDB() []Series {
	db := demoDB(17, 40, 47)
	db[7] = make(Series, 47)
	return db
}

// TestIndexPathOracle is the index-path slice of the differential oracle:
// every store kind x measure x query kind answers exactly what the flat scan
// answers over the same rows, the instrumentation reconciles, a fetch is
// counted once everywhere it is reported (the query trace's fetch spans
// included), every query is traced into its own log, and num_steps is pinned
// per cell so a refactor that moves a step count fails here rather than in
// review.
func TestIndexPathOracle(t *testing.T) {
	db := oracleDB()
	dir := filepath.Join(t.TempDir(), "store")
	if err := WriteSegmentStore(dir, db, 8); err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name string
		open func() (*Index, error)
	}{
		{"mem", func() (*Index, error) { return NewIndex(db, 8) }},
		{"segment", func() (*Index, error) { return OpenSegmentIndex(dir, 8) }},
	}
	measures := []struct {
		name   string
		m      Measure
		radius float64
	}{
		{"ed", Euclidean(), 3.0},
		{"dtw5", DTW(5), 2.0},
		{"lcss", LCSS(2, 0.3), 0.5},
	}
	queries := []Series{ts.Rotate(db[3], 11), ts.Rotate(db[21], 30), db[7]}

	// Steps (summed over the cell's queries, query construction included)
	// and fetches per cell. The fetches are those recorded at commit 0bf7dc8;
	// the steps were re-pinned when the dynamic-K controller became the
	// windowed one (CHANGES.md PR 21 lists old -> new). No cell makes 32
	// comparisons per query, so every one of them runs at the starting K = 2.
	// The dtw5 steps were re-pinned again when the DTW leaf began abandoning
	// on its LB_Keogh suffix sums. Both search rows were re-pinned when the
	// trees began queueing points beside subtrees, verifying in exact
	// ascending-bound order (ed {26423, 17}, dtw5 {257509, 38} before); a
	// range keeps its fetches and steps, only their order moved. The dtw5
	// cells rose by 3 x 93 x 47 = 13 113 when the DTW walk's widening of each
	// query's 93 wedges began to be charged ({170282, 15} and {406742, 101}
	// before), and the lcss range cells hold an answer since the index
	// stopped refusing LCSS ranges ({12972, 0}: the builds alone).
	type pin struct{ steps, reads int64 }
	want := map[string]pin{
		"mem/ed/search":       {19439, 3},
		"mem/ed/range":        {20806, 26},
		"mem/dtw5/search":     {183395, 15},
		"mem/dtw5/range":      {419855, 101},
		"mem/lcss/search":     {221672, 120},
		"mem/lcss/range":      {1108578, 120},
		"segment/ed/search":   {19439, 3},
		"segment/ed/range":    {20806, 26},
		"segment/dtw5/search": {183395, 15},
		"segment/dtw5/range":  {419855, 101},
		"segment/lcss/search": {221672, 120},
		"segment/lcss/range":  {1108578, 120},
	}

	got := map[string]pin{}
	for _, st := range stores {
		ix, err := st.open()
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		tlog := NewTraceLog()
		var traced, fetched int64
		for _, ms := range measures {
			for _, kind := range []string{"search", "range"} {
				cell := st.name + "/" + ms.name + "/" + kind
				ix.ResetStats()
				ix.ResetDiskReads()
				var steps int64
				for qi, qs := range queries {
					flat, _ := NewQuery(qs, ms.m)
					q, _ := NewQuery(qs, ms.m, WithTraceLog(tlog))
					traced++ // the build trace
					var res, ref []SearchResult
					var err, refErr error
					if kind == "search" {
						var r, f SearchResult
						r, err = ix.Search(q)
						f, refErr = flat.Search(db)
						res, ref = []SearchResult{r}, []SearchResult{f}
					} else {
						res, err = ix.SearchRange(q, ms.radius)
						ref, refErr = flat.SearchRange(db, ms.radius) // both in distance order
					}
					if refErr != nil {
						t.Fatalf("%s q%d: flat scan: %v", cell, qi, refErr)
					}
					if err != nil {
						t.Fatalf("%s q%d: %v", cell, qi, err)
					}
					if len(res) != len(ref) {
						t.Fatalf("%s q%d: %d answers, flat scan %d", cell, qi, len(res), len(ref))
					}
					for i := range res {
						if res[i].Index != ref[i].Index || res[i].Dist != ref[i].Dist {
							t.Fatalf("%s q%d answer %d: index (%d,%v) != flat (%d,%v)",
								cell, qi, i, res[i].Index, res[i].Dist, ref[i].Index, ref[i].Dist)
						}
					}
					traced++
					if ms.name == "lcss" && q.Steps() != flat.Steps() {
						// No compressed bound: the walk is the scan, row by row.
						t.Fatalf("%s q%d: %d steps, flat scan %d", cell, qi, q.Steps(), flat.Steps())
					}
					s := ix.Stats()
					if !s.Reconciles() {
						t.Fatalf("%s q%d: stats do not reconcile: %+v", cell, qi, s)
					}
					if s.IndexFetches != int64(ix.DiskReads()) {
						t.Fatalf("%s q%d: Stats.IndexFetches=%d DiskReads()=%d",
							cell, qi, s.IndexFetches, ix.DiskReads())
					}
					steps += q.Steps()
				}
				got[cell] = pin{steps, int64(ix.DiskReads())}
				fetched += int64(ix.DiskReads())
			}
		}
		if finished, _ := tlog.Totals(); finished != traced {
			t.Errorf("%s: %d traces finished for %d query builds and searches", st.name, finished, traced)
		}
		var fetchSpans int64
		for _, sl := range tlog.StageLatencies() {
			if sl.Stage == "fetch" {
				fetchSpans = sl.Count
			}
		}
		if fetchSpans != fetched {
			t.Errorf("%s: the fetch spans count %d fetches of %d", st.name, fetchSpans, fetched)
		}
	}
	for cell, g := range got {
		if w, ok := want[cell]; !ok || g != w {
			t.Errorf("%q: {%d, %d}, pinned {%d, %d}", cell, g.steps, g.reads, w.steps, w.reads)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d cells ran, %d pinned", len(got), len(want))
	}
}
