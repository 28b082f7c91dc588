package lbkeogh

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"lbkeogh/internal/obs/trace"
	"lbkeogh/internal/ts"
)

// sameResults holds an index answer to the flat scan's: the same rows in the
// same order at the same distances (the kernel is the same, so bit for bit).
// It reports with Errorf, so goroutines other than the test's may call it.
func sameResults(t *testing.T, what string, got, want []SearchResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d results, flat scan %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].Dist != want[i].Dist || got[i].Rotation != want[i].Rotation {
			t.Errorf("%s result %d: index answers %+v, flat scan %+v", what, i, got[i], want[i])
		}
	}
}

// TestIndexSearchRunsThroughTheQuery pins what Index.Search used to drop on
// the floor by verifying through a private default searcher: the query's
// statistics, its options, its trace log and EXPLAIN state.
func TestIndexSearchRunsThroughTheQuery(t *testing.T) {
	db := demoDB(31, 120, 64)
	series := ts.Rotate(db[17], 9)
	ix, err := NewIndex(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	flat, _ := NewQuery(series, Euclidean())
	want, err := flat.Search(db)
	if err != nil {
		t.Fatal(err)
	}

	// The query's own record holds the search — index counters included —
	// and the index's record stays the sum over every query answered.
	q, _ := NewQuery(series, Euclidean())
	got, err := ix.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "default", []SearchResult{got}, []SearchResult{want})
	st := q.Stats()
	if st.Comparisons == 0 || !st.Reconciles() {
		t.Fatalf("q.Stats() after ix.Search: %+v", st)
	}
	if st.IndexFetches != int64(ix.DiskReads()) || st.Comparisons != st.IndexFetches {
		t.Fatalf("q.Stats() fetched %d / compared %d, the index read %d", st.IndexFetches, st.Comparisons, ix.DiskReads())
	}
	if len(st.StepsHistogram) == 0 {
		t.Fatal("q.Stats() has no steps histogram after an index search")
	}

	// A fixed wedge count is the count the verification runs at: with one
	// singleton wedge per rotation H-Merge never opens an internal wedge,
	// which the dynamic controller (starting at K = 2) always does.
	fixed, _ := NewQuery(series, Euclidean(), WithFixedWedgeCount(64))
	got, err = ix.Search(fixed)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "fixed K", []SearchResult{got}, []SearchResult{want})
	if fs := fixed.Stats(); fs.WedgeNodeVisits != 0 || fs.WedgeLeafVisits == 0 || fs.KChanges != 0 || !fs.Reconciles() {
		t.Fatalf("WithFixedWedgeCount(n) query did not run at K = n: %+v", fs)
	}
	if st.WedgeNodeVisits == 0 {
		t.Fatalf("the dynamic-K query opened no internal wedge: %+v", st)
	}

	// The query's strategy is the one that runs.
	ea, _ := NewQuery(series, Euclidean(), WithStrategy(EarlyAbandonSearch))
	got, err = ix.Search(ea)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "early abandon", []SearchResult{got}, []SearchResult{want})
	es := ea.Stats()
	if es.WedgeLeafVisits != 0 || es.EarlyAbandons == 0 || es.EarlyAbandons+es.FullDistEvals != es.Rotations {
		t.Fatalf("WithStrategy(EarlyAbandonSearch) query did not early-abandon: %+v", es)
	}

	sum := st.Counts.Add(fixed.Stats().Counts).Add(es.Counts)
	if cum := ix.Stats(); cum.Counts != sum || !cum.Reconciles() || cum.IndexFetches != int64(ix.DiskReads()) {
		t.Fatalf("Index.Stats() = %+v, the three queries sum to %+v", cum.Counts, sum)
	}

	// A query's trace log holds the probe under the search's root span, and
	// EXPLAIN names its survivors by database row.
	tlog := NewTraceLog(WithSampleRate(1))
	traced, _ := NewQuery(series, Euclidean(), WithTraceLog(tlog))
	traced.SetExplain(true)
	got, err = ix.Search(traced)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "traced", []SearchResult{got}, []SearchResult{want})
	recent := tlog.inner().Recent()
	tr := recent[len(recent)-1]
	if tr.ID != traced.LastTraceID() || tr.Label != "index_search" || !tr.Attrs.Reconciles() || tr.Attrs.IndexFetches == 0 {
		t.Fatalf("trace %d (%q, %+v), query's last %d", tr.ID, tr.Label, tr.Attrs, traced.LastTraceID())
	}
	var probe int32 = -1
	var fetchSpans, comparisons int64
	for i, sp := range tr.Spans {
		switch sp.Stage {
		case trace.StageVPProbe:
			if tr.Spans[sp.Parent].Stage != trace.StageSearch {
				t.Fatalf("probe span under %v, want the search root", tr.Spans[sp.Parent].Stage)
			}
			probe = int32(i)
		case trace.StageFetch:
			fetchSpans++
			if sp.Parent != probe {
				t.Fatalf("fetch span %d under span %d, want the probe %d", i, sp.Parent, probe)
			}
		case trace.StageComparison:
			comparisons++
			if sp.Parent != probe || int(sp.Ref) < 0 || int(sp.Ref) >= len(db) {
				t.Fatalf("comparison span %d: parent %d ref %d", i, sp.Parent, sp.Ref)
			}
		}
	}
	if fetchSpans != tr.Attrs.IndexFetches || comparisons != tr.Attrs.Comparisons {
		t.Fatalf("%d fetch and %d comparison spans for %d fetches and %d comparisons", fetchSpans, comparisons, tr.Attrs.IndexFetches, tr.Attrs.Comparisons)
	}
	plan := traced.Explain()
	if plan == nil || !plan.Waterfall.Reconciles() || len(plan.Survivors) == 0 || plan.TraceID != tr.ID {
		t.Fatalf("explain plan after an index search: %+v", plan)
	}
	if last := plan.Survivors[len(plan.Survivors)-1]; last.Index != want.Index || last.Dist != want.Dist {
		t.Fatalf("last survivor %+v, the answer %+v", last, want)
	}
}

// TestIndexConcurrentQueries is the contract on Index — safe for concurrent
// use by distinct Query values — run under the race detector: GOMAXPROCS
// goroutines (at least four) probe one index with their own queries, nearest,
// top-K and range, and every answer is the flat scan's.
func TestIndexConcurrentQueries(t *testing.T) {
	db := demoDB(41, 300, 47)
	ix, err := NewIndex(db, 16)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetTraceLog(NewTraceLog(WithSampleRate(1)))
	workers := max(4, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	fetched := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				series := ts.Rotate(db[(w*53+round*7)%len(db)], w+round)
				opts := []QueryOption{}
				if round%2 == 1 {
					opts = append(opts, WithMirrorInvariance())
				}
				flat, err := NewQuery(series, Euclidean(), opts...)
				if err != nil {
					t.Error(err)
					return
				}
				q, _ := NewQuery(series, Euclidean(), opts...)
				nn, err1 := ix.Search(q)
				wantNN, _ := flat.Search(db)
				top, err2 := ix.SearchTopK(q, 7)
				wantTop, _ := flat.SearchTopK(db, 7)
				radius := wantTop[4].Dist
				rng, err3 := ix.SearchRange(q, radius)
				wantRng, _ := flat.SearchRange(db, radius)
				if err1 != nil || err2 != nil || err3 != nil {
					t.Errorf("worker %d round %d: %v, %v, %v", w, round, err1, err2, err3)
					return
				}
				sameResults(t, "nearest", []SearchResult{nn}, []SearchResult{wantNN})
				sameResults(t, "top-K", top, wantTop)
				sameResults(t, "range", rng, wantRng)
				if st := q.Stats(); !st.Reconciles() || st.IndexFetches == 0 {
					t.Errorf("worker %d round %d: query stats %+v", w, round, st)
				}
				fetched[w] = q.Stats().IndexFetches
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, f := range fetched {
		total += f
	}
	if total == 0 || int64(ix.DiskReads()) < total || !ix.Stats().Reconciles() || ix.Stats().IndexFetches != int64(ix.DiskReads()) {
		t.Fatalf("after the run: DiskReads %d, Stats %+v", ix.DiskReads(), ix.Stats().Counts)
	}
}

// TestIndexTopKAndRangeEdges: k is clamped to the collection like
// Query.SearchTopK's, and on a database with duplicated rows the distances
// are the flat scan's while only rows at exactly equal distance may trade
// places (the tie rule documented on Index.Search).
func TestIndexTopKAndRangeEdges(t *testing.T) {
	db := demoDB(51, 40, 32)
	db = append(db, db[3], db[3], db[11]) // duplicates: exact ties
	ix, err := NewIndex(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	series := ts.Rotate(db[3], 5)
	flat, _ := NewQuery(series, Euclidean())
	for _, k := range []int{-1, 1, 5, len(db), len(db) + 10} {
		q, _ := NewQuery(series, Euclidean())
		got, err := ix.SearchTopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := flat.SearchTopK(db, k)
		if len(got) != len(want) || len(got) != max(1, min(k, len(db))) {
			t.Fatalf("k = %d: %d results, flat scan %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("k = %d result %d: dist %v, flat scan %v", k, i, got[i].Dist, want[i].Dist)
			}
			if got[i].Index != want[i].Index && !slices.Equal(db[got[i].Index], db[want[i].Index]) {
				t.Fatalf("k = %d result %d: row %d, flat scan row %d, and they are not duplicates", k, i, got[i].Index, want[i].Index)
			}
		}
	}
}
