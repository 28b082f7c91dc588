package lbkeogh

import (
	"fmt"
	"path/filepath"
	"testing"

	"lbkeogh/internal/ts"
)

// tieDB is 40 integer-valued rows of length 32, so every distance is exact:
// rows 28 and 29 duplicate rows 2 and 5, and rows 30–39 are rotations of rows
// 0–9, each tying with its original bit for bit under every measure while
// its magnitude and PAA bounds round differently.
func tieDB() []Series {
	rng := ts.NewRand(78)
	db := make([]Series, 40)
	for i := range 28 {
		db[i] = make(Series, 32)
		for j := range db[i] {
			db[i][j] = float64(rng.Intn(9))
		}
	}
	db[28], db[29] = db[2], db[5]
	for i := 30; i < 40; i++ {
		db[i] = ts.Rotate(db[i-30], 3+i%7)
	}
	return db
}

// TestEveryPathKeepsTheFlatScansRows holds every public search path to the
// flat scan's (Index, Dist) list, bit for bit, on data where exact ties are
// the rule: the parallel scan at 1–3 workers, and the index — in memory and
// over segments — under ED, DTW(2) and LCSS for Search, SearchTopK and
// SearchRange. Each query is a rotation of a row with one sample changed. The
// index verifies rows in bound order, not id order, so it keeps the flat
// scan's rows only because the collector orders ties by row id.
func TestEveryPathKeepsTheFlatScansRows(t *testing.T) {
	db := tieDB()
	dir := filepath.Join(t.TempDir(), "store")
	if err := WriteSegmentStore(dir, db, 8); err != nil {
		t.Fatal(err)
	}
	mem, err := NewIndex(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegmentIndex(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	queries := make([]Series, 10)
	for i := range queries {
		queries[i] = ts.Rotate(db[3*i], 5+i)
		queries[i][i]++
	}
	same := func(t *testing.T, what string, got, want []SearchResult) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers, the flat scan %d: %v vs %v", what, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i].Index != want[i].Index || got[i].Dist != want[i].Dist { //lint:ignore floateq every path must report the flat scan's exact distance
				t.Fatalf("%s answer %d: (%d, %v), the flat scan (%d, %v)", what, i, got[i].Index, got[i].Dist, want[i].Index, want[i].Dist)
			}
		}
	}
	for _, ms := range []struct {
		name string
		m    Measure
	}{{"ed", Euclidean()}, {"dtw2", DTW(2)}, {"lcss", LCSS(2, 0.5)}} {
		t.Run(ms.name, func(t *testing.T) {
			for qi, qs := range queries {
				newQuery := func() *Query {
					q, err := NewQuery(qs, ms.m)
					if err != nil {
						t.Fatal(err)
					}
					return q
				}
				flat := newQuery()
				nn, err := flat.Search(db)
				if err != nil {
					t.Fatal(err)
				}
				top, err := flat.SearchTopK(db, 5)
				if err != nil {
					t.Fatal(err)
				}
				// A radius just above the eighth nearest distance: a range
				// that ends on a tie or just past one.
				eighth, err := flat.SearchTopK(db, 8)
				if err != nil {
					t.Fatal(err)
				}
				radius := eighth[7].Dist + 1e-9
				rng, err := flat.SearchRange(db, radius)
				if err != nil {
					t.Fatal(err)
				}
				for workers := 1; workers <= 3; workers++ {
					got, err := newQuery().SearchParallel(db, workers)
					if err != nil {
						t.Fatal(err)
					}
					same(t, fmt.Sprintf("q%d parallel %d", qi, workers), []SearchResult{got}, []SearchResult{nn})
				}
				for _, ix := range []struct {
					name string
					ix   *Index
				}{{"mem", mem}, {"segment", seg}} {
					got, err := ix.ix.Search(newQuery())
					if err != nil {
						t.Fatal(err)
					}
					same(t, fmt.Sprintf("q%d %s search", qi, ix.name), []SearchResult{got}, []SearchResult{nn})
					gotTop, err := ix.ix.SearchTopK(newQuery(), 5)
					if err != nil {
						t.Fatal(err)
					}
					same(t, fmt.Sprintf("q%d %s top-5", qi, ix.name), gotTop, top)
					gotRange, err := ix.ix.SearchRange(newQuery(), radius)
					if err != nil {
						t.Fatal(err)
					}
					same(t, fmt.Sprintf("q%d %s range %v", qi, ix.name, radius), gotRange, rng)
				}
			}
		})
	}
}
