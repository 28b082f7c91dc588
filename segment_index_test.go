package lbkeogh

import (
	"math"
	"math/cmplx"
	"path/filepath"
	"testing"

	"lbkeogh/internal/fourier"
	"lbkeogh/internal/paa"
	"lbkeogh/internal/segment"
	"lbkeogh/internal/ts"
)

// buildSegmentStore writes db into a fresh segment-store directory split
// across several segments, returning the directory.
func buildSegmentStore(t *testing.T, db []Series, dims int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	b, err := segment.NewBulkWriter(dir, len(db[0]), dims, int64(len(db)/3+1))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range db {
		if err := b.Add(s, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSegmentBackedIndex(t *testing.T) {
	n := 48
	db := demoDB(50, 60, n)
	dir := buildSegmentStore(t, db, 8)

	ix, err := OpenSegmentIndex(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Len() != 60 || ix.Dims() != 8 {
		t.Fatalf("segment index metadata (%d,%d)", ix.Len(), ix.Dims())
	}
	// Exactness against the in-memory linear scan, for ED and DTW, plus the
	// acceptance identity: SearchStats disk-read accounting must reconcile
	// exactly with the segment store's own fetch counter.
	for _, m := range []Measure{Euclidean(), DTW(3)} {
		q, _ := NewQuery(ts.Rotate(db[17], 9), m)
		want, err := q.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		q2, _ := NewQuery(ts.Rotate(db[17], 9), m)
		ix.ResetDiskReads()
		ix.ResetStats()
		got, err := ix.Search(q2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != want.Index || math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("%s: segment index (%d,%v) != scan (%d,%v)", m.Name(), got.Index, got.Dist, want.Index, want.Dist)
		}
		if ix.DiskReads() == 0 || ix.DiskReads() >= ix.Len() {
			t.Fatalf("%s: disk reads = %d of %d", m.Name(), ix.DiskReads(), ix.Len())
		}
		if st := ix.Stats(); st.IndexFetches != int64(ix.DiskReads()) {
			t.Fatalf("%s: SearchStats.IndexFetches=%d, DiskReads()=%d", m.Name(), st.IndexFetches, ix.DiskReads())
		}
	}
	// Range search agrees with the scan plane too.
	q, _ := NewQuery(ts.Rotate(db[3], 5), Euclidean())
	wantRange, err := q.SearchRange(db, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := NewQuery(ts.Rotate(db[3], 5), Euclidean())
	gotRange, err := ix.SearchRange(q2, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRange) != len(wantRange) {
		t.Fatalf("range: %d results, scan found %d", len(gotRange), len(wantRange))
	}
	for i := range gotRange {
		if gotRange[i].Index != wantRange[i].Index {
			t.Fatalf("range result %d: index %d != %d", i, gotRange[i].Index, wantRange[i].Index)
		}
	}

	// Validation paths.
	if _, err := OpenSegmentIndex(filepath.Join(t.TempDir(), "missing"), 8); err == nil {
		t.Fatal("want error for empty store directory")
	}
}

// transformMagnitudes is fourier.Magnitudes as it was computed when every
// feature went through the full transform: what the magnitude column of a
// store written then holds.
func transformMagnitudes(x []float64, d int) []float64 {
	n := len(x)
	X := fourier.FFTReal(x)
	out := make([]float64, d)
	for j := range out {
		weight := 2.0
		if 2*(j+1) == n {
			weight = 1.0
		}
		out[j] = math.Sqrt(weight/float64(n)) * cmplx.Abs(X[j+1])
	}
	return out
}

// A store whose magnitudes came from the transform, queried with magnitudes
// from the direct sums, answers exactly: 1-NN, top-K and range under ED equal
// the flat scan, for exact rotations of stored rows (ED 0) and for unseen
// shapes.
func TestSegmentIndexExactOverTransformFeatures(t *testing.T) {
	const n, dims = 251, 8
	db := demoDB(61, 200, n)
	dir := filepath.Join(t.TempDir(), "store")
	b, err := segment.NewBulkWriter(dir, n, dims, 70)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for i, s := range db {
		mags := transformMagnitudes(s, dims)
		if !ts.Equal(mags, fourier.Magnitudes(s, dims), 0) {
			differ++
		}
		if err := b.AddPrecomputed(s, mags, paa.Reduce(s, dims), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if differ == 0 {
		t.Fatal("no stored row differs from the query path's features: the test mixes nothing")
	}
	ix, err := OpenSegmentIndex(dir, dims)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	queries := [][]float64{ts.Rotate(db[17], 9), ts.Rotate(db[150], 200), ts.Mirror(db[3])}
	queries = append(queries, demoDB(62, 3, n)...)
	same := func(what string, got, want []SearchResult) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: index %d results, scan %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != want[i].Index || got[i].Dist != want[i].Dist {
				t.Fatalf("%s: result %d: index (%d, %v), scan (%d, %v)",
					what, i, got[i].Index, got[i].Dist, want[i].Index, want[i].Dist)
			}
		}
	}
	for qi, qs := range queries {
		q, _ := NewQuery(qs, Euclidean())
		want, err := q.SearchTopK(db, 6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		same("1-NN", []SearchResult{got}, want[:1])
		gotK, err := ix.SearchTopK(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		same("top-6", gotK, want)
		radius := (want[4].Dist + want[5].Dist) / 2
		wantR, err := q.SearchRange(db, radius)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := ix.SearchRange(q, radius)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantR) != 5 {
			t.Fatalf("query %d: range %v holds %d rows, want 5", qi, radius, len(wantR))
		}
		same("range", gotR, wantR)
	}
}
