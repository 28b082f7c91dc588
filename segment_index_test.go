package lbkeogh

import (
	"math"
	"path/filepath"
	"testing"

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
