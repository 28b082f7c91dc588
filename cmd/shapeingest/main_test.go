package main

import (
	"slices"
	"testing"

	"lbkeogh/internal/obs/ops"
	"lbkeogh/internal/segment"
	"lbkeogh/internal/synth"
)

// TestRunPipeline drives the whole pipeline — several workers generating and
// featurizing batches, the ordered single-writer commit, segment cuts and the
// verify pass — with a count that is not a multiple of
// the batch, then appends a second load to the same store. The reopened
// store must hold every row once, in generation order: label i on row i, and
// row i the generator's row for its batch. Run under -race it also gates the
// worker pool's WaitGroup discipline.
func TestRunPipeline(t *testing.T) {
	const (
		n, dims, batch, workers = 24, 4, 37, 4
		seed                    = 5
	)
	dir := t.TempDir()
	loads := []int64{250, 61} // 6 full batches + 28, then 1 full batch + 24
	for i, count := range loads {
		if err := run(ops.Discard(), dir, count, n, dims, batch, workers, 64, 10_000,
			"projectile", seed+int64(i), 0, true); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}

	db, err := segment.OpenDB(dir, dims)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Acquire()
	defer snap.Release()
	total := int(loads[0] + loads[1])
	if snap.Len() != total || db.SeriesLen() != n {
		t.Fatalf("store holds %d rows of %d samples, want %d of %d", snap.Len(), db.SeriesLen(), total, n)
	}
	for id, label := range snap.Labels() {
		if label != id {
			t.Fatalf("row %d carries label %d: rows out of generation order", id, label)
		}
	}
	first := 0
	for i, count := range loads {
		for b := 0; b*batch < int(count); b++ {
			size := min(batch, int(count)-b*batch)
			want := synth.ProjectilePoints(seed+int64(i)+int64(b), size, n)
			for j, row := range want {
				if id := first + b*batch + j; !slices.Equal(snap.Series(id), row) {
					t.Fatalf("load %d batch %d row %d (id %d) is not the generator's", i, b, j, id)
				}
			}
		}
		first += int(count)
	}
}
