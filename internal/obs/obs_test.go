package obs

import (
	"sync"
	"testing"
)

func TestNilSinkIsSafeAndFree(t *testing.T) {
	var st *SearchStats
	exercise := func() {
		st.AddCounts(&Counts{
			Comparisons: 1, Rotations: 8, Steps: 100, FullDistEvals: 1, EarlyAbandons: 1,
			WedgeNodeVisits: 1, WedgeLeafVisits: 1, WedgePrunedMembers: 4, FFTRejects: 1, FFTRejectedMembers: 8,
			IndexFetches: 1,
		}, &[MaxPruneLevels]int64{3: 2})
		st.Publish(&Batch{Counts: Counts{Comparisons: 1, Steps: 100}}, nil)
		st.RecordKChange(4, 8)
		st.Reset()
	}
	exercise()
	if st.Steps() != 0 || st.Comparisons() != 0 {
		t.Fatal("nil sink reported nonzero totals")
	}
	if allocs := testing.AllocsPerRun(100, exercise); allocs != 0 {
		t.Fatalf("nil sink allocated %.1f times per run, want 0", allocs)
	}
	var h *Histogram
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(42) }); allocs != 0 {
		t.Fatalf("nil histogram allocated %.1f times per run, want 0", allocs)
	}
}

func TestSnapshotReconciles(t *testing.T) {
	var st SearchStats
	st.AddCounts(&Counts{
		Comparisons: 1, Rotations: 10, // 10 rotations to account for
		FullDistEvals: 2, EarlyAbandons: 1, WedgePrunedMembers: 4,
		WedgeLeafLBPrunes: 1, FFTRejects: 1, FFTRejectedMembers: 2,
	}, &[MaxPruneLevels]int64{2: 1})
	sn := st.Snapshot()
	if sn.Rotations != 10 {
		t.Fatalf("Rotations = %d, want 10", sn.Rotations)
	}
	if !sn.Reconciles() {
		t.Fatalf("snapshot does not reconcile: %+v", sn)
	}
	// Per-level buckets count prune events; member totals are aggregate only.
	if sn.WedgePrunesByLevel[2] != 1 {
		t.Fatalf("level-2 prunes = %v, want 1", sn.WedgePrunesByLevel)
	}
	if want := 1 - 2.0/10; sn.PruneRate != want {
		t.Fatalf("PruneRate = %v, want %v", sn.PruneRate, want)
	}
	st.Reset()
	if sn := st.Snapshot(); sn.Rotations != 0 || len(sn.WedgePrunesByLevel) != 0 {
		t.Fatalf("Reset left data behind: %+v", sn)
	}
}

func TestKTrajectoryBounded(t *testing.T) {
	var st SearchStats
	for i := 0; i < 2*maxKTrajectory; i++ {
		st.RecordKChange(i, i+1)
	}
	sn := st.Snapshot()
	if sn.KChanges != 2*maxKTrajectory {
		t.Fatalf("KChanges = %d, want %d", sn.KChanges, 2*maxKTrajectory)
	}
	if len(sn.KTrajectory) != maxKTrajectory {
		t.Fatalf("trajectory length = %d, want cap %d", len(sn.KTrajectory), maxKTrajectory)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		value  int64
		bucket int
	}{
		{0, 0}, {1, 0}, // bucket 0: v <= 1
		{2, 1},         // (1, 2]
		{3, 2}, {4, 2}, // (2, 4]
		{5, 3}, {8, 3}, // (4, 8]
		{9, 4},          // (8, 16]
		{1 << 39, 39},   // top regular bucket boundary
		{1<<39 + 1, 40}, // overflow
		{1 << 60, 40},   // overflow
	}
	for _, c := range cases {
		if got := bucketIndex(c.value); got != c.bucket {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.value, got, c.bucket)
		}
	}
	if BucketBound(0) != 1 || BucketBound(3) != 8 {
		t.Fatalf("BucketBound boundaries wrong: %d, %d", BucketBound(0), BucketBound(3))
	}
	if BucketBound(HistogramBuckets) != -1 {
		t.Fatal("overflow bucket should report bound -1")
	}

	var h Histogram
	for _, v := range []int64{1, 2, 3, 4, 5, 1 << 60} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	want := map[int64]int64{1: 1, 2: 1, 4: 2, 8: 1, -1: 1}
	got := map[int64]int64{}
	for _, b := range h.Buckets() {
		got[b.UpperBound] = b.Count
	}
	for ub, n := range want {
		if got[ub] != n {
			t.Fatalf("bucket le=%d count %d, want %d (all: %v)", ub, got[ub], n, got)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
	if want := int64(8) * 1000 * 1001 / 2; h.Sum() != want {
		t.Fatalf("Sum = %d, want %d", h.Sum(), want)
	}
}

func TestSearchStatsConcurrent(t *testing.T) {
	var st SearchStats
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				var b Batch
				b.Add(&Counts{Comparisons: 1, Rotations: 4, Steps: int64(i + 1), FullDistEvals: 1, EarlyAbandons: 1, WedgePrunedMembers: 2})
				st.Publish(&b, &[MaxPruneLevels]int64{1: 1})
			}
		}()
	}
	wg.Wait()
	sn := st.Snapshot()
	if sn.Comparisons != 8000 || sn.Rotations != 32000 {
		t.Fatalf("comparisons=%d rotations=%d", sn.Comparisons, sn.Rotations)
	}
	if !sn.Reconciles() {
		t.Fatalf("concurrent updates broke reconciliation: %+v", sn)
	}
}
