package core

import (
	"math"
	"testing"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

func parallelTestDB(seed int64, m, n int) ([][]float64, []float64) {
	rng := ts.NewRand(seed)
	db := make([][]float64, m)
	for i := range db {
		db[i] = ts.ZNorm(ts.RandomWalk(rng, n))
	}
	q := ts.ZNorm(ts.RandomWalk(rng, n))
	return db, q
}

func TestScanParallelMatchesSerial(t *testing.T) {
	db, q := parallelTestDB(1, 200, 48)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	for _, kern := range []wedge.Kernel{wedge.ED{}, wedge.DTW{R: 3}} {
		serial := NewSearcher(rs, kern, Wedge, SearcherConfig{}).Scan(db, nil)
		for _, workers := range []int{0, 1, 2, 4, 7} {
			got := ScanParallel(rs, kern, Wedge, SearcherConfig{}, db, workers, nil)
			if got.Index != serial.Index || math.Abs(got.Dist-serial.Dist) > 1e-9 {
				t.Fatalf("%s workers=%d: parallel (%d,%v) != serial (%d,%v)",
					kern.Name(), workers, got.Index, got.Dist, serial.Index, serial.Dist)
			}
		}
	}
}

func TestScanParallelAllStrategies(t *testing.T) {
	db, q := parallelTestDB(2, 100, 40)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	want := NewSearcher(rs, wedge.ED{}, BruteForce, SearcherConfig{}).Scan(db, nil)
	for _, strat := range allStrategies() {
		got := ScanParallel(rs, wedge.ED{}, strat, SearcherConfig{}, db, 4, nil)
		if got.Index != want.Index || math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("%v: parallel (%d,%v) != brute (%d,%v)", strat, got.Index, got.Dist, want.Index, want.Dist)
		}
	}
}

func TestScanParallelTieBreaksToLowestIndex(t *testing.T) {
	rng := ts.NewRand(3)
	base := ts.ZNorm(ts.RandomWalk(rng, 32))
	db := make([][]float64, 64)
	for i := range db {
		db[i] = ts.ZNorm(ts.RandomWalk(rng, 32))
	}
	// Plant identical best matches at two positions; the lower index wins.
	db[37] = ts.Rotate(base, 5)
	db[11] = ts.Rotate(base, 20)
	rs := NewRotationSet(base, DefaultOptions(), nil)
	for trial := 0; trial < 5; trial++ {
		got := ScanParallel(rs, wedge.ED{}, Wedge, SearcherConfig{}, db, 8, nil)
		if got.Index != 11 {
			t.Fatalf("trial %d: tie broke to %d, want 11", trial, got.Index)
		}
		if got.Dist > 1e-9 {
			t.Fatalf("planted match distance %v", got.Dist)
		}
	}
}

// TestScanParallelStepsAccounted: a parallel scan charges its steps and
// matches every series exactly once — no second pass over the rows below the
// answer — and still answers what the serial scan does, an exact tie below
// the answer included.
func TestScanParallelStepsAccounted(t *testing.T) {
	db, q := parallelTestDB(4, 120, 32)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	serial := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{}).Scan(db, nil)
	if serial.Index < 2 {
		t.Fatalf("serial answer is row %d; the test needs rows below it", serial.Index)
	}
	tied := append([][]float64{}, db...)
	tied = append(tied, db[serial.Index])
	tied[serial.Index-1] = db[serial.Index]
	for _, workers := range []int{2, 4} {
		st := &obs.SearchStats{}
		var cnt stats.Counter
		got := ScanParallel(rs, wedge.ED{}, Wedge, SearcherConfig{Obs: st}, tied, workers, &cnt)
		if cnt.Steps() == 0 {
			t.Fatal("parallel scan charged no steps")
		}
		if c := st.Snapshot().Comparisons; c != int64(len(tied)) {
			t.Fatalf("workers=%d: %d comparisons over %d rows", workers, c, len(tied))
		}
		if got.Index != serial.Index-1 || got.Dist != serial.Dist { //lint:ignore floateq the tie is the same row, so the same bits
			t.Fatalf("workers=%d: parallel (%d,%v), want the tie (%d,%v)", workers, got.Index, got.Dist, serial.Index-1, serial.Dist)
		}
	}
}

func TestScanParallelSmallDB(t *testing.T) {
	db, q := parallelTestDB(5, 3, 24)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	serial := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{}).Scan(db, nil)
	got := ScanParallel(rs, wedge.ED{}, Wedge, SearcherConfig{}, db, 16, nil)
	if got.Index != serial.Index {
		t.Fatalf("tiny db: %d != %d", got.Index, serial.Index)
	}
}

// The index walk and the bound sampler read the shared wedge tree's widened
// envelopes while parallel scans build and read the same cache. Run under
// -race: the widened array must be the same before, during and after the
// scans populate the cache, for mirror and rotation-limited trees too.
func TestWidenedEnvelopesDuringParallelScan(t *testing.T) {
	db, q := parallelTestDB(4, 120, 40)
	const R = 3
	for _, opts := range []Options{DefaultOptions(), {Mirror: true, MaxShift: -1}, {MaxShift: 5}} {
		rs := NewRotationSet(q, opts, nil)
		want := rs.Tree().Widened(R, nil)
		done := make(chan ScanResult)
		go func() {
			done <- ScanParallel(rs, wedge.DTW{R: R}, Wedge, SearcherConfig{}, db, 4, nil)
		}()
		var got ScanResult
		for scanning := true; scanning; {
			select {
			case got = <-done:
				scanning = false
			default:
			}
			envs := rs.Tree().Widened(R, nil)
			for i := range want {
				if !ts.Equal(envs[i].U, want[i].U, 0) || !ts.Equal(envs[i].L, want[i].L, 0) {
					t.Fatalf("%+v: widened envelope %d changed while scanning", opts, i)
				}
			}
		}
		serial := NewSearcher(rs, wedge.DTW{R: R}, Wedge, SearcherConfig{}).Scan(db, nil)
		if got.Index != serial.Index {
			t.Fatalf("%+v: parallel scan answers %d, serial %d", opts, got.Index, serial.Index)
		}
	}
}
