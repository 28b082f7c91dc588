package core

import (
	"math"
	"testing"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/trace"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/wedge"
)

// TestPruningCountsReconcile is the accounting contract of the obs layer:
// for every strategy, each rotation covered by a comparison lands in exactly
// one outcome bucket, and the steps recorded in the stats record equal the
// steps charged to the caller's counter.
func TestPruningCountsReconcile(t *testing.T) {
	db, q := parallelTestDB(11, 120, 48)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	cases := []struct {
		name     string
		strategy Strategy
	}{
		{"brute", BruteForce},
		{"early-abandon", EarlyAbandon},
		{"fft", FFTFilter},
		{"wedge-lifo", Wedge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := &obs.SearchStats{}
			var cnt stats.Counter
			s := NewSearcher(rs, wedge.ED{}, c.strategy, SearcherConfig{Obs: st})
			s.Scan(db, &cnt)
			sn := st.Snapshot()
			if sn.Comparisons != int64(len(db)) {
				t.Fatalf("Comparisons = %d, want %d", sn.Comparisons, len(db))
			}
			if want := int64(len(db) * rs.Members()); sn.Rotations != want {
				t.Fatalf("Rotations = %d, want %d", sn.Rotations, want)
			}
			if !sn.Reconciles() {
				t.Fatalf("outcome buckets do not sum to rotations: %+v", sn)
			}
			if sn.Steps != cnt.Steps() {
				t.Fatalf("stats steps %d != counter steps %d", sn.Steps, cnt.Steps())
			}
			if got := int64(0); true {
				for _, b := range sn.StepsHistogram {
					got += b.Count
				}
				if got != sn.Comparisons {
					t.Fatalf("histogram holds %d observations, want one per comparison (%d)", got, sn.Comparisons)
				}
			}
			// Strategy-specific shape of the breakdown.
			switch c.strategy {
			case BruteForce:
				if sn.FullDistEvals != sn.Rotations || sn.EarlyAbandons != 0 {
					t.Fatalf("brute force should fully evaluate everything: %+v", sn)
				}
			case EarlyAbandon:
				if sn.FullDistEvals+sn.EarlyAbandons != sn.Rotations {
					t.Fatalf("early abandon should only fully-evaluate or abandon: %+v", sn)
				}
				if sn.EarlyAbandons == 0 {
					t.Fatal("expected some early abandons on a 120-series scan")
				}
			case FFTFilter:
				if sn.FFTRejects == 0 || sn.FFTRejectedMembers == 0 {
					t.Fatalf("expected magnitude-bound rejections: %+v", sn)
				}
				if sn.FFTRejects+sn.FFTFallbacks != sn.Comparisons {
					t.Fatalf("every comparison is rejected or falls through: %+v", sn)
				}
			case Wedge:
				if sn.WedgePrunedMembers == 0 {
					t.Fatalf("expected internal-wedge prunes: %+v", sn)
				}
				var byLevel int64
				for _, v := range sn.WedgePrunesByLevel {
					byLevel += v
				}
				if byLevel == 0 {
					t.Fatal("per-level breakdown is empty despite wedge prunes")
				}
			}
		})
	}
}

// TestWedgeReconcilesUnderDTW covers the warped-measure path, where leaves
// carry their own LB_Keogh bound (WedgeLeafLBPrunes) before the exact DTW.
func TestWedgeReconcilesUnderDTW(t *testing.T) {
	db, q := parallelTestDB(12, 60, 40)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	st := &obs.SearchStats{}
	var cnt stats.Counter
	NewSearcher(rs, wedge.DTW{R: 3}, Wedge, SearcherConfig{Obs: st}).Scan(db, &cnt)
	sn := st.Snapshot()
	if !sn.Reconciles() {
		t.Fatalf("DTW wedge scan does not reconcile: %+v", sn)
	}
	if sn.Steps != cnt.Steps() {
		t.Fatalf("stats steps %d != counter steps %d", sn.Steps, cnt.Steps())
	}
}

// TestScanParallelSharedStats shares one record across all workers; run with
// -race this doubles as the concurrency check for the whole obs layer.
func TestScanParallelSharedStats(t *testing.T) {
	db, q := parallelTestDB(13, 200, 48)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	for _, strat := range []Strategy{EarlyAbandon, Wedge} {
		st := &obs.SearchStats{}
		var cnt stats.Counter
		ScanParallel(rs, wedge.ED{}, strat, SearcherConfig{Obs: st}, db, 4, &cnt)
		sn := st.Snapshot()
		// The tie-resolution pass may re-check earlier items, so the record can
		// hold more comparisons than series — never fewer.
		if sn.Comparisons < int64(len(db)) {
			t.Fatalf("strategy %v: Comparisons = %d, want >= %d", strat, sn.Comparisons, len(db))
		}
		if !sn.Reconciles() {
			t.Fatalf("strategy %v: shared record does not reconcile: %+v", strat, sn)
		}
		if sn.Steps != cnt.Steps() {
			t.Fatalf("strategy %v: stats steps %d != counter steps %d", strat, sn.Steps, cnt.Steps())
		}
	}
}

// TestMatchFFTUnboundedSkipsTransform is the cost-accounting fix: with no
// threshold (r < 0, or +Inf as a scan's first comparison has) the magnitude
// filter can never reject, so the FFT strategy must neither compute nor
// charge the transform — its cost equals plain early abandoning, and the
// comparison still counts as a fallback.
func TestMatchFFTUnboundedSkipsTransform(t *testing.T) {
	db, q := parallelTestDB(14, 1, 64)
	x := db[0]
	rs := NewRotationSet(q, DefaultOptions(), nil)

	fft := NewSearcher(rs, wedge.ED{}, FFTFilter, SearcherConfig{})
	ea := NewSearcher(rs, wedge.ED{}, EarlyAbandon, SearcherConfig{})
	var me Match
	for _, r := range []float64{-1, math.Inf(1)} {
		var fftCnt, eaCnt stats.Counter
		mf := fft.MatchSeries(x, r, &fftCnt)
		me = ea.MatchSeries(x, r, &eaCnt)
		if mf.Dist != me.Dist { //lint:ignore floateq both strategies run the one early-abandoning kernel
			t.Fatalf("r=%v: distances differ: fft %v vs early-abandon %v", r, mf.Dist, me.Dist)
		}
		if fftCnt.Steps() != eaCnt.Steps() {
			t.Fatalf("r=%v: unbounded FFT match charged %d steps, early abandon %d — transform should be skipped",
				r, fftCnt.Steps(), eaCnt.Steps())
		}
	}

	// A one-row scan is one comparison under the collector's +Inf radius.
	st := &obs.SearchStats{}
	var scanCnt, eaScanCnt stats.Counter
	NewSearcher(rs, wedge.ED{}, FFTFilter, SearcherConfig{Obs: st}).Scan(db, &scanCnt)
	ea.Scan(db, &eaScanCnt)
	if scanCnt.Steps() != eaScanCnt.Steps() {
		t.Fatalf("an fft scan's first comparison charged %d steps, early abandon %d", scanCnt.Steps(), eaScanCnt.Steps())
	}
	if sn := st.Snapshot(); sn.FFTFallbacks != 1 || sn.FFTRejects != 0 || !sn.Reconciles() {
		t.Fatalf("first comparison's record: %+v", sn)
	}

	// With a finite threshold the transform is charged again.
	var boundedCnt stats.Counter
	fft.MatchSeries(x, me.Dist, &boundedCnt)
	if boundedCnt.Steps() == 0 {
		t.Fatal("bounded FFT match should charge the transform")
	}
}

// TestSpansCrossCheckRecord holds a scan's spans to its stats record: with
// nothing dropped there is one comparison span per row, referring to it, and
// the spans' count deltas sum to the record's counts. Nothing beneath a
// comparison records a span.
func TestSpansCrossCheckRecord(t *testing.T) {
	db, q := parallelTestDB(15, 80, 16)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	for _, kern := range []wedge.Kernel{wedge.ED{}, wedge.DTW{R: 2}} {
		st := &obs.SearchStats{}
		rec := trace.NewRecorder("scan", 1<<14)
		s := NewSearcher(rs, kern, Wedge, SearcherConfig{Obs: st})
		s.SetRecorder(rec)
		s.Scan(db, nil)
		if rec.Dropped() != 0 {
			t.Fatalf("%T: %d spans dropped; the cross-check needs all of them", kern, rec.Dropped())
		}
		spans := rec.Spans()
		if len(spans) != len(db) {
			t.Fatalf("%T: %d spans over %d rows, want one comparison each", kern, len(spans), len(db))
		}
		var sum obs.Counts
		for i, sp := range spans {
			if sp.Stage != trace.StageComparison || sp.Ref != int32(i) || sp.Parent != -1 {
				t.Fatalf("%T: span %d = %+v, want the comparison of row %d at the root", kern, i, sp, i)
			}
			sum = sum.Add(sp.Attrs)
		}
		if want := st.Counts(); sum != want || sum.Comparisons == 0 {
			t.Fatalf("%T: comparison spans sum to %+v, the record holds %+v", kern, sum, want)
		}
	}
}

// TestKTrajectoryChains holds the record's dynamic-K trajectory to the
// controller it narrates: below the trajectory's cap every K change has an
// entry, every entry is a move, each starts where the previous one ended —
// the first where the searcher started — and the last ends at CurrentK.
func TestKTrajectoryChains(t *testing.T) {
	db, q := parallelTestDB(16, 3000, 64)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	st := &obs.SearchStats{}
	s := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{Obs: st})
	k0 := s.CurrentK()
	s.Scan(db, nil)
	sn := st.Snapshot()
	traj := sn.KTrajectory
	if len(traj) == 0 || len(traj) >= 1024 {
		t.Fatalf("%d K changes: the scan must move K, and stay below the trajectory cap", len(traj))
	}
	if sn.KChanges != int64(len(traj)) {
		t.Fatalf("KChanges %d, trajectory entries %d", sn.KChanges, len(traj))
	}
	from := k0
	for i, c := range traj {
		if c.From == c.To || c.From != from {
			t.Fatalf("entry %d %+v: want a move from %d", i, c, from)
		}
		from = c.To
	}
	if from != s.CurrentK() {
		t.Fatalf("the trajectory ends at K %d, the searcher is at %d", from, s.CurrentK())
	}
}
