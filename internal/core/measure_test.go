package core

import (
	"fmt"
	"math"
	"testing"

	"lbkeogh/internal/fourier"
	"lbkeogh/internal/obs/explain"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// measuringSearcher returns a searcher over the rotations of a random series
// of length n with a sampler attached, the way a compiled query with a bound
// sampler is, and the rotation set.
func measuringSearcher(t *testing.T, kernel wedge.Kernel, n int) (*Searcher, *RotationSet) {
	t.Helper()
	rng := ts.NewRand(7)
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.Float64()*2 - 1
	}
	rs := NewRotationSet(base, DefaultOptions(), nil)
	s := NewSearcher(rs, kernel, Wedge, SearcherConfig{})
	s.SetExplain(explain.NewRecorder(1))
	return s, rs
}

// TestMeasureAdmissibility checks the soundness property the sampler reports
// on: every measured bound is a true lower bound of the measured
// rotation-invariant distance, for every kernel it claims to apply to.
func TestMeasureAdmissibility(t *testing.T) {
	const n = 32
	kernels := []struct {
		name    string
		k       wedge.Kernel
		wantFFT bool
	}{
		{"ED", wedge.ED{}, true},
		{"DTW", wedge.DTW{R: 3}, false},
		{"LCSS", wedge.LCSS{Delta: 3, Eps: 0.25}, false},
	}
	rng := ts.NewRand(99)
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			s, _ := measuringSearcher(t, kc.k, n)
			for trial := 0; trial < 8; trial++ {
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.Float64()*2 - 1
				}
				sm := s.measure(x, -1)
				if by := sm.EliminatedBy(); by != explain.StageNone {
					t.Fatalf("no-threshold measurement eliminated by %v", by)
				}
				if want := s.MatchSeries(x, -1, nil).Dist; sm.True != want { //lint:ignore floateq the same kernel over the same rotations
					t.Errorf("trial %d: measured true distance %v, the search's %v", trial, sm.True, want)
				}
				for st, v := range sm.Bounds {
					if v > sm.True+1e-9 {
						t.Errorf("trial %d: %v bound %v exceeds true distance %v",
							trial, explain.Stage(st), v, sm.True)
					}
				}
				if haveFFT := !math.IsNaN(sm.Bounds[explain.StageFFT]); haveFFT != kc.wantFFT {
					t.Errorf("fft bound present=%v, want %v", haveFFT, kc.wantFFT)
				}
				// The envelope bound is measured under every kernel.
				if math.IsNaN(sm.Bounds[explain.StageEnvelope]) {
					t.Error("envelope bound not measured")
				}
			}
		})
	}
}

// TestMeasureEliminationOrder: a threshold below every bound value must be
// attributed to the first cascade stage that reaches it.
func TestMeasureEliminationOrder(t *testing.T) {
	const n = 32
	s, rs := measuringSearcher(t, wedge.ED{}, n)
	// The candidate IS a rotation, so the true distance is 0 and any
	// positive threshold keeps it alive through every stage.
	sm := s.measure(rs.Member(3), 1e-6)
	if sm.True > 1e-9 {
		t.Fatalf("rotation's true distance = %v, want ~0", sm.True)
	}
	if by := sm.EliminatedBy(); by != explain.StageNone {
		t.Fatalf("rotation eliminated by %v, want survival", by)
	}
	// An unrelated far candidate with a tiny threshold dies at the first
	// applicable stage with a positive bound.
	far := make([]float64, n)
	for i := range far {
		far[i] = 100
	}
	sm = s.measure(far, 1e-6)
	if by := sm.EliminatedBy(); by >= explain.StageKernel {
		t.Fatalf("far candidate eliminated by %v, want a bound stage", by)
	}
}

// TestRecorderSamplesFirstOfEachInterval: a recorder elects comparisons
// 0, n, 2n, … of its stream, so c comparisons give ceil(c/n) samples and a
// one-comparison stream is measured.
func TestRecorderSamplesFirstOfEachInterval(t *testing.T) {
	s, rs := measuringSearcher(t, wedge.ED{}, 16)
	r := explain.NewRecorder(4)
	s.SetExplain(r)
	for i := 0; i < 9; i++ {
		s.MatchSeries(rs.Member(i%rs.Members()), -1, nil)
	}
	snap := r.Snapshot()
	if snap.Seen != 9 || snap.Sampled != 3 || len(snap.Bounds) != 2 {
		t.Fatalf("snapshot %+v: want 3 samples of 9 over the fft and envelope bounds", snap)
	}
	var elected []int
	r = explain.NewRecorder(4)
	for i := 0; i < 9; i++ {
		if r.ShouldSample() {
			elected = append(elected, i)
		}
	}
	if fmt.Sprint(elected) != "[0 4 8]" {
		t.Fatalf("elected comparisons %v, want [0 4 8]", elected)
	}
	if one := explain.NewRecorder(512); !one.ShouldSample() {
		t.Fatal("a recorder must measure its stream's first comparison")
	}
}

// TestSpectrumComputedOnce: the FFT filter and the bound sampler read one
// copy of the query's magnitude spectrum, computed by whichever needs it
// first, and neither computes it before then.
func TestSpectrumComputedOnce(t *testing.T) {
	db, q := parallelTestDB(21, 4, 64)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	want := fourier.Magnitudes(q, len(q)/2)
	for _, samplerFirst := range []bool{true, false} {
		s := NewSearcher(rs, wedge.ED{}, FFTFilter, SearcherConfig{})
		r := explain.NewRecorder(1)
		if samplerFirst {
			s.SetExplain(r)
		}
		if s.queryMag != nil {
			t.Fatal("the spectrum was computed before anything needed it")
		}
		// Unbounded: the sampler needs the spectrum, the filter does not.
		s.MatchSeries(db[0], -1, nil)
		if (s.queryMag != nil) != samplerFirst {
			t.Fatalf("samplerFirst=%v: spectrum computed=%v after an unbounded comparison", samplerFirst, s.queryMag != nil)
		}
		// Bounded: the filter needs it too.
		s.MatchSeries(db[0], 1, nil)
		first := &s.queryMag[0]
		s.SetExplain(r)
		for i, x := range db {
			s.MatchSeries(x, -1, nil)
			s.MatchSeries(x, 1+float64(i), nil)
			if &s.queryMag[0] != first {
				t.Fatalf("samplerFirst=%v: comparison %d computed the spectrum again", samplerFirst, i)
			}
		}
		if r.Snapshot().Sampled == 0 {
			t.Fatalf("samplerFirst=%v: nothing was sampled", samplerFirst)
		}
		if !sameBits(s.queryMag, want) {
			t.Fatal("the shared spectrum is not the query's")
		}
	}
}

// TestWidenedWithoutATreeIsTheLeaves: a searcher whose strategy walks no
// wedge widens the rotations' own envelopes for the DTW index walk — bit
// for bit the tree's widened leaves, in member order — at one step per
// sample each, and builds no tree.
func TestWidenedWithoutATreeIsTheLeaves(t *testing.T) {
	_, q := parallelTestDB(23, 1, 40)
	for _, kernel := range []wedge.Kernel{wedge.DTW{R: 3}, wedge.DTW{R: 0}, wedge.LCSS{Delta: 2, Eps: 0.5}} {
		rs := NewRotationSetTraced(q, DefaultOptions(), nil)
		flat := NewSearcher(rs, kernel, EarlyAbandon, SearcherConfig{})
		got := flat.Widened()
		if rs.Built() {
			t.Fatalf("%s: an early-abandoning searcher built the tree", kernel.Name())
		}
		if want := int64(rs.Members() * rs.Len()); flat.Steps() != want {
			t.Errorf("%s: widening charged %d steps, want %d", kernel.Name(), flat.Steps(), want)
		}
		want := NewSearcher(rs, kernel, Wedge, SearcherConfig{}).Widened()
		if len(got) != rs.Members() || len(want) != rs.Members() {
			t.Fatalf("%s: %d and %d envelopes for %d rotations", kernel.Name(), len(got), len(want), rs.Members())
		}
		for i := range got {
			if !sameBits(got[i].U, want[i].U) || !sameBits(got[i].L, want[i].L) {
				t.Fatalf("%s: rotation %d's envelope is not the tree's leaf", kernel.Name(), i)
			}
		}
	}
}
