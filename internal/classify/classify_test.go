package classify

import (
	"testing"

	"lbkeogh/internal/core"
	"lbkeogh/internal/synth"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

func smallDataset(t *testing.T) ([][]float64, []int) {
	t.Helper()
	d := synth.MakeClassDataset("clf", 11, 3, 8, 64, false, synth.DefaultInstanceConfig())
	return d.Series, d.Labels
}

func TestLeaveOneOutLowErrorOnSeparableData(t *testing.T) {
	series, labels := smallDataset(t)
	errRate, errs := LeaveOneOut(series, labels, wedge.ED{}, core.DefaultOptions())
	if errRate > 0.25 {
		t.Fatalf("LOO error %v (%d errs) too high for separable synthetic classes", errRate, errs)
	}
	if float64(errs)/float64(len(series)) != errRate {
		t.Fatal("error count inconsistent with rate")
	}
}

func TestLeaveOneOutDTWNotWorseOnArticulatedData(t *testing.T) {
	cfg := synth.DefaultInstanceConfig()
	cfg.Articulation = 0.3 // strong articulation: DTW should shine
	d := synth.MakeClassDataset("art", 12, 3, 8, 64, false, cfg)
	edErr, _ := LeaveOneOut(d.Series, d.Labels, wedge.ED{}, core.DefaultOptions())
	dtwErr, _ := LeaveOneOut(d.Series, d.Labels, wedge.DTW{R: 3}, core.DefaultOptions())
	if dtwErr > edErr+1e-9 {
		t.Fatalf("DTW error %v worse than ED %v on articulated data", dtwErr, edErr)
	}
}

func TestNearestNeighbourExcludesSelf(t *testing.T) {
	series, _ := smallDataset(t)
	nn, dist := NearestNeighbour(series[0], series, 0, wedge.ED{}, core.DefaultOptions())
	if nn == 0 {
		t.Fatal("self must be excluded")
	}
	if dist <= 0 {
		t.Fatalf("distance to non-self should be positive, got %v", dist)
	}
	nnAll, distAll := NearestNeighbour(series[0], series, -1, wedge.ED{}, core.DefaultOptions())
	if nnAll != 0 || distAll > 1e-9 {
		t.Fatalf("without exclusion the self-match must win: (%d, %v)", nnAll, distAll)
	}
}

func TestBestWarpingWindowPrefersSmallOnTies(t *testing.T) {
	// A trivially separable dataset: every candidate R gives zero error, so
	// the smallest must win.
	rng := ts.NewRand(1)
	var series [][]float64
	var labels []int
	base0 := ts.ZNorm(ts.RandomWalk(rng, 32))
	base1 := make([]float64, 32)
	for i := range base1 {
		base1[i] = -base0[i]
	}
	for i := 0; i < 6; i++ {
		series = append(series, ts.AddNoise(rng, base0, 0.01))
		labels = append(labels, 0)
		series = append(series, ts.AddNoise(rng, base1, 0.01))
		labels = append(labels, 1)
	}
	r, e := BestWarpingWindow(series, labels, []int{0, 1, 2, 3}, core.DefaultOptions())
	if e != 0 {
		t.Fatalf("expected zero training error, got %v", e)
	}
	if r != 0 {
		t.Fatalf("tie should pick the smallest R, got %d", r)
	}
}

func TestSplitPreservesAll(t *testing.T) {
	series, labels := smallDataset(t)
	trS, trL, teS, teL := Split(series, labels)
	if len(trS)+len(teS) != len(series) || len(trL)+len(teL) != len(labels) {
		t.Fatal("split loses instances")
	}
	if len(trS) == 0 || len(teS) == 0 {
		t.Fatal("split degenerate")
	}
}

func TestLeaveOneOutAligned(t *testing.T) {
	// Aligned classification on pre-aligned data is exactly pairwise 1-NN;
	// rotating instances randomly must hurt it but not the rotation-
	// invariant version.
	cfg := synth.DefaultInstanceConfig()
	cfg.Rotate = false
	aligned := synth.MakeClassDataset("al", 31, 3, 8, 64, false, cfg)
	errAligned, _ := LeaveOneOutAligned(aligned.Series, aligned.Labels, wedge.ED{})

	cfg.Rotate = true
	rotated := synth.MakeClassDataset("al", 31, 3, 8, 64, false, cfg)
	errRotNaive, _ := LeaveOneOutAligned(rotated.Series, rotated.Labels, wedge.ED{})
	errRotInv, _ := LeaveOneOut(rotated.Series, rotated.Labels, wedge.ED{}, core.DefaultOptions())

	if errRotNaive < errRotInv {
		t.Fatalf("naive alignment (%v) should not beat rotation invariance (%v) on rotated data",
			errRotNaive, errRotInv)
	}
	if errAligned > errRotInv+0.2 {
		t.Fatalf("pre-aligned error %v should be comparable to rotation-invariant %v", errAligned, errRotInv)
	}
}

func TestLeaveOneOutPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"mismatch": func() { LeaveOneOut([][]float64{{1}}, []int{0, 1}, wedge.ED{}, core.DefaultOptions()) },
		"tiny":     func() { LeaveOneOut([][]float64{{1}}, []int{0}, wedge.ED{}, core.DefaultOptions()) },
		"noCands": func() {
			BestWarpingWindow([][]float64{{1}, {2}}, []int{0, 1}, nil, core.DefaultOptions())
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}
