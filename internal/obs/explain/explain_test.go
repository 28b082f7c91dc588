package explain

import (
	"fmt"
	"math"
	"testing"

	"lbkeogh/internal/envelope"
	"lbkeogh/internal/fourier"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

func TestBucketFor(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{0.049, 0},
		{0.05, 1},
		{0.51, 10},
		{0.999, 19},
		{1.0, 19}, // exactly 1 stays in the last regular bucket
		{1.01, NumRatioBuckets},
		{5, NumRatioBuckets},
		{-0.1, NumRatioBuckets},
		{math.NaN(), NumRatioBuckets},
		{math.Inf(1), NumRatioBuckets},
	}
	for _, c := range cases {
		if got := bucketFor(c.v); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestAggObserveAndSummary(t *testing.T) {
	var a Agg
	// A killed candidate (true 10 >= threshold 5) whose fft bound passed the
	// threshold (false positive) and whose envelope bound eliminated it.
	s := Sample{
		Threshold: 5,
		Bounds: []BoundValue{
			{Bound: fourier.BoundName, Value: 4},  // ratio 0.4, false positive
			{Bound: envelope.BoundName, Value: 8}, // ratio 0.8, eliminated here
		},
		True:         10,
		EliminatedBy: envelope.BoundName,
	}
	a.Observe(s)
	// A surviving candidate below the threshold.
	a.Observe(Sample{
		Threshold: 20,
		Bounds: []BoundValue{
			{Bound: fourier.BoundName, Value: 5},
			{Bound: envelope.BoundName, Value: 9},
		},
		True: 10,
	})
	if a.Survived() != 1 || a.KernelKills() != 0 {
		t.Fatalf("survived/kills = %d/%d, want 1/0", a.Survived(), a.KernelKills())
	}
	sum := a.Summary()
	if len(sum) != 2 {
		t.Fatalf("got %d bound summaries, want 2", len(sum))
	}
	fft := sum[0]
	if fft.Bound != fourier.BoundName {
		t.Fatalf("first-seen order broken: %q first", fft.Bound)
	}
	if fft.Checks != 2 || fft.FalsePositives != 1 {
		t.Errorf("fft checks/fp = %d/%d, want 2/1", fft.Checks, fft.FalsePositives)
	}
	if fft.FalsePositiveFraction != 0.5 {
		t.Errorf("fft fp fraction = %v, want 0.5", fft.FalsePositiveFraction)
	}
	env := sum[1]
	if env.Eliminated != 1 || env.FalsePositives != 0 {
		t.Errorf("envelope eliminated/fp = %d/%d, want 1/0", env.Eliminated, env.FalsePositives)
	}
	if env.MeanRatio < 0.84 || env.MeanRatio > 0.86 {
		t.Errorf("envelope mean ratio = %v, want ~0.85", env.MeanRatio)
	}
	// Each bound's histogram holds exactly its two ratios.
	for _, bt := range sum {
		var n int64
		for _, bk := range bt.Buckets {
			n += bk.Count
		}
		if n != 2 || bt.Samples != 2 || len(bt.Buckets) != NumRatioBuckets+1 {
			t.Errorf("%s: %d observations in %d buckets, samples %d; want 2 in %d",
				bt.Bound, n, len(bt.Buckets), bt.Samples, NumRatioBuckets+1)
		}
	}
}

func TestRecorderInterval(t *testing.T) {
	r := NewRecorder(4)
	var yes int
	for i := 0; i < 16; i++ {
		if r.ShouldSample() {
			yes++
		}
	}
	if yes != 4 {
		t.Fatalf("sampled %d of 16 at interval 4, want 4", yes)
	}
	var nilRec *Recorder
	if nilRec.ShouldSample() {
		t.Fatal("nil recorder must never sample")
	}
	nilRec.Observe(Sample{}) // must not panic
	if snap := nilRec.Snapshot(); snap.Seen != 0 {
		t.Fatalf("nil recorder snapshot = %+v, want zero", snap)
	}
}

// buildContext constructs a QueryContext over the rotations of a synthetic
// base series, the way a compiled query does.
func buildContext(t *testing.T, kernel wedge.Kernel, n int) (*QueryContext, [][]float64) {
	t.Helper()
	rng := ts.NewRand(7)
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.Float64()*2 - 1
	}
	members := make([][]float64, n)
	for s := 0; s < n; s++ {
		rot := make([]float64, n)
		for i := range rot {
			rot[i] = base[(i+s)%n]
		}
		members[s] = rot
	}
	var tally stats.Tally
	tree := wedge.Build(members, func(i, j int) float64 {
		var acc float64
		for k := range members[i] {
			d := members[i][k] - members[j][k]
			acc += d * d
		}
		return math.Sqrt(acc)
	}, &tally)
	qc := NewQueryContext(base, len(members), func(i int) []float64 { return members[i] }, tree, kernel)
	return qc, members
}

// TestMeasureAdmissibility checks the core soundness property the telemetry
// reports on: every measured bound is a true lower bound of the measured
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
			qc, _ := buildContext(t, kc.k, n)
			for trial := 0; trial < 8; trial++ {
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.Float64()*2 - 1
				}
				s := qc.Measure(x, -1)
				if s.EliminatedBy != "" {
					t.Fatalf("no-threshold measurement eliminated by %q", s.EliminatedBy)
				}
				var haveFFT bool
				for _, b := range s.Bounds {
					if b.Bound == fourier.BoundName {
						haveFFT = true
					}
					if b.Value > s.True+1e-9 {
						t.Errorf("trial %d: %s bound %v exceeds true distance %v",
							trial, b.Bound, b.Value, s.True)
					}
				}
				if haveFFT != kc.wantFFT {
					t.Errorf("fft bound present=%v, want %v", haveFFT, kc.wantFFT)
				}
				// The envelope bound always closes the cascade.
				if s.Bounds[len(s.Bounds)-1].Bound != envelope.BoundName {
					t.Errorf("last bound = %q, want envelope", s.Bounds[len(s.Bounds)-1].Bound)
				}
			}
		})
	}
}

// TestMeasureEliminationOrder: a threshold below every bound value must be
// attributed to the first cascade stage that reaches it.
func TestMeasureEliminationOrder(t *testing.T) {
	const n = 32
	qc, members := buildContext(t, wedge.ED{}, n)
	// The candidate IS a member, so the true distance is 0 and any positive
	// threshold keeps it alive through every stage.
	s := qc.Measure(members[3], 1e-6)
	if s.True > 1e-9 {
		t.Fatalf("member's true distance = %v, want ~0", s.True)
	}
	if s.EliminatedBy != "" {
		t.Fatalf("member eliminated by %q, want survival", s.EliminatedBy)
	}
	// An unrelated far candidate with a tiny threshold dies at the first
	// applicable stage with a positive bound.
	far := make([]float64, n)
	for i := range far {
		far[i] = 100
	}
	s = qc.Measure(far, 1e-6)
	if s.EliminatedBy == "" || s.EliminatedBy == StageKernel {
		t.Fatalf("far candidate eliminated by %q, want a bound stage", s.EliminatedBy)
	}
}

// TestRecorderSamplesFirstOfEachInterval: a recorder elects comparisons
// 0, n, 2n, … of its stream, so c comparisons give ceil(c/n) samples and a
// one-comparison stream is measured.
func TestRecorderSamplesFirstOfEachInterval(t *testing.T) {
	qc, members := buildContext(t, wedge.ED{}, 16)
	r := NewRecorder(4)
	var elected []int
	for i := 0; i < 9; i++ {
		if r.ShouldSample() {
			elected = append(elected, i)
			r.Observe(qc.Measure(members[i%len(members)], -1))
		}
	}
	if fmt.Sprint(elected) != "[0 4 8]" {
		t.Fatalf("elected comparisons %v, want [0 4 8]", elected)
	}
	snap := r.Snapshot()
	if snap.Seen != 9 || snap.Sampled != 3 || len(snap.Bounds) != 2 {
		t.Fatalf("snapshot %+v: want 3 samples of 9 over the fft and envelope bounds", snap)
	}
	if one := NewRecorder(512); !one.ShouldSample() {
		t.Fatal("a recorder must measure its stream's first comparison")
	}
}
