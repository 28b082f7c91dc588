package explain

import (
	"math"
	"testing"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

func TestFromCountsReconciles(t *testing.T) {
	c := obs.Counts{
		Comparisons:        10,
		Rotations:          1000,
		FFTRejectedMembers: 120,
		WedgePrunedMembers: 400,
		WedgeLeafLBPrunes:  80,
		EarlyAbandons:      250,
		FullDistEvals:      100,
		CancelledMembers:   50,
	}
	if !c.Reconciles() {
		t.Fatal("test fixture counts must reconcile")
	}
	wf := FromCounts(c)
	if !wf.Reconciles() {
		t.Fatalf("waterfall from reconciling counts must reconcile: %+v", wf)
	}
	if got := wf.Stage(StageFFT); got != 120 {
		t.Errorf("fft stage = %d, want 120", got)
	}
	if got := wf.Stage(StageEnvelope); got != 480 {
		t.Errorf("envelope stage = %d, want 480", got)
	}
	if got := wf.Stage(StageKernel); got != 250 {
		t.Errorf("kernel stage = %d, want 250", got)
	}
	if got := wf.Stage(StagePAA); got != 0 {
		t.Errorf("paa stage = %d, want 0 for in-memory scans", got)
	}
	if wf.Survivors != 100 || wf.Cancelled != 50 {
		t.Errorf("survivors/cancelled = %d/%d, want 100/50", wf.Survivors, wf.Cancelled)
	}
	// Four stages in cascade order, always present.
	want := []string{StageFFT, StagePAA, StageEnvelope, StageKernel}
	if len(wf.Eliminated) != len(want) {
		t.Fatalf("got %d stages, want %d", len(wf.Eliminated), len(want))
	}
	for i, s := range wf.Eliminated {
		if s.Stage != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Stage, want[i])
		}
	}
}

func TestFromCountsBrokenDelta(t *testing.T) {
	wf := FromCounts(obs.Counts{Rotations: 10, FullDistEvals: 3})
	if wf.Reconciles() {
		t.Fatal("waterfall over a non-reconciling delta must not reconcile")
	}
}

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
			{Bound: StageFFT, Value: 4},      // ratio 0.4, false positive
			{Bound: StageEnvelope, Value: 8}, // ratio 0.8, eliminated here
		},
		True:         10,
		EliminatedBy: StageEnvelope,
	}
	touched := a.Observe(s, nil)
	if len(touched) != 2 {
		t.Fatalf("touched %d buckets, want 2", len(touched))
	}
	// A surviving candidate below the threshold.
	a.Observe(Sample{
		Threshold: 20,
		Bounds: []BoundValue{
			{Bound: StageFFT, Value: 5},
			{Bound: StageEnvelope, Value: 9},
		},
		True: 10,
	}, nil)
	if a.Samples() != 2 || a.Survived() != 1 || a.KernelKills() != 0 {
		t.Fatalf("samples/survived/kills = %d/%d/%d, want 2/1/0",
			a.Samples(), a.Survived(), a.KernelKills())
	}
	sum := a.Summary()
	if len(sum) != 2 {
		t.Fatalf("got %d bound summaries, want 2", len(sum))
	}
	fft := sum[0]
	if fft.Bound != StageFFT {
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
	// Exemplar tagging lands on the touched buckets.
	a.tag(touched, 42)
	sum = a.Summary()
	var tagged int
	for _, bt := range sum {
		for _, bk := range bt.Buckets {
			if bk.ExemplarTraceID == 42 {
				tagged++
			}
		}
	}
	if tagged != 2 {
		t.Errorf("tagged %d exemplar buckets, want 2", tagged)
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
	nilRec.Observe(Sample{}, nil) // must not panic
	nilRec.Tag(nil, 1)
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
		wantPAA bool
	}{
		{"ED", wedge.ED{}, true, true},
		{"DTW", wedge.DTW{R: 3}, false, true},
		{"LCSS", wedge.LCSS{Delta: 3, Eps: 0.25}, false, false},
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
				var haveFFT, havePAA bool
				for _, b := range s.Bounds {
					switch b.Bound {
					case StageFFT:
						haveFFT = true
					case StagePAA:
						havePAA = true
					}
					if b.Value > s.True+1e-9 {
						t.Errorf("trial %d: %s bound %v exceeds true distance %v",
							trial, b.Bound, b.Value, s.True)
					}
				}
				if haveFFT != kc.wantFFT {
					t.Errorf("fft bound present=%v, want %v", haveFFT, kc.wantFFT)
				}
				if havePAA != kc.wantPAA {
					t.Errorf("paa bound present=%v, want %v", havePAA, kc.wantPAA)
				}
				// The envelope bound always closes the cascade.
				if s.Bounds[len(s.Bounds)-1].Bound != StageEnvelope {
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

func TestOpSamplingAndReset(t *testing.T) {
	qc, members := buildContext(t, wedge.ED{}, 16)
	sink := NewRecorder(1) // sample everything
	op := NewOp(qc, sink, true)
	for i := 0; i < 5; i++ {
		op.BeforeComparison(members[i%len(members)], -1)
		op.RecordComparison(i, obs.Counts{Rotations: 16}, float64(i), true, false)
	}
	if got := sink.Snapshot().Sampled; got != 5 {
		t.Fatalf("sink sampled %d, want 5", got)
	}
	// Attribution interval: ordinals 0 and 4 of the 5 comparisons.
	if got := op.LocalSamples(); got != 2 {
		t.Fatalf("local samples = %d, want 2 (every %d)", got, DefaultOpInterval)
	}
	if got := len(op.Comparisons()); got != 5 {
		t.Fatalf("recorded %d comparisons, want 5", got)
	}
	op.FinishTrace(7)
	op.Reset()
	if op.LocalSamples() != 0 || len(op.Comparisons()) != 0 {
		t.Fatal("Reset must clear local state")
	}
}
