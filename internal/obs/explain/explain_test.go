package explain

import (
	"math"
	"testing"
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
			{Bound: StageFFT, Value: 4},      // ratio 0.4, false positive
			{Bound: StageEnvelope, Value: 8}, // ratio 0.8, eliminated here
		},
		True:         10,
		EliminatedBy: StageEnvelope,
	}
	a.Observe(s)
	// A surviving candidate below the threshold.
	a.Observe(Sample{
		Threshold: 20,
		Bounds: []BoundValue{
			{Bound: StageFFT, Value: 5},
			{Bound: StageEnvelope, Value: 9},
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
