package explain

import (
	"math"
	"slices"
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

func TestRecorderObserveAndSnapshot(t *testing.T) {
	r := NewRecorder(1)
	// A killed candidate (true 10 >= threshold 5) whose fft bound passed the
	// threshold (false positive) and whose envelope bound eliminated it.
	s := Sample{
		Threshold: 5,
		Bounds: [NumBounds]float64{
			StageFFT:      4, // ratio 0.4, false positive
			StageEnvelope: 8, // ratio 0.8, eliminated here
		},
		True: 10,
	}
	if by := s.EliminatedBy(); by != StageEnvelope {
		t.Fatalf("eliminated by %v, want envelope", by)
	}
	r.Observe(s)
	// A surviving candidate below the threshold.
	r.Observe(Sample{
		Threshold: 20,
		Bounds:    [NumBounds]float64{StageFFT: 5, StageEnvelope: 9},
		True:      10,
	})
	snap := r.Snapshot()
	if snap.Survived != 1 || snap.KernelKills != 0 || snap.Sampled != 2 {
		t.Fatalf("survived/kills/sampled = %d/%d/%d, want 1/0/2", snap.Survived, snap.KernelKills, snap.Sampled)
	}
	sum := snap.Bounds
	if len(sum) != 2 {
		t.Fatalf("got %d bound summaries, want 2", len(sum))
	}
	fft := sum[0]
	if fft.Bound != StageFFT.String() {
		t.Fatalf("cascade order broken: %q first", fft.Bound)
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

// fuzzValues are the values a fuzzed sample's fields are drawn from: NaN,
// both infinities, negatives, zero, ratios either side of every bucket edge
// that matters, and the largest finite float.
var fuzzValues = [16]float64{
	math.NaN(), math.Inf(-1), -1, 0, 1e-300, 0.04, 0.5, 1,
	1.5, 2, 5, 10, 1e300, math.MaxFloat64, math.Inf(1), 3,
}

// FuzzBoundSampler folds arbitrary samples — each of threshold, true
// distance and bound values drawn from fuzzValues — into one recorder and
// holds its snapshot to the aggregate's identities: per stage, false
// positives and eliminations never exceed checks and the ratio buckets sum
// to the ratio samples; survivors, kernel kills and every stage's
// eliminations sum to the samples; and the bounds listed are exactly the
// stages some sample measured, in cascade order.
func FuzzBoundSampler(f *testing.F) {
	f.Add([]byte{7, 11, 6, 7})           // killed, fft a false positive, envelope eliminates
	f.Add([]byte{10, 11, 0, 8, 2, 3, 3}) // an envelope-only sample first, then a no-threshold one
	f.Add([]byte{3, 14, 14, 14, 0, 3, 7, 7})
	f.Add([]byte{7, 7, 0, 12}) // bound 1e300 over a true distance of 1: a ratio past int's range
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRecorder(1)
		var measured [NumBounds]bool
		var n int64
		for ; len(data) >= 2+NumBounds; data = data[2+NumBounds:] {
			s := Sample{Threshold: fuzzValues[data[0]%16], True: fuzzValues[data[1]%16]}
			for i := range s.Bounds {
				s.Bounds[i] = fuzzValues[data[2+i]%16]
				measured[i] = measured[i] || !math.IsNaN(s.Bounds[i])
			}
			r.Observe(s)
			n++
		}
		snap := r.Snapshot()
		if snap.Sampled != n {
			t.Fatalf("sampled %d, observed %d", snap.Sampled, n)
		}
		total := snap.Survived + snap.KernelKills
		var want []string
		for i, m := range measured {
			if m {
				want = append(want, Stage(i).String())
			}
		}
		var got []string
		for _, bt := range snap.Bounds {
			got = append(got, bt.Bound)
			if bt.FalsePositives > bt.Checks || bt.Eliminated > bt.Checks {
				t.Errorf("%s: %d false positives, %d eliminated of %d checks", bt.Bound, bt.FalsePositives, bt.Eliminated, bt.Checks)
			}
			var inBuckets int64
			for _, bk := range bt.Buckets {
				inBuckets += bk.Count
			}
			if inBuckets != bt.Samples {
				t.Errorf("%s: buckets hold %d ratios of %d", bt.Bound, inBuckets, bt.Samples)
			}
			total += bt.Eliminated
		}
		if total != snap.Sampled {
			t.Errorf("survived %d + kernel kills %d + eliminated = %d, want the %d sampled", snap.Survived, snap.KernelKills, total, snap.Sampled)
		}
		if !slices.Equal(got, want) {
			t.Errorf("bounds listed %q, want %q", got, want)
		}
	})
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
