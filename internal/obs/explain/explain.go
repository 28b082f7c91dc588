// Package explain is the bound sampler: for a sampled subset of candidate
// comparisons it folds the bound waterfall the paper argues from —
// FFT-magnitude bound, LB_Keogh envelope bound, then the exact kernel — as
// measured by the searcher that ran them (core.Searcher) into per-bound
// tightness-ratio histograms (bound/true: the closer to 1, the better
// LB_Keogh prunes), false-positive attribution ("passed the bound, killed by
// the kernel") and per-stage elimination counts. How many rotations each
// stage disposed of across every comparison is the search's own obs.Counts
// record. A disabled sampler costs one nil check per comparison.
package explain

import (
	"math"
	"sync"
	"sync/atomic"

	"lbkeogh/internal/obs"
)

// Stage is one stage of the waterfall. The stages are a closed set in
// cascade order: the NumBounds bound stages, then the exact kernel.
type Stage uint8

const (
	// StageFFT is the rotation-invariant Fourier-magnitude bound (ED only).
	StageFFT Stage = iota
	// StageEnvelope is LB_Keogh against the query's root wedge.
	StageEnvelope
	// StageKernel is the exact kernel: a sampled candidate every bound passed
	// is eliminated here when its true distance reaches the threshold.
	StageKernel
	// StageNone is no stage: the candidate survived every one.
	StageNone

	// NumBounds is the number of bound stages, the ones before the kernel.
	NumBounds = int(StageKernel)
)

var stageNames = [...]string{"fft", "envelope", "kernel", "none"}

// String names the stage: a bound's `bound` label in /metrics and its name
// in a plan's JSON.
func (s Stage) String() string { return stageNames[s] }

// Sample is the measured waterfall of one candidate comparison: every bound
// stage's value, NaN where the stage does not apply to the kernel (the FFT
// bound outside Euclidean); the true rotation-invariant distance; and the
// threshold in effect (< 0: none).
type Sample struct {
	Threshold float64
	Bounds    [NumBounds]float64
	True      float64
}

// EliminatedBy returns the first cascade stage of s whose value reaches the
// threshold, StageKernel when only the exact distance does, or StageNone for
// a surviving candidate (including the no-threshold case).
func (s Sample) EliminatedBy() Stage {
	if s.Threshold < 0 {
		return StageNone
	}
	for i, v := range s.Bounds {
		if v >= s.Threshold {
			return Stage(i)
		}
	}
	if s.True >= s.Threshold {
		return StageKernel
	}
	return StageNone
}

// Tightness-ratio histogram shape: NumRatioBuckets fixed-width buckets cover
// ratios in [0, 1] (an admissible bound never exceeds the true distance, so
// the ratio lives there up to float fuzz) plus one overflow bucket for
// anything beyond 1 — a non-empty overflow bucket is itself a diagnostic.
const (
	NumRatioBuckets  = 20
	RatioBucketWidth = 0.05
)

// bucketFor maps a tightness ratio to its bucket index, with index
// NumRatioBuckets as the overflow bucket (ratios above 1, NaN, negatives).
// A ratio of exactly 1 stays in the last regular bucket.
func bucketFor(v float64) int {
	if !(v >= 0) || v > 1 {
		return NumRatioBuckets
	}
	return min(int(v/RatioBucketWidth), NumRatioBuckets-1)
}

// Recorder is the bound sampler: the searchers feeding it ask whether to
// sample each comparison (comparisons 0, n, 2n, … of its stream, across
// every searcher feeding it) and fold the measured waterfall samples into
// one slot per bound stage. Every BoundSampler is one. A nil *Recorder is a
// valid no-op sink — ShouldSample on nil costs one nil check and returns
// false, which is the entire disabled-path overhead.
type Recorder struct {
	every int64
	seen  atomic.Int64

	mu          sync.Mutex
	sampled     int64
	kernelKills int64
	survived    int64
	// bounds holds each stage's counters (Snapshot derives the rest) and
	// buckets its tightness-ratio histogram.
	bounds  [NumBounds]BoundTightness
	buckets [NumBounds][NumRatioBuckets + 1]int64
}

// NewRecorder returns a recorder sampling every n-th comparison (n < 1 is
// clamped to 1, i.e. sample everything).
func NewRecorder(n int) *Recorder {
	return &Recorder{every: int64(max(n, 1))}
}

// ShouldSample counts one comparison seen and reports whether it is the
// recorder's turn to sample it: the first of every n, so a stream of c
// comparisons yields ceil(c/n) samples and even a one-comparison search is
// measured. Safe on a nil receiver (always false) and for concurrent use.
func (r *Recorder) ShouldSample() bool {
	if r == nil {
		return false
	}
	return (r.seen.Add(1)-1)%r.every == 0
}

// Observe folds one sample in. For each measured bound it counts the check,
// the tightness ratio bound/true (when the true distance is finite and
// positive and the bound finite), a false positive when the bound passed the
// threshold but the kernel killed the candidate, and the elimination when
// this bound was the first to reach the threshold. Safe on a nil receiver
// (no-op) and for concurrent use.
func (r *Recorder) Observe(s Sample) {
	if r == nil {
		return
	}
	by := s.EliminatedBy()
	killed := s.Threshold >= 0 && s.True >= s.Threshold
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sampled++
	switch by {
	case StageNone:
		r.survived++
	case StageKernel:
		r.kernelKills++
	}
	for i, v := range s.Bounds {
		if math.IsNaN(v) {
			continue // the stage does not apply to the kernel
		}
		b := &r.bounds[i]
		b.Checks++
		if s.True > 0 && !math.IsInf(s.True, 1) && !math.IsInf(v, 1) {
			ratio := v / s.True
			b.Samples++
			b.SumRatio += ratio
			r.buckets[i][bucketFor(ratio)]++
		}
		if killed && v < s.Threshold {
			b.FalsePositives++
		}
		if by == Stage(i) {
			b.Eliminated++
		}
	}
}

// RatioBucket is one cumulative-histogram cell of a tightness summary.
// UpperBound is the bucket's inclusive upper edge (the exposition `le`);
// Count is the non-cumulative cell count.
type RatioBucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// BoundTightness summarizes one bound's evidence: how often it was checked,
// the distribution of bound/true, how often it passed a candidate the kernel
// then killed, and how many candidates it eliminated first.
type BoundTightness struct {
	Bound                 string        `json:"bound"`
	Samples               int64         `json:"samples"`
	SumRatio              float64       `json:"sum_ratio"`
	MeanRatio             float64       `json:"mean_ratio"`
	P50Ratio              float64       `json:"p50_ratio"`
	P90Ratio              float64       `json:"p90_ratio"`
	Checks                int64         `json:"checks"`
	FalsePositives        int64         `json:"false_positives"`
	FalsePositiveFraction float64       `json:"false_positive_fraction"`
	Eliminated            int64         `json:"eliminated"`
	Buckets               []RatioBucket `json:"buckets,omitempty"`
}

// overflowQuantile is the overflow bucket's edge in a summary and its
// quantile: just past 1, finite so it survives JSON encoding (the exposition
// writes that bucket as le="+Inf", by position).
const overflowQuantile = 1.0 + RatioBucketWidth

// ratioQuantile returns the nearest-rank q-quantile's bucket upper edge (0
// with no samples): the rank is obs.BucketQuantile's, read over ords, the
// buckets' ordinals 1, 2, … with the overflow bucket as its -1.
func ratioQuantile(ords []obs.HistogramBucket, q float64) float64 {
	if k := obs.BucketQuantile(ords, q); k >= 0 {
		return float64(k) * RatioBucketWidth
	}
	return overflowQuantile
}

// RecorderSnapshot is a point-in-time copy of the recorder's aggregate. Its
// Bounds are the stages checked at least once, in cascade order.
type RecorderSnapshot struct {
	Seen        int64            `json:"seen"`
	Sampled     int64            `json:"sampled"`
	Interval    int64            `json:"interval"`
	KernelKills int64            `json:"kernel_kills"`
	Survived    int64            `json:"survived"`
	Bounds      []BoundTightness `json:"bounds,omitempty"`
}

// Snapshot copies the aggregate out under the lock. Safe on a nil receiver
// (zero snapshot).
func (r *Recorder) Snapshot() RecorderSnapshot {
	if r == nil {
		return RecorderSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := RecorderSnapshot{
		Seen:        r.seen.Load(),
		Sampled:     r.sampled,
		Interval:    r.every,
		KernelKills: r.kernelKills,
		Survived:    r.survived,
	}
	for i, t := range r.bounds {
		if t.Checks == 0 {
			continue
		}
		t.Bound = Stage(i).String()
		t.FalsePositiveFraction = float64(t.FalsePositives) / float64(t.Checks)
		if t.Samples > 0 {
			t.MeanRatio = t.SumRatio / float64(t.Samples)
		}
		ords := make([]obs.HistogramBucket, NumRatioBuckets+1)
		t.Buckets = make([]RatioBucket, NumRatioBuckets+1)
		for j, c := range r.buckets[i] {
			ords[j] = obs.HistogramBucket{UpperBound: int64(j + 1), Count: c}
			t.Buckets[j] = RatioBucket{UpperBound: float64(j+1) * RatioBucketWidth, Count: c}
		}
		ords[NumRatioBuckets].UpperBound = -1
		t.Buckets[NumRatioBuckets].UpperBound = overflowQuantile
		t.P50Ratio, t.P90Ratio = ratioQuantile(ords, 0.50), ratioQuantile(ords, 0.90)
		snap.Bounds = append(snap.Bounds, t)
	}
	return snap
}
