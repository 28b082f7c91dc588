package explain

import "math"

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
func bucketFor(v float64) int {
	if !(v >= 0) || math.IsInf(v, 1) {
		return NumRatioBuckets
	}
	idx := int(v / RatioBucketWidth)
	if idx >= NumRatioBuckets {
		if v <= 1 {
			return NumRatioBuckets - 1
		}
		return NumRatioBuckets
	}
	return idx
}

// boundAgg accumulates one bound's tightness evidence.
type boundAgg struct {
	name     string
	samples  int64
	sum      float64
	buckets  [NumRatioBuckets + 1]int64
	checks   int64
	falsePos int64
	elim     int64
}

// Agg accumulates waterfall samples: per-bound tightness histograms,
// false-positive counts, and elimination attribution. Not safe for
// concurrent use; Recorder adds the locking for the shared sink, while each
// query's Op keeps a private one.
type Agg struct {
	bounds      []*boundAgg
	byName      map[string]*boundAgg
	samples     int64
	kernelKills int64
	survived    int64
}

func (a *Agg) boundFor(name string) *boundAgg {
	if a.byName == nil {
		a.byName = make(map[string]*boundAgg)
	}
	b := a.byName[name]
	if b == nil {
		b = &boundAgg{name: name}
		a.byName[name] = b
		a.bounds = append(a.bounds, b)
	}
	return b
}

// Observe folds one sample in. For each measured bound it counts the check,
// the tightness ratio bound/true (when the true distance is finite and
// positive), a false positive when the bound passed the threshold but the
// kernel killed the candidate, and the elimination when this bound was the
// first to reach the threshold.
func (a *Agg) Observe(s Sample) {
	a.samples++
	switch s.EliminatedBy {
	case "":
		a.survived++
	case StageKernel:
		a.kernelKills++
	}
	killed := s.Threshold >= 0 && s.True >= s.Threshold
	for _, bv := range s.Bounds {
		b := a.boundFor(bv.Bound)
		b.checks++
		if s.True > 0 && !math.IsInf(s.True, 1) && !math.IsInf(bv.Value, 1) {
			ratio := bv.Value / s.True
			b.samples++
			b.sum += ratio
			b.buckets[bucketFor(ratio)]++
		}
		if killed && bv.Value < s.Threshold {
			b.falsePos++
		}
		if s.EliminatedBy == bv.Bound {
			b.elim++
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

// overflowQuantile is what a quantile landing in the overflow bucket
// reports: just past 1, finite so it survives JSON encoding.
const overflowQuantile = 1.0 + RatioBucketWidth

// quantile returns the nearest-rank q-quantile's bucket upper edge.
func (b *boundAgg) quantile(q float64) float64 {
	if b.samples == 0 {
		return 0
	}
	rank := int64(math.Floor(q*float64(b.samples) + 0.5))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range b.buckets {
		cum += c
		if cum >= rank {
			if i == NumRatioBuckets {
				return overflowQuantile
			}
			return float64(i+1) * RatioBucketWidth
		}
	}
	return overflowQuantile
}

func (b *boundAgg) summary() BoundTightness {
	t := BoundTightness{
		Bound:          b.name,
		Samples:        b.samples,
		SumRatio:       b.sum,
		Checks:         b.checks,
		FalsePositives: b.falsePos,
		Eliminated:     b.elim,
		P50Ratio:       b.quantile(0.50),
		P90Ratio:       b.quantile(0.90),
	}
	if b.samples > 0 {
		t.MeanRatio = b.sum / float64(b.samples)
	}
	if b.checks > 0 {
		t.FalsePositiveFraction = float64(b.falsePos) / float64(b.checks)
	}
	for i, c := range b.buckets {
		// The overflow bucket's edge is reported as overflowQuantile rather
		// than +Inf so the summary survives encoding/json; metrics emission
		// still writes the exposition bucket as le="+Inf" by position.
		ub := float64(i+1) * RatioBucketWidth
		if i == NumRatioBuckets {
			ub = overflowQuantile
		}
		t.Buckets = append(t.Buckets, RatioBucket{UpperBound: ub, Count: c})
	}
	return t
}

// Summary returns the per-bound tightness summaries in first-seen (cascade)
// order.
func (a *Agg) Summary() []BoundTightness {
	out := make([]BoundTightness, 0, len(a.bounds))
	for _, b := range a.bounds {
		out = append(out, b.summary())
	}
	return out
}

// Samples reports how many waterfall samples were folded in.
func (a *Agg) Samples() int64 { return a.samples }

// KernelKills reports samples whose candidate passed every bound but was
// killed by the exact kernel.
func (a *Agg) KernelKills() int64 { return a.kernelKills }

// Survived reports samples whose candidate survived every stage.
func (a *Agg) Survived() int64 { return a.survived }
