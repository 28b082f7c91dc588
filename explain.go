package lbkeogh

import (
	"fmt"
	"io"

	"lbkeogh/internal/obs/explain"
	"lbkeogh/internal/obs/ops"
)

// BoundSampler is the shared bound-tightness sink: attach one to any number
// of queries with Query.SetBoundSampler and it measures, for every n-th
// comparison across all of them (comparisons 0, n, 2n, … of the stream they
// feed it), the bound waterfall in the paper's cascade order — the
// FFT-magnitude bound (Euclidean only), LB_Keogh on the root wedge, then the
// true rotation-invariant distance — into per-bound tightness-ratio
// histograms, false-positive attribution and elimination counts. Sampling
// never charges the queries' own counters. Safe for concurrent use; a nil
// *BoundSampler is a valid "off" value everywhere.
type BoundSampler explain.Recorder

// NewBoundSampler returns a sampler measuring every n-th comparison (n < 1
// samples every comparison). A few hundred is a good serving default: one
// waterfall measurement costs roughly one brute-force comparison.
func NewBoundSampler(n int) *BoundSampler {
	return (*BoundSampler)(explain.NewRecorder(n))
}

// BoundSamplerSnapshot is a point-in-time copy of a sampler's aggregate, its
// Bounds in cascade order whatever order the measures feeding it came in.
type BoundSamplerSnapshot = explain.RecorderSnapshot

// BoundTightness summarizes one bound's sampled evidence: tightness-ratio
// distribution (bound/true — the paper's own figure of merit for LB_Keogh),
// false-positive fraction, and how many sampled candidates it eliminated.
type BoundTightness = explain.BoundTightness

// Snapshot copies the sampler's aggregate out. Safe on a nil receiver.
func (b *BoundSampler) Snapshot() BoundSamplerSnapshot {
	return (*explain.Recorder)(b).Snapshot()
}

// WriteMetrics writes the sampler's aggregate in Prometheus text exposition
// format: waterfall sample counters, per-bound check/false-positive/
// elimination counters, and per-bound tightness-ratio histograms. Safe on a
// nil receiver (writes headers with zero samples).
func (b *BoundSampler) WriteMetrics(w io.Writer) {
	snap := b.Snapshot()
	ops.WriteCounter(w, "lbkeogh_explain_comparisons_seen_total",
		"Comparisons considered by the bound-tightness sampler.", snap.Seen)
	ops.WriteCounter(w, "lbkeogh_explain_samples_total",
		"Comparisons whose full bound waterfall was measured.", snap.Sampled)
	ops.WriteCounter(w, "lbkeogh_explain_sampled_survivors_total",
		"Sampled candidates that survived every waterfall stage.", snap.Survived)
	ops.WriteCounter(w, "lbkeogh_explain_sampled_kernel_kills_total",
		"Sampled candidates that passed every bound but were killed by the exact kernel.", snap.KernelKills)

	for _, f := range []struct {
		name, help string
		count      func(BoundTightness) int64
	}{
		{"lbkeogh_explain_bound_checks_total", "Sampled bound evaluations, per waterfall stage.",
			func(bt BoundTightness) int64 { return bt.Checks }},
		{"lbkeogh_explain_bound_false_positives_total", "Sampled candidates a bound passed that the exact kernel then killed.",
			func(bt BoundTightness) int64 { return bt.FalsePositives }},
		{"lbkeogh_explain_bound_eliminated_total", "Sampled candidates first eliminated by each waterfall stage.",
			func(bt BoundTightness) int64 { return bt.Eliminated }},
	} {
		ops.WriteFamily(w, f.name, "counter", f.help)
		for _, bt := range snap.Bounds {
			fmt.Fprintf(w, "%s{bound=%q} %d\n", f.name, bt.Bound, f.count(bt))
		}
	}

	ops.WriteFamily(w, "lbkeogh_explain_bound_tightness_ratio", "histogram",
		"Distribution of lower bound / true rotation-invariant distance, per bound (1 = perfectly tight).")
	for _, bt := range snap.Bounds {
		buckets := make([]ops.HistogramBucket, len(bt.Buckets))
		for i, bk := range bt.Buckets {
			buckets[i] = ops.HistogramBucket{LE: fmt.Sprintf("%.2f", float64(i+1)*explain.RatioBucketWidth), Count: bk.Count}
		}
		ops.WriteHistogram(w, "lbkeogh_explain_bound_tightness_ratio", fmt.Sprintf("bound=%q", bt.Bound),
			buckets, ops.FormatFloat(bt.SumRatio))
	}
}

// SetBoundSampler attaches (or with nil detaches) a bound-tightness
// sampler: every subsequent comparison the query runs — Distance, Match and
// the serial searches, flat or through an index — is offered to it. A query
// feeds one sampler at a time; attaching another replaces it.
// SearchParallel* comparisons run on per-worker searchers and are not
// sampled. Not safe to call concurrently with searches.
func (q *Query) SetBoundSampler(b *BoundSampler) {
	q.searcher.SetExplain((*explain.Recorder)(b))
}
