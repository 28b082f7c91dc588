package lbkeogh

import (
	"fmt"
	"io"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/explain"
	"lbkeogh/internal/obs/ops"
)

// BoundSampler is the shared bound-tightness sink: attach one to any number
// of queries with Query.SetBoundSampler and it measures, for every n-th
// comparison across all of them (comparisons 0, n, 2n, … of the stream they
// feed it), the full bound waterfall — the FFT-magnitude and LB_Keogh
// envelope lower bounds plus the true rotation-invariant distance — yielding
// per-bound tightness-ratio histograms, false-positive attribution and
// elimination counts. The measurement never charges the queries' own
// counters, so the statistics it explains stay unperturbed. Safe for
// concurrent use; a nil *BoundSampler is a valid "off" value everywhere.
type BoundSampler struct {
	rec *explain.Recorder
}

// NewBoundSampler returns a sampler measuring every n-th comparison (n < 1
// samples every comparison). A few hundred is a good serving default: one
// waterfall measurement costs roughly one brute-force comparison.
func NewBoundSampler(n int) *BoundSampler {
	return &BoundSampler{rec: explain.NewRecorder(n)}
}

func (b *BoundSampler) recorder() *explain.Recorder {
	if b == nil {
		return nil
	}
	return b.rec
}

// BoundSamplerSnapshot is a point-in-time copy of a sampler's aggregate.
type BoundSamplerSnapshot = explain.RecorderSnapshot

// BoundTightness summarizes one bound's sampled evidence: tightness-ratio
// distribution (bound/true — the paper's own figure of merit for LB_Keogh),
// false-positive fraction, and how many sampled candidates it eliminated.
type BoundTightness = explain.BoundTightness

// Snapshot copies the sampler's aggregate out. Safe on a nil receiver.
func (b *BoundSampler) Snapshot() BoundSamplerSnapshot {
	return b.recorder().Snapshot()
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

	ops.WriteFamily(w, "lbkeogh_explain_bound_checks_total", "counter",
		"Sampled bound evaluations, per waterfall stage.")
	for _, bt := range snap.Bounds {
		fmt.Fprintf(w, "lbkeogh_explain_bound_checks_total{bound=%q} %d\n", bt.Bound, bt.Checks)
	}
	ops.WriteFamily(w, "lbkeogh_explain_bound_false_positives_total", "counter",
		"Sampled candidates a bound passed that the exact kernel then killed.")
	for _, bt := range snap.Bounds {
		fmt.Fprintf(w, "lbkeogh_explain_bound_false_positives_total{bound=%q} %d\n", bt.Bound, bt.FalsePositives)
	}
	ops.WriteFamily(w, "lbkeogh_explain_bound_eliminated_total", "counter",
		"Sampled candidates first eliminated by each waterfall stage.")
	for _, bt := range snap.Bounds {
		fmt.Fprintf(w, "lbkeogh_explain_bound_eliminated_total{bound=%q} %d\n", bt.Bound, bt.Eliminated)
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

// SetBoundSampler attaches (or with nil detaches) a shared bound-tightness
// sampler: every subsequent search feeds its sampled comparisons into the
// sampler's aggregate, except while EXPLAIN mode is on (see SetExplain). Not
// safe to call concurrently with searches.
func (q *Query) SetBoundSampler(b *BoundSampler) {
	q.sampler = b.recorder()
	if !q.explainOn {
		q.searcher.SetExplain(q.sampler)
	}
}

// explainInterval is EXPLAIN mode's sampling interval: the first of every 4
// comparisons gets the full waterfall measurement, enough for a stable
// per-search tightness summary without quadrupling the search's cost.
const explainInterval = 4

// SetExplain turns per-query EXPLAIN mode on or off. While on, every search
// feeds a private bound sampler at interval 4 in place of the shared one
// (which sees none of its comparisons), and Explain returns the structured
// plan of the most recent search. EXPLAIN mode costs roughly one extra
// waterfall measurement per four comparisons; leave it off outside
// diagnostics. Turning it on or off drops the last plan. Not safe to call
// concurrently with searches.
//
// Parallel searches (SearchParallel*) bypass the per-comparison hooks — the
// plan still carries the reconciling stage waterfall, but no tightness.
func (q *Query) SetExplain(on bool) {
	q.explainOn = on
	q.plan = nil
	if !on {
		q.searcher.SetExplain(q.sampler)
	}
}

// endExplainOp builds the plan of an EXPLAIN-mode operation from its counter
// delta, its private sampler and the finished trace's id (0 = untraced).
func (q *Query) endExplainOp(tid int64, delta obs.Counts) {
	if !q.explainOn {
		return
	}
	snap := q.searcher.Explain().Snapshot()
	q.plan = &ExplainPlan{
		Strategy:           q.strategy.String(),
		Measure:            q.measure.Name(),
		TraceID:            tid,
		Waterfall:          explain.FromCounts(delta),
		SampledComparisons: snap.Sampled,
		Tightness:          snap.Bounds,
	}
}

// ExplainWaterfall is the per-stage pruning breakdown of one search.
type ExplainWaterfall = explain.Waterfall

// ExplainStage is one waterfall stage with its eliminated-rotation count.
type ExplainStage = explain.StageCount

// ExplainPlan is the structured result of a search run in EXPLAIN mode: the
// stage waterfall (whose counts reconcile with the search's SearchStats
// delta by construction) and the tightness of the bounds over the
// comparisons it sampled.
type ExplainPlan struct {
	Strategy string `json:"strategy"`
	Measure  string `json:"measure"`
	// TraceID correlates the plan to the recorded trace of the same search
	// (0 when untraced or sampled away).
	TraceID            int64            `json:"trace_id,omitempty"`
	Waterfall          ExplainWaterfall `json:"waterfall"`
	SampledComparisons int64            `json:"sampled_comparisons"`
	Tightness          []BoundTightness `json:"tightness,omitempty"`
}

// Explain returns the plan of the query's most recent search, or nil when
// EXPLAIN mode was off (see SetExplain) or no search has run since it was
// turned on.
func (q *Query) Explain() *ExplainPlan { return q.plan }
