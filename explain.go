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
// comparison across all of them, the full bound waterfall — the
// FFT-magnitude, PAA and LB_Keogh envelope lower bounds plus the true
// rotation-invariant distance — yielding per-bound tightness-ratio
// histograms, false-positive attribution and elimination counts. The
// measurement never charges the queries' own counters, so the statistics it
// explains stay unperturbed. Safe for concurrent use; a nil *BoundSampler is
// a valid "off" value everywhere.
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
// elimination counters, and per-bound tightness-ratio histograms whose
// buckets carry OpenMetrics exemplars linking to the trace id of a recorded
// query that landed there. Safe on a nil receiver (writes headers with zero
// samples).
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
			if bk.ExemplarTraceID != 0 {
				buckets[i].Exemplar = fmt.Sprintf("{trace_id=\"%d\"} %s", bk.ExemplarTraceID, ops.FormatFloat(bk.ExemplarValue))
			}
		}
		ops.WriteHistogram(w, "lbkeogh_explain_bound_tightness_ratio", fmt.Sprintf("bound=%q", bt.Bound),
			buckets, ops.FormatFloat(bt.SumRatio), false)
	}
}

// SetBoundSampler attaches (or with nil detaches) a shared bound-tightness
// sampler: every subsequent search feeds its sampled comparisons into the
// sampler's aggregate. Not safe to call concurrently with searches.
func (q *Query) SetBoundSampler(b *BoundSampler) {
	q.expSink = b.recorder()
	q.rearmExplain()
}

// SetExplain turns per-query EXPLAIN mode on or off. While on, every search
// additionally records per-comparison counter deltas and a query-local
// tightness aggregate (measuring every few comparisons), from which Explain
// builds the structured plan of the most recent search. EXPLAIN mode costs
// roughly one extra waterfall measurement per explain.DefaultOpInterval
// comparisons plus one recorded counter delta per comparison; leave it off
// outside diagnostics. Not safe to call concurrently with searches.
//
// Parallel searches (SearchParallel*) bypass the per-comparison hooks — the
// plan still carries the reconciling stage waterfall, but no survivor
// annotations or query-local tightness.
func (q *Query) SetExplain(on bool) {
	q.explainOn = on
	q.rearmExplain()
}

// rearmExplain (re)builds the searcher's explain op from the current
// sink/flag pair; with both off the searcher pays one nil check per
// comparison.
func (q *Query) rearmExplain() {
	if q.expSink == nil && !q.explainOn {
		q.exp = nil
		q.expValid = false
		q.searcher.SetExplain(nil)
		return
	}
	q.exp = explain.NewOp(q.searcher.ExplainContext(), q.expSink, q.explainOn)
	q.searcher.SetExplain(q.exp)
}

// beginExplainOp resets the explain op for one operation.
func (q *Query) beginExplainOp() {
	if q.exp == nil {
		return
	}
	q.exp.Reset()
	q.expValid = false
}

// endExplainOp keeps the operation's counter delta, from which the plan's
// waterfall is derived, and correlates the sampler exemplars with the
// finished trace (tid 0 = untraced).
func (q *Query) endExplainOp(tid int64, delta obs.Counts) {
	if q.exp == nil {
		return
	}
	q.expDelta = delta
	q.expTraceID = tid
	q.expValid = true
	q.exp.FinishTrace(tid)
}

// ExplainWaterfall is the per-stage pruning breakdown of one search.
type ExplainWaterfall = explain.Waterfall

// ExplainStage is one waterfall stage with its eliminated-rotation count.
type ExplainStage = explain.StageCount

// ExplainSurvivor is one database candidate that survived the waterfall,
// annotated with the stage that admitted it into the exact kernel.
type ExplainSurvivor struct {
	// Index is the candidate's position in the scanned database.
	Index int `json:"index"`
	// Dist is its exact rotation-invariant distance.
	Dist float64 `json:"dist"`
	// AdmittedBy names the last waterfall stage the candidate passed through
	// before the kernel confirmed it ("kernel" when no bound applied).
	AdmittedBy string `json:"admitted_by"`
}

// maxExplainSurvivors caps the survivor annotations in one plan; range
// queries can match arbitrarily many candidates and the plan must stay a
// bounded response payload. The most recent survivors are kept (for a 1-NN
// search the improving chain ends at the answer).
const maxExplainSurvivors = 64

// ExplainPlan is the structured result of a search run in EXPLAIN mode: the
// stage waterfall (whose counts reconcile with the search's SearchStats
// delta by construction), the sampled tightness summary, and the surviving
// candidates annotated with the bound that admitted them.
type ExplainPlan struct {
	Strategy string `json:"strategy"`
	Measure  string `json:"measure"`
	// TraceID correlates the plan to the recorded trace of the same search
	// (0 when untraced or sampled away).
	TraceID            int64             `json:"trace_id,omitempty"`
	Waterfall          ExplainWaterfall  `json:"waterfall"`
	SampledComparisons int64             `json:"sampled_comparisons"`
	Tightness          []BoundTightness  `json:"tightness,omitempty"`
	Survivors          []ExplainSurvivor `json:"survivors,omitempty"`
	// SurvivorsDropped counts older survivors trimmed from the annotation
	// list when a search admitted more than the plan cap.
	SurvivorsDropped int `json:"survivors_dropped,omitempty"`
}

// admittedBy derives, from one comparison's counter delta, the last
// waterfall stage the candidate passed through before its exact evaluation.
func admittedBy(d obs.Counts) string {
	switch {
	case d.WedgeNodeVisits+d.WedgeLeafVisits > 0:
		return explain.StageEnvelope
	case d.FFTFallbacks > 0:
		return explain.StageFFT
	default:
		return explain.StageKernel
	}
}

// Explain returns the plan of the query's most recent search, or nil when
// EXPLAIN mode was off (see SetExplain) or no search has run since it was
// turned on.
func (q *Query) Explain() *ExplainPlan {
	if q.exp == nil || !q.expValid {
		return nil
	}
	plan := &ExplainPlan{
		Strategy:           q.strategy.String(),
		Measure:            q.measure.Name(),
		TraceID:            q.expTraceID,
		Waterfall:          explain.FromCounts(q.expDelta),
		SampledComparisons: q.exp.LocalSamples(),
		Tightness:          q.exp.LocalTightness(),
	}
	for _, c := range q.exp.Comparisons() {
		if !c.Found {
			continue
		}
		plan.Survivors = append(plan.Survivors, ExplainSurvivor{
			Index:      c.Ref,
			Dist:       c.Dist,
			AdmittedBy: admittedBy(c.Delta),
		})
	}
	if n := len(plan.Survivors); n > maxExplainSurvivors {
		plan.SurvivorsDropped = n - maxExplainSurvivors
		plan.Survivors = plan.Survivors[n-maxExplainSurvivors:]
	}
	return plan
}
