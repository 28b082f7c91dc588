package explain

import "lbkeogh/internal/obs"

// DefaultOpInterval is the per-query sampling interval when full EXPLAIN
// attribution is on: every 4th comparison gets the full waterfall
// measurement, enough for a stable per-query tightness summary without
// quadrupling the query's cost.
const DefaultOpInterval = 4

// Comparison is the per-candidate record an attributing Op keeps: the
// candidate's reference (its database index in a scan or an index probe, the
// comparison ordinal otherwise), the counter delta the comparison spent (from
// which the admitting bound is derived), the resulting distance, and the
// match flags.
type Comparison struct {
	Ref     int        `json:"ref"`
	Delta   obs.Counts `json:"delta"`
	Dist    float64    `json:"dist"`
	Found   bool       `json:"found"`
	Aborted bool       `json:"aborted"`
}

// Op is the per-query explain state threaded through a searcher: it decides
// which comparisons to measure (feeding both the shared Recorder sink and,
// when attribution is on, a query-local aggregate) and, under attribution,
// records every comparison's counter delta for the plan's survivor
// annotations. An Op is single-goroutine, like the searcher it rides.
type Op struct {
	qc          *QueryContext
	sink        *Recorder
	attribution bool

	seen  int64
	comps []Comparison
	local Agg
}

// NewOp creates explain state over query context qc. sink (may be nil)
// receives cross-query tightness samples at its own interval; attribution
// additionally turns on per-comparison delta recording and a query-local
// tightness aggregate sampled every DefaultOpInterval comparisons.
func NewOp(qc *QueryContext, sink *Recorder, attribution bool) *Op {
	return &Op{qc: qc, sink: sink, attribution: attribution}
}

// Attribution reports whether the op wants per-comparison deltas recorded.
func (o *Op) Attribution() bool { return o.attribution }

// BeforeComparison runs the sampled waterfall measurement for candidate x
// under threshold r when either the shared sink's or the local attribution
// interval elects this comparison. Measurement never charges the query's
// counters.
func (o *Op) BeforeComparison(x []float64, r float64) {
	ord := o.seen
	o.seen++
	sinkWants := o.sink.ShouldSample()
	localWants := o.attribution && ord%DefaultOpInterval == 0
	if !sinkWants && !localWants {
		return
	}
	s := o.qc.Measure(x, r)
	s.Ref = int(ord)
	if sinkWants {
		o.sink.Observe(s)
	}
	if localWants {
		o.local.Observe(s)
	}
}

// RecordComparison records one finished comparison's delta and outcome;
// no-op unless attribution is on.
func (o *Op) RecordComparison(ref int, delta obs.Counts, dist float64, found, aborted bool) {
	if !o.attribution {
		return
	}
	o.comps = append(o.comps, Comparison{Ref: ref, Delta: delta, Dist: dist, Found: found, Aborted: aborted})
}

// Reset clears per-query state for reuse across searches on the same query.
func (o *Op) Reset() {
	o.seen = 0
	o.comps = nil
	o.local = Agg{}
}

// Comparisons returns the recorded per-comparison records (attribution only;
// nil otherwise). The slice is owned by the op and valid until Reset.
func (o *Op) Comparisons() []Comparison { return o.comps }

// LocalTightness summarizes the query-local tightness aggregate.
func (o *Op) LocalTightness() []BoundTightness { return o.local.Summary() }

// LocalSamples reports how many comparisons the local aggregate measured.
func (o *Op) LocalSamples() int64 { return o.local.Samples() }
