package explain

import (
	"math"

	"lbkeogh/internal/envelope"
	"lbkeogh/internal/fourier"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/wedge"
)

// QueryContext holds everything needed to re-derive the full bound waterfall
// for one query against an arbitrary candidate: the exact kernel, the
// rotation members (for the true rotation-invariant distance), the root
// wedge envelope already widened for the kernel, and the query's Fourier
// magnitudes. Build one per compiled query and reuse it across sampled
// comparisons; construction does the feature transform once.
type QueryContext struct {
	kernel   wedge.Kernel
	members  int
	memberAt func(int) []float64

	rootEnv  envelope.Envelope
	queryMag []float64 // nil unless the FFT bound applies (Euclidean only)
}

// NewQueryContext prepares measurement state for a query whose rotation set
// has the given members (memberAt(i) returns rotation i), wedge tree and
// kernel. base is the unrotated query series.
//
// Which bounds apply follows the admissibility rules the strategies
// themselves obey: the FFT-magnitude bound is rotation invariant only for
// the Euclidean measure; the LB_Keogh envelope bound applies to all three
// kernels.
func NewQueryContext(base []float64, members int, memberAt func(int) []float64, tree *wedge.Tree, kernel wedge.Kernel) *QueryContext {
	qc := &QueryContext{
		kernel:   kernel,
		members:  members,
		memberAt: memberAt,
		rootEnv:  tree.FrontierEnvelopes(1, kernel.Radius())[0],
	}
	if _, ok := kernel.(wedge.ED); ok {
		qc.queryMag = fourier.Magnitudes(base, len(base)/2)
	}
	return qc
}

// BoundValue is one measured waterfall stage.
type BoundValue struct {
	Bound string  `json:"bound"`
	Value float64 `json:"value"`
}

// Sample is the full measured waterfall of one candidate comparison: every
// applicable bound's value, the true rotation-invariant distance, the
// threshold in effect, and the first cascade stage that would have
// eliminated the candidate ("" when it survives every stage).
type Sample struct {
	Threshold    float64      `json:"threshold"`
	Bounds       []BoundValue `json:"bounds"`
	True         float64      `json:"true"`
	EliminatedBy string       `json:"eliminated_by,omitempty"`
}

// Measure computes the waterfall for candidate x under pruning threshold r
// (r < 0 means no threshold: nothing is eliminated). The computation is
// charged to a private tally, never to the query's counters, so sampling
// does not perturb the statistics it is meant to explain.
func (qc *QueryContext) Measure(x []float64, r float64) Sample {
	var t stats.Tally
	s := Sample{Threshold: r}
	if qc.queryMag != nil {
		cm := fourier.Magnitudes(x, len(qc.queryMag))
		s.Bounds = append(s.Bounds, BoundValue{
			Bound: fourier.BoundName,
			Value: fourier.LowerBoundED(qc.queryMag, cm),
		})
	}
	lb, _ := qc.kernel.LowerBound(x, qc.rootEnv, -1, &t)
	s.Bounds = append(s.Bounds, BoundValue{Bound: envelope.BoundName, Value: lb})

	best := math.Inf(1)
	for i := 0; i < qc.members; i++ {
		if d, aborted := qc.kernel.Distance(x, qc.memberAt(i), -1, &t); !aborted && d < best {
			best = d
		}
	}
	s.True = best
	s.EliminatedBy = eliminatedBy(s)
	return s
}

// eliminatedBy returns the first cascade stage whose value reaches the
// threshold, the kernel stage when only the exact distance does, or "" for a
// surviving candidate (including the no-threshold case).
func eliminatedBy(s Sample) string {
	if s.Threshold < 0 {
		return ""
	}
	for _, b := range s.Bounds {
		if b.Value >= s.Threshold {
			return b.Bound
		}
	}
	if s.True >= s.Threshold {
		return StageKernel
	}
	return ""
}
