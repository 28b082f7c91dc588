// Package explain is the bound-tightness aggregate: it folds the bound
// waterfall the paper argues from — FFT-magnitude bound, LB_Keogh envelope
// bound, then the exact kernel — measured for a sampled subset of candidate
// comparisons by the searcher that ran them (core.Searcher), into per-bound
// tightness histograms, false-positive attribution ("passed the bound,
// killed by the kernel") and per-stage elimination counts.
//
// Keogh et al.'s case for LB_Keogh rests on the ratio of the lower bound to
// the true distance (the closer to 1, the better the pruning); this package
// turns that ratio into continuously collected telemetry. How many rotations
// each stage disposed of across every comparison is the search's own
// obs.Counts record, not this package's.
//
// Everything here lives off the hot path: a disabled sampler costs one nil
// check per comparison.
package explain

// The waterfall's stages in cascade order. Each is a bound's `bound` label
// in /metrics and its name in a plan's JSON.
const (
	// StageFFT is the rotation-invariant Fourier-magnitude bound (Euclidean
	// only).
	StageFFT = "fft"
	// StageEnvelope is LB_Keogh against the query's root wedge.
	StageEnvelope = "envelope"
	// StageKernel is the exact kernel: a sampled candidate every bound passed
	// is eliminated here when its true distance reaches the threshold.
	StageKernel = "kernel"
)

// BoundValue is one measured waterfall stage.
type BoundValue struct {
	Bound string  `json:"bound"`
	Value float64 `json:"value"`
}

// Sample is the full measured waterfall of one candidate comparison: every
// applicable bound's value in cascade order, the true rotation-invariant
// distance, the threshold in effect (< 0: none), and the first stage that
// would have eliminated the candidate ("" when it survives every stage).
type Sample struct {
	Threshold    float64      `json:"threshold"`
	Bounds       []BoundValue `json:"bounds"`
	True         float64      `json:"true"`
	EliminatedBy string       `json:"eliminated_by,omitempty"`
}

// EliminatedBy returns the first cascade stage of s whose value reaches the
// threshold, StageKernel when only the exact distance does, or "" for a
// surviving candidate (including the no-threshold case).
func EliminatedBy(s Sample) string {
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
