// Package explain is the pruning-diagnostics layer: it measures, for a
// sampled subset of candidate comparisons, the full bound waterfall the paper
// argues from — FFT-magnitude bound, LB_Keogh envelope bound, then the exact
// kernel — recording each stage's value, the true
// rotation-invariant distance, and which stage eliminated the candidate.
//
// Keogh et al.'s case for LB_Keogh rests on the ratio of the lower bound to
// the true distance (the closer to 1, the better the pruning); this package
// turns that ratio into continuously collected telemetry: per-bound tightness
// histograms, false-positive attribution ("passed the bound, killed by the
// kernel"), and a waterfall breakdown whose stage counts reconcile exactly
// with the obs.Counts identity. Those per-stage counters are the baseline a
// future cheap→tight cascade (e.g. Lemire's LB_Improved second pass) must
// beat.
//
// Everything here lives off the hot path: a disabled sampler costs one nil
// check per comparison, and measurement never charges the query's own
// counters (bounds and true distances are recomputed against a private
// tally).
package explain

import "lbkeogh/internal/obs"

// Stage tags, re-exported here so waterfall consumers need not import every
// bound package. The canonical definitions live next to each bound.
const (
	StageFFT      = "fft"      // fourier.BoundName
	StageEnvelope = "envelope" // envelope.BoundName
	StageKernel   = "kernel"   // wedge.KernelStageName
)

// StageCount is one waterfall stage with the number of rotations it
// eliminated.
type StageCount struct {
	Stage   string `json:"stage"`
	Members int64  `json:"members"`
}

// Waterfall is the pruning breakdown of a scan: how many rotations each
// cascade stage disposed of, in cascade order, plus the survivors that
// required a full kernel evaluation and any rotations a cancellation left
// undisposed.
type Waterfall struct {
	Comparisons int64 `json:"comparisons"`
	Rotations   int64 `json:"rotations"`
	// Eliminated lists the stages in cascade order (fft, envelope, kernel),
	// every stage present even when it eliminated nothing.
	Eliminated []StageCount `json:"eliminated"`
	// Survivors is the number of rotations whose exact distance was computed
	// to completion (obs FullDistEvals).
	Survivors int64 `json:"survivors"`
	Cancelled int64 `json:"cancelled,omitempty"`
}

// FromCounts derives the waterfall from a counter delta. The mapping follows
// the obs reconciliation identity term by term — fft eliminates
// FFTRejectedMembers, the envelope stage eliminates both internal-wedge and
// singleton-wedge LB prunes, the kernel stage eliminates early abandons —
// so a waterfall built from a reconciling delta reconciles by construction.
func FromCounts(c obs.Counts) Waterfall {
	return Waterfall{
		Comparisons: c.Comparisons,
		Rotations:   c.Rotations,
		Eliminated: []StageCount{
			{Stage: StageFFT, Members: c.FFTRejectedMembers},
			{Stage: StageEnvelope, Members: c.WedgePrunedMembers + c.WedgeLeafLBPrunes},
			{Stage: StageKernel, Members: c.EarlyAbandons},
		},
		Survivors: c.FullDistEvals,
		Cancelled: c.CancelledMembers,
	}
}

// Reconciles reports whether the eliminated stages, survivors and cancelled
// rotations account for every rotation covered — the waterfall form of the
// obs.Counts identity.
func (w Waterfall) Reconciles() bool {
	total := w.Survivors + w.Cancelled
	for _, s := range w.Eliminated {
		total += s.Members
	}
	return w.Rotations == total
}

// Stage returns the eliminated-member count of the named stage (0 when the
// stage is absent).
func (w Waterfall) Stage(name string) int64 {
	for _, s := range w.Eliminated {
		if s.Stage == name {
			return s.Members
		}
	}
	return 0
}
