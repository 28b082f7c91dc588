// Package obs is the zero-dependency instrumentation layer for the search
// machinery. The paper's entire empirical argument (Tables 1–3, Section 5.3)
// rests on *where* cost goes — wedge prunes vs. early abandons vs. full
// distance evaluations — so every search strategy threads a *SearchStats
// record through and attributes each rotation it disposes of to exactly one
// outcome bucket. The buckets reconcile: for any sequence of comparisons,
//
//	Rotations = FullDistEvals + EarlyAbandons + WedgePrunedMembers
//	          + WedgeLeafLBPrunes + FFTRejectedMembers + CancelledMembers
//
// which is the per-bound pruning-rate telemetry that tuning cascaded lower
// bounds requires (cf. Lemire's two-pass LB_Keogh work). CancelledMembers
// is the serving-layer term: rotations left undisposed when a cooperative
// cancellation checkpoint stopped a scan mid-comparison, so even a
// deadline-bounded search accounts for every rotation it covered.
//
// Everything here is safe for concurrent use: counters are atomics, the
// histogram buckets are atomics, and the dynamic-K trajectory is guarded by
// a small mutex on a bounded slice. A nil *SearchStats is a valid no-op sink
// everywhere — uninstrumented hot paths pay one predictable branch per call.
//
// The hot paths do not touch those atomics per comparison: a searcher
// tallies its comparisons in a goroutine-confined Batch and publishes it
// once per pass (a scan, a parallel scan's worker, an index probe) —
// earlier only for a dynamic-K change, whose stamp must count the
// comparisons before it, or at once for a comparison outside any pass. A
// record therefore shows a pass when it has ended, not while it runs.
package obs

import (
	"sync"
	"sync/atomic"
)

// MaxPruneLevels bounds the per-dendrogram-level wedge-prune breakdown.
// Levels at or beyond the bound are folded into the last bucket (a balanced
// wedge hierarchy over n rotations has ~log2(n) levels; 32 covers any n that
// fits in memory).
const MaxPruneLevels = 32

// PruneLevel folds a dendrogram depth into its slot of a per-level
// breakdown: negative depths into the root's, depths at or beyond
// MaxPruneLevels into the last.
func PruneLevel(level int) int {
	if level < 0 {
		return 0
	}
	if level >= MaxPruneLevels {
		return MaxPruneLevels - 1
	}
	return level
}

// maxKTrajectory caps the recorded dynamic-K trajectory so adversarially
// jittery controllers cannot grow the record without bound.
const maxKTrajectory = 1024

// KChange is one dynamic-K controller adjustment: after Comparison
// comparisons, the settled wedge-set size moved From -> To.
type KChange struct {
	Comparison int64 `json:"comparison"`
	From       int   `json:"from"`
	To         int   `json:"to"`
}

// SearchStats accumulates the structured per-query/per-scan record. All
// methods are safe for concurrent use and on a nil receiver (the no-op sink).
type SearchStats struct {
	counters          [numCounters]atomic.Int64 // the Counts fields, in the order of Counts.fields
	wedgePruneByLevel [MaxPruneLevels]atomic.Int64

	stepsHist Histogram // per-comparison num_steps distribution

	mu    sync.Mutex
	kTraj []KChange
}

// RecordKChange appends one dynamic-K adjustment to the trajectory, stamped
// with the current comparison count. The trajectory is capped; the change
// counter keeps counting past the cap.
func (s *SearchStats) RecordKChange(from, to int) {
	if s == nil {
		return
	}
	s.counters[slotKChanges].Add(1)
	s.mu.Lock()
	if len(s.kTraj) < maxKTrajectory {
		s.kTraj = append(s.kTraj, KChange{Comparison: s.Comparisons(), From: from, To: to})
	}
	s.mu.Unlock()
}

// Steps reports the accumulated num_steps.
func (s *SearchStats) Steps() int64 {
	if s == nil {
		return 0
	}
	return s.counters[slotSteps].Load()
}

// Comparisons reports the accumulated comparison count.
func (s *SearchStats) Comparisons() int64 {
	if s == nil {
		return 0
	}
	return s.counters[slotComparisons].Load()
}

// Reset zeroes every counter, the histogram and the trajectory.
func (s *SearchStats) Reset() {
	if s == nil {
		return
	}
	for i := range s.counters {
		s.counters[i].Store(0)
	}
	for i := range s.wedgePruneByLevel {
		s.wedgePruneByLevel[i].Store(0)
	}
	s.stepsHist.Reset()
	s.mu.Lock()
	s.kTraj = nil
	s.mu.Unlock()
}

// Snapshot is a point-in-time copy of a query's (or index's, or monitor's,
// or server's) instrumentation record in plain values suitable for JSON
// export: where the search spent its num_steps and how each rotation was
// disposed of. The embedded outcome buckets reconcile (Counts.Reconciles), so
// pruning rates per bound can be read off directly — the breakdown the
// paper's Tables 1–3 and Section 5.3 are about.
type Snapshot struct {
	Counts

	// WedgePrunesByLevel breaks the internal-wedge prunes down by dendrogram
	// depth (0 = root).
	WedgePrunesByLevel []int64 `json:"wedge_prunes_by_level,omitempty"`

	// KTrajectory is the (bounded) sequence of the KChanges adjustments.
	KTrajectory []KChange `json:"k_trajectory,omitempty"`

	// PruneRate is the fraction of rotations disposed of without a full
	// distance evaluation; StepsPerComparison the paper's per-comparison
	// cost metric. Derived (see SnapshotOf) so dashboards need no arithmetic.
	PruneRate          float64 `json:"prune_rate"`
	StepsPerComparison float64 `json:"steps_per_comparison"`

	// StepsHistogram is the per-comparison num_steps distribution over
	// fixed power-of-two buckets (non-empty buckets only);
	// StepsHistogramSum its exact sum of observations, which the bucket
	// bounds alone cannot reconstruct. It can differ from Steps: the
	// histogram only sees per-comparison costs, while Steps also counts
	// work outside any comparison.
	StepsHistogram    []HistogramBucket `json:"steps_histogram,omitempty"`
	StepsHistogramSum int64             `json:"steps_histogram_sum,omitempty"`
}

// SnapshotOf lifts a counter record or delta into a Snapshot with the derived
// rates filled in — the one place they are computed.
func SnapshotOf(c Counts) Snapshot {
	snap := Snapshot{Counts: c}
	if c.Rotations > 0 {
		snap.PruneRate = 1 - float64(c.FullDistEvals)/float64(c.Rotations)
	}
	if c.Comparisons > 0 {
		snap.StepsPerComparison = float64(c.Steps) / float64(c.Comparisons)
	}
	return snap
}

// Snapshot returns a consistent-enough copy for reporting (individual fields
// are read atomically; the record may advance between field reads, which is
// fine for telemetry). A nil receiver yields a zero Snapshot.
func (s *SearchStats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	snap := SnapshotOf(s.Counts())
	maxLevel := -1
	for i := range s.wedgePruneByLevel {
		if s.wedgePruneByLevel[i].Load() != 0 {
			maxLevel = i
		}
	}
	if maxLevel >= 0 {
		snap.WedgePrunesByLevel = make([]int64, maxLevel+1)
		for i := range snap.WedgePrunesByLevel {
			snap.WedgePrunesByLevel[i] = s.wedgePruneByLevel[i].Load()
		}
	}
	s.mu.Lock()
	if len(s.kTraj) > 0 {
		snap.KTrajectory = append([]KChange(nil), s.kTraj...)
	}
	s.mu.Unlock()
	snap.StepsHistogram = s.stepsHist.Buckets()
	snap.StepsHistogramSum = s.stepsHist.Sum()
	return snap
}
