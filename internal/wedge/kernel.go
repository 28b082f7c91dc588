// Package wedge implements the paper's central machinery: hierarchically
// nested wedges over a set of candidate series (the query's rotations),
// the H-Merge search algorithm (Table 6), and the dynamic wedge-set-size
// controller (Section 4.1, final paragraphs).
package wedge

import (
	"lbkeogh/internal/dist"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/stats"
)

// Kernel abstracts a distance measure for H-Merge: an exact (early
// abandoning) pairwise distance plus an admissible lower bound against a
// wedge that encloses a group of candidates. The three kernels mirror the
// three measures the paper supports: Euclidean, DTW and LCSS.
//
// All kernels are phrased as distances to be minimized; LCSS (a similarity)
// is wrapped in its normalized distance form 1 - LCSS/n, with the envelope
// match-count bound converted accordingly (the paper: "the minor changes
// include reversing some inequality signs since LCSS is a similarity
// measure").
type Kernel interface {
	// Distance returns the exact distance between q and c, abandoning once
	// it can prove the result exceeds r (r < 0 disables abandoning). The
	// boolean reports abandonment, in which case the distance is +Inf.
	Distance(q, c []float64, r float64, cnt *stats.Tally) (float64, bool)

	// LowerBound returns an admissible lower bound of Distance(q, m) for
	// every member m of the wedge env, abandoning once the bound provably
	// exceeds r. env must already include this kernel's widening (Radius).
	LowerBound(q []float64, env envelope.Envelope, r float64, cnt *stats.Tally) (float64, bool)

	// Radius is the envelope widening this kernel requires: 0 for Euclidean,
	// the Sakoe-Chiba band R for DTW, the matching window delta for LCSS.
	Radius() int

	// Leaf is H-Merge's whole cascade at a singleton wedge: member c, env
	// its envelope widened by Radius, r the threshold (r < 0: unbounded), cb
	// scratch of length len(q)+1 the kernel may overwrite. It returns c's
	// exact distance and LeafExact, or +Inf and the stage that disposed of c.
	Leaf(q, c []float64, env envelope.Envelope, r float64, cb []float64, cnt *stats.Tally) (float64, LeafOutcome)

	// Name identifies the kernel in diagnostics.
	Name() string
}

// LeafOutcome is how a Kernel's Leaf disposed of one member.
type LeafOutcome uint8

const (
	// LeafExact: the exact distance was computed.
	LeafExact LeafOutcome = iota
	// LeafLBPruned: the lower bound against the member's wedge reached r.
	LeafLBPruned
	// LeafAbandoned: the exact kernel abandoned above r.
	LeafAbandoned
)

// distanceOutcome maps an exact kernel's abandon flag onto a LeafOutcome.
func distanceOutcome(d float64, abandoned bool) (float64, LeafOutcome) {
	if abandoned {
		return d, LeafAbandoned
	}
	return d, LeafExact
}

// lbPrunes reports whether a lower bound disposes of a member under r.
func lbPrunes(lb float64, abandoned bool, r float64) bool {
	return abandoned || (r >= 0 && lb >= r)
}

// ED is the Euclidean-distance kernel.
type ED struct{}

// Distance implements Kernel using EA_Euclidean_Dist (Table 1).
//
//lbkeogh:hotpath
func (ED) Distance(q, c []float64, r float64, cnt *stats.Tally) (float64, bool) {
	return dist.EuclideanEA(q, c, r, cnt)
}

// LowerBound implements Kernel using EA_LB_Keogh (Table 5).
//
//lbkeogh:hotpath
//lbkeogh:lowerbound
func (ED) LowerBound(q []float64, env envelope.Envelope, r float64, cnt *stats.Tally) (float64, bool) {
	return envelope.LBKeogh(q, env, r, cnt)
}

// Radius implements Kernel.
func (ED) Radius() int { return 0 }

// Leaf implements Kernel: LB_Keogh against a singleton wedge degenerates to
// the Euclidean distance, so the leaf computes that distance once.
//
//lbkeogh:hotpath
func (ED) Leaf(q, c []float64, _ envelope.Envelope, r float64, _ []float64, cnt *stats.Tally) (float64, LeafOutcome) {
	return distanceOutcome(dist.EuclideanEA(q, c, r, cnt))
}

// Name implements Kernel.
func (ED) Name() string { return "euclidean" }

// DTW is the banded dynamic-time-warping kernel with Sakoe-Chiba radius R.
type DTW struct {
	R int
}

// Distance implements Kernel using early-abandoning banded DTW.
//
//lbkeogh:hotpath
func (k DTW) Distance(q, c []float64, r float64, cnt *stats.Tally) (float64, bool) {
	return dist.DTWEA(q, c, k.R, r, nil, cnt)
}

// LowerBound implements Kernel using LB_KeoghDTW (Proposition 2); env must
// be widened by R.
//
//lbkeogh:hotpath
//lbkeogh:lowerbound
func (k DTW) LowerBound(q []float64, env envelope.Envelope, r float64, cnt *stats.Tally) (float64, bool) {
	return envelope.LBKeogh(q, env, r, cnt)
}

// Radius implements Kernel.
func (k DTW) Radius() int { return k.R }

// Leaf implements Kernel: LB_Keogh against the member's wedge widened by R,
// accumulated from the last position back so that cb keeps its suffix sums,
// then the banded DTW charging every row it has not reached cb's bound on
// the rest (rowMin + cb[i+1] > r² abandons; DESIGN.md §6). Both stages test
// against r widened by suffixSlack: a sum taken in reverse order may round
// a few ulps above the DP's forward one, and a member tied with r to within
// that must not be dismissed. A distance in [r, r·slack] comes back
// LeafExact, and H-Merge's d < best keeps it out.
//
//lbkeogh:hotpath
func (k DTW) Leaf(q, c []float64, env envelope.Envelope, r float64, cb []float64, cnt *stats.Tally) (float64, LeafOutcome) {
	r *= suffixSlack(len(q))
	if lb, abandoned := envelope.LBKeoghSuffix(q, env, r, cb, cnt); lbPrunes(lb, abandoned, r) {
		return dist.Inf, LeafLBPruned
	}
	return distanceOutcome(dist.DTWEA(q, c, k.R, r, cb, cnt))
}

// Name implements Kernel.
func (k DTW) Name() string { return "dtw" }

// suffixSlack is the factor that covers the rounding between DTW.Leaf's
// reverse-order suffix sums and the DP's forward-order path sums over n
// positions: each of the two sums is within (2n)·2⁻⁵³ of the exact one
// (relative, non-negative terms), so squared thresholds 8(n+1)·2⁻⁵³ apart,
// 4(n+1)·2⁻⁵³ in root space, cannot be crossed by rounding alone.
func suffixSlack(n int) float64 { return 1 + float64(4*(n+1))*0x1p-53 }

// LCSS is the Longest-Common-SubSequence kernel in normalized distance form
// 1 - LCSS/n, with matching window Delta and threshold Eps.
type LCSS struct {
	Delta int
	Eps   float64
}

// Distance implements Kernel. LCSS has no incremental early-abandon in our
// implementation; it computes the exact value and reports abandonment if the
// result exceeds r, which preserves correctness (abandonment is only an
// optimization).
//
//lbkeogh:hotpath
func (k LCSS) Distance(q, c []float64, r float64, cnt *stats.Tally) (float64, bool) {
	d := dist.LCSSDist(q, c, k.Delta, k.Eps, cnt)
	if r >= 0 && d > r {
		return dist.Inf, true
	}
	return d, false
}

// LowerBound implements Kernel: the envelope match count bounds the LCSS
// similarity from above, so 1 - count/n bounds the distance from below.
//
//lbkeogh:hotpath
//lbkeogh:lowerbound
func (k LCSS) LowerBound(q []float64, env envelope.Envelope, r float64, cnt *stats.Tally) (float64, bool) {
	//lint:ignore lbmono intentional inversion, audited: LCSS is a similarity, so the envelope match-count UPPER bound converts to an admissible distance lower bound via 1 - count/n (the paper's "reversing some inequality signs")
	ub := envelope.LCSSUpperBound(q, env, k.Eps, cnt)
	n := len(q)
	if n == 0 {
		return 0, false
	}
	lb := 1 - float64(ub)/float64(n)
	if r >= 0 && lb > r {
		return dist.Inf, true
	}
	return lb, false
}

// Radius implements Kernel.
func (k LCSS) Radius() int { return k.Delta }

// Leaf implements Kernel: the match-count bound, then the distance.
//
//lbkeogh:hotpath
func (k LCSS) Leaf(q, c []float64, env envelope.Envelope, r float64, _ []float64, cnt *stats.Tally) (float64, LeafOutcome) {
	if lb, abandoned := k.LowerBound(q, env, r, cnt); lbPrunes(lb, abandoned, r) {
		return dist.Inf, LeafLBPruned
	}
	return distanceOutcome(k.Distance(q, c, r, cnt))
}

// Name implements Kernel.
func (k LCSS) Name() string { return "lcss" }
