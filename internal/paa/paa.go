// Package paa implements Piecewise Aggregate Approximation and the
// envelope-box lower bound used to prune disk reads for DTW queries
// (Section 4.2; the paper defers the details to Vlachos et al. [37], which
// indexes envelope MBRs against PAA-reduced candidates).
//
// A series of length n is reduced to D segment means. A query wedge's
// envelope is reduced to D boxes [min L, max U] per segment. For a candidate
// segment with mean c̄ and width w, Cauchy-Schwarz gives
//
//	sum_{i in seg} dist²(c_i, [L_i, U_i]) >= w · dist²(c̄, [L̂, Û]),
//
// so the box bound lower-bounds LB_Keogh, which lower-bounds ED (and, with a
// DTW-expanded envelope, DTW). Everything admissible stays admissible.
package paa

import (
	"fmt"
	"math"

	"lbkeogh/internal/envelope"
)

// Bounds returns the D+1 segment boundaries for splitting a length-n series
// into D near-equal segments: segment s covers [bounds[s], bounds[s+1]).
func Bounds(n, D int) []int {
	if D < 1 || n < 1 {
		panic(fmt.Sprintf("paa: invalid n=%d D=%d", n, D))
	}
	if D > n {
		D = n
	}
	out := make([]int, D+1)
	for s := 0; s <= D; s++ {
		out[s] = s * n / D
	}
	return out
}

// Reduce returns the D segment means of x. D is clamped to len(x).
func Reduce(x []float64, D int) []float64 {
	b := Bounds(len(x), D)
	out := make([]float64, len(b)-1)
	for s := 0; s < len(out); s++ {
		var sum float64
		for i := b[s]; i < b[s+1]; i++ {
			sum += x[i]
		}
		out[s] = sum / float64(b[s+1]-b[s])
	}
	return out
}

// Box is the PAA reduction of an envelope: per segment, the mean of L and
// the mean of U. Means (rather than min/max) are admissible by the same
// Cauchy-Schwarz argument — if the candidate's segment mean exceeds the
// segment mean of U, then sum_i (c_i-U_i)²[c_i>U_i] >= sum_i max(0, c_i-U_i)
// clipped appropriately >= w·(c̄-Ū)² — and are substantially tighter (this
// is the envelope transform of Zhu & Shasha, which ref. [37] builds on).
type Box struct {
	Lo, Hi []float64
}

// ReduceEnvelope returns the D-segment PAA means of env's U and L.
func ReduceEnvelope(env envelope.Envelope, D int) Box {
	return Box{Lo: Reduce(env.L, D), Hi: Reduce(env.U, D)}
}

// LowerBound returns the admissible lower bound of LB_Keogh(c, env) given
// only the PAA means of c and the envelope box, for original length n.
// cMeans and box must share the same segment count derived from (n, D).
//
// This is a documented root-space API boundary: the index compares the
// returned bound against root-space distances, so the Sqrt happens here.
//
//lbkeogh:rootspace
//lbkeogh:lowerbound
func LowerBound(cMeans []float64, box Box, n int) float64 {
	D := len(cMeans)
	if len(box.Lo) != D || len(box.Hi) != D {
		panic(fmt.Sprintf("paa: box segments %d != means %d", len(box.Lo), D))
	}
	b := Bounds(n, D)
	var acc float64
	for s := 0; s < D; s++ {
		w := float64(b[s+1] - b[s])
		if cMeans[s] > box.Hi[s] {
			d := cMeans[s] - box.Hi[s]
			acc += w * d * d
		} else if cMeans[s] < box.Lo[s] {
			d := cMeans[s] - box.Lo[s]
			acc += w * d * d
		}
	}
	return math.Sqrt(acc)
}

// Widths returns the D segment widths of a length-n series (D clamped to n),
// the weights LowerBound applies; MinLowerBound takes them precomputed.
func Widths(n, D int) []float64 {
	b := Bounds(n, D)
	w := make([]float64, len(b)-1)
	for s := range w {
		w[s] = float64(b[s+1] - b[s])
	}
	return w
}

// MinLowerBound returns the smallest LowerBound of cMeans against each box —
// the index-space bound against a whole wedge set W (the paper: "search for
// the best match to K envelopes in the wedge set W"). The min of admissible
// lower bounds is itself admissible for every member of every box.
//
// w is Widths(n, len(cMeans)), computed once by the caller: the bound runs
// once per stored row and allocates nothing. The result is bit for bit the
// minimum of the per-box LowerBound values: each box accumulates the same
// terms in the same order, a box stops once its partial sum reaches the
// smallest sum so far (every term is non-negative, so it cannot become the
// minimum), and Sqrt, correctly rounded and monotone, is taken once at the
// end.
//
//lbkeogh:rootspace
//lbkeogh:lowerbound
func MinLowerBound(cMeans []float64, boxes []Box, w []float64) float64 {
	best := math.Inf(1)
	w = w[:len(cMeans)]
	for _, bx := range boxes {
		lo, hi := bx.Lo[:len(cMeans)], bx.Hi[:len(cMeans)]
		var acc float64
		for s, c := range cMeans {
			if c > hi[s] {
				d := c - hi[s]
				acc += w[s] * d * d
			} else if c < lo[s] {
				d := c - lo[s]
				acc += w[s] * d * d
			}
			if acc >= best {
				break
			}
		}
		if acc < best {
			best = acc
		}
	}
	return math.Sqrt(best)
}
