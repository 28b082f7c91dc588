// Package dist implements the pairwise distance kernels of the paper:
// Euclidean distance with early abandoning (Table 1), Sakoe-Chiba-banded
// Dynamic Time Warping with early abandoning (Section 4.3, Figure 12), and
// Longest Common SubSequence similarity (Section 4.3).
//
// Every kernel threads a *stats.Tally and charges it one step per
// real-value subtraction performed, which is exactly the implementation-free
// cost metric ("num_steps") the paper's efficiency experiments report.
//
// All kernels operate on squared accumulations internally and return
// distances in "root" units, so Euclidean and DTW results are directly
// comparable (DTW with R=0 equals Euclidean distance exactly).
package dist

import (
	"fmt"
	"math"

	"lbkeogh/internal/stats"
)

// Inf is the distance value returned by early-abandoned computations,
// mirroring the paper's pseudocode which returns "infinity" to signal an
// abandonment.
var Inf = math.Inf(1)

func checkSameLength(q, c []float64) {
	if len(q) != len(c) {
		panic(fmt.Sprintf("dist: series length mismatch %d vs %d", len(q), len(c)))
	}
}

// Euclidean returns the Euclidean distance between q and c, which must have
// equal length. One step per sample is charged to cnt.
//
//lbkeogh:hotpath
func Euclidean(q, c []float64, cnt *stats.Tally) float64 {
	checkSameLength(q, c)
	var acc float64
	for i := range q {
		d := q[i] - c[i]
		acc += d * d
	}
	cnt.Add(int64(len(q)))
	return math.Sqrt(acc)
}

// EuclideanEA is EA_Euclidean_Dist from Table 1 of the paper: it computes the
// Euclidean distance between q and c but abandons as soon as the accumulated
// squared error exceeds r². On abandonment it returns (Inf, true); otherwise
// (the exact distance, false). Steps are charged for exactly the samples
// examined, so cnt reproduces the paper's num_steps bookkeeping.
//
// r < 0 is treated as "no threshold" (never abandons). r == 0 abandons on the
// first nonzero discrepancy, matching a strict best-so-far of zero.
//
//lbkeogh:hotpath
func EuclideanEA(q, c []float64, r float64, cnt *stats.Tally) (float64, bool) {
	checkSameLength(q, c)
	if r < 0 {
		return Euclidean(q, c, cnt), false
	}
	r2 := r * r
	var acc float64
	for i := range q {
		d := q[i] - c[i]
		acc += d * d
		if acc > r2 {
			cnt.Add(int64(i + 1))
			return Inf, true
		}
	}
	cnt.Add(int64(len(q)))
	return math.Sqrt(acc), false
}
