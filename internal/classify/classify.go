// Package classify implements the 1-nearest-neighbour classification
// protocol of the paper's effectiveness experiments (Section 5.1, Table 8):
// leave-one-out evaluation under rotation-invariant Euclidean distance and
// DTW, with the DTW warping-window width R learned from training data only.
package classify

import (
	"context"
	"fmt"
	"math"

	"lbkeogh/internal/core"
	"lbkeogh/internal/wedge"
)

// NearestNeighbour returns the index of the series in db (excluding
// `exclude`; pass -1 to exclude nothing) with the smallest rotation-invariant
// kernel distance to q, ties towards the lowest index, along with that
// distance (-1 and +Inf when no series is at a finite distance).
func NearestNeighbour(q []float64, db [][]float64, exclude int, kern wedge.Kernel, opts core.Options) (int, float64) {
	rs := core.NewRotationSet(q, opts, nil)
	s := core.NewSearcher(rs, kern, core.Wedge, core.SearcherConfig{})
	c := core.NewCollector(1, math.Inf(1))
	_ = s.Begin(context.Background()) // uncancellable: never errs
	for j, x := range db {
		if j != exclude {
			_ = s.Offer(j, x, c)
		}
	}
	s.End()
	best := c.Best()
	return best.Index, best.Dist
}

// LeaveOneOut runs leave-one-out 1-NN classification over the labelled
// dataset and returns the error rate in [0, 1] and the raw error count —
// the protocol behind every row of Table 8.
func LeaveOneOut(series [][]float64, labels []int, kern wedge.Kernel, opts core.Options) (float64, int) {
	if len(series) != len(labels) {
		panic(fmt.Sprintf("classify: %d series vs %d labels", len(series), len(labels)))
	}
	if len(series) < 2 {
		panic("classify: need at least two instances")
	}
	errs := 0
	for i, q := range series {
		nn, _ := NearestNeighbour(q, series, i, kern, opts)
		if labels[nn] != labels[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(series)), errs
}

// BestWarpingWindow selects the Sakoe-Chiba radius R in candidates that
// minimizes leave-one-out error on the given (training) data — the paper's
// "single parameter ... learned by looking only at the training data". Ties
// prefer the smaller R (cheaper and less prone to pathological warping).
func BestWarpingWindow(series [][]float64, labels []int, candidates []int, opts core.Options) (bestR int, bestErr float64) {
	if len(candidates) == 0 {
		panic("classify: no warping-window candidates")
	}
	bestR, bestErr = candidates[0], math.Inf(1)
	for _, r := range candidates {
		e, _ := LeaveOneOut(series, labels, wedge.DTW{R: r}, opts)
		if e < bestErr {
			bestR, bestErr = r, e
		}
	}
	return bestR, bestErr
}

// LeaveOneOutAligned runs leave-one-out 1-NN classification with NO rotation
// search: every pair is compared at the alignment it is stored in. Combined
// with a landmarking pre-pass (e.g. ts.AlignToMax), this is the paper's
// landmark baseline — the Yoga experiment of Section 5.1, where replacing
// human-annotated landmarks with exact rotation invariance cut the error by
// a factor of three.
func LeaveOneOutAligned(series [][]float64, labels []int, kern wedge.Kernel) (float64, int) {
	if len(series) != len(labels) {
		panic(fmt.Sprintf("classify: %d series vs %d labels", len(series), len(labels)))
	}
	if len(series) < 2 {
		panic("classify: need at least two instances")
	}
	errs := 0
	for i, q := range series {
		best, bestJ := math.Inf(1), -1
		for j, x := range series {
			if j == i {
				continue
			}
			d, abandoned := kern.Distance(q, x, best, nil)
			if !abandoned && d < best {
				best, bestJ = d, j
			}
		}
		if labels[bestJ] != labels[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(series)), errs
}

// Split partitions a labelled dataset into train and test halves
// deterministically (even indices train, odd test), preserving class balance
// for round-robin-labelled datasets.
func Split(series [][]float64, labels []int) (trainS [][]float64, trainL []int, testS [][]float64, testL []int) {
	for i := range series {
		if i%2 == 0 {
			trainS = append(trainS, series[i])
			trainL = append(trainL, labels[i])
		} else {
			testS = append(testS, series[i])
			testL = append(testL, labels[i])
		}
	}
	return
}
