// Package mining implements the shape data-mining subroutines the paper
// names as applications and future work (Sections 1 and 6): clustering,
// motif discovery (closest-pair search) and medoid selection, all under
// exact rotation-invariant distances and all accelerated by the same wedge
// machinery as 1-NN search.
package mining

import (
	"fmt"
	"math"

	"lbkeogh/internal/cluster"
	"lbkeogh/internal/core"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/wedge"
)

// Pair is a motif: the two database series with the smallest rotation-
// invariant distance, plus the alignment between them.
type Pair struct {
	I, J   int
	Dist   float64
	Member core.Member // rotation of series I that best matches series J
}

// ClosestPair finds the exact closest pair in db under the kernel with the
// given rotation options — the paper's "discover motifs" subroutine. It
// builds one rotation set per series and scans the remaining suffix with the
// global best-so-far as the abandoning threshold, so later rows get cheaper
// as the motif distance tightens.
func ClosestPair(db [][]float64, kern wedge.Kernel, opts core.Options, cnt *stats.Counter) (Pair, error) {
	if len(db) < 2 {
		return Pair{}, fmt.Errorf("mining: closest pair needs >= 2 series, got %d", len(db))
	}
	best := Pair{I: -1, J: -1, Dist: math.Inf(1)}
	for i := 0; i < len(db)-1; i++ {
		rs := core.NewRotationSet(db[i], opts, cnt)
		s := core.NewSearcher(rs, kern, core.Wedge, core.SearcherConfig{})
		for j := i + 1; j < len(db); j++ {
			m := s.MatchSeries(db[j], best.Dist, cnt)
			if m.Found() && m.Dist < best.Dist {
				best = Pair{I: i, J: j, Dist: m.Dist, Member: m.Member}
			}
		}
	}
	if best.I < 0 {
		// All pairwise distances were equal (e.g. identical series at
		// threshold 0): fall back to the first pair, exactly.
		rs := core.NewRotationSet(db[0], opts, cnt)
		s := core.NewSearcher(rs, kern, core.Wedge, core.SearcherConfig{})
		m := s.MatchSeries(db[1], -1, cnt)
		best = Pair{I: 0, J: 1, Dist: m.Dist, Member: m.Member}
	}
	return best, nil
}

// DistanceMatrix computes the full m×m exact rotation-invariant distance
// matrix (symmetric, zero diagonal). The rotation set of each row is built
// once and amortized over the whole row.
func DistanceMatrix(db [][]float64, kern wedge.Kernel, opts core.Options, cnt *stats.Counter) [][]float64 {
	m := len(db)
	out := make([][]float64, m)
	for i := range out {
		out[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		rs := core.NewRotationSet(db[i], opts, cnt)
		s := core.NewSearcher(rs, kern, core.Wedge, core.SearcherConfig{})
		for j := i + 1; j < m; j++ {
			match := s.MatchSeries(db[j], -1, cnt)
			out[i][j] = match.Dist
			out[j][i] = match.Dist
		}
	}
	return out
}

// Cluster runs group-average hierarchical clustering over the exact
// rotation-invariant distances and returns the dendrogram — the engine
// behind the paper's Figures 3, 16, 17 and 18.
func Cluster(db [][]float64, kern wedge.Kernel, opts core.Options, cnt *stats.Counter) *cluster.Dendrogram {
	d := DistanceMatrix(db, kern, opts, cnt)
	return cluster.Agglomerative(len(db), func(i, j int) float64 { return d[i][j] })
}

// Medoid returns the index of the series with the smallest sum of exact
// rotation-invariant distances to all others — the cluster-representative
// primitive of k-medoids-style shape mining.
func Medoid(db [][]float64, kern wedge.Kernel, opts core.Options, cnt *stats.Counter) (int, error) {
	if len(db) == 0 {
		return -1, fmt.Errorf("mining: medoid of empty set")
	}
	d := DistanceMatrix(db, kern, opts, cnt)
	best, bestSum := -1, math.Inf(1)
	for i := range d {
		var sum float64
		for j := range d[i] {
			sum += d[i][j]
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return best, nil
}

// Discord returns the index of the series with the LARGEST distance to its
// nearest neighbour — the anomaly-detection primitive used on star light
// curves ("finding outlier light curves", reference [29] of the paper).
func Discord(db [][]float64, kern wedge.Kernel, opts core.Options, cnt *stats.Counter) (int, float64, error) {
	if len(db) < 2 {
		return -1, 0, fmt.Errorf("mining: discord needs >= 2 series")
	}
	bestIdx, bestNN := -1, -1.0
	for i := range db {
		rs := core.NewRotationSet(db[i], opts, cnt)
		s := core.NewSearcher(rs, kern, core.Wedge, core.SearcherConfig{})
		nn := math.Inf(1)
		for j := range db {
			if j == i {
				continue
			}
			m := s.MatchSeries(db[j], nn, cnt)
			if m.Found() && m.Dist < nn {
				nn = m.Dist
			}
		}
		if nn > bestNN {
			bestIdx, bestNN = i, nn
		}
	}
	return bestIdx, bestNN, nil
}
