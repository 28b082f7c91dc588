package lbkeogh

import (
	"fmt"
	"math"

	"lbkeogh/internal/cluster"
	"lbkeogh/internal/core"
	"lbkeogh/internal/ts"
)

// Motif is the closest pair in a collection under a rotation-invariant
// measure — the shape-mining primitive the paper lists among its
// applications ("cluster, classify and discover motifs").
type Motif struct {
	// I, J index the two closest series.
	I, J int
	// Dist is their exact rotation-invariant distance.
	Dist float64
	// Rotation aligns series I onto series J.
	Rotation Rotation
}

// miningInput checks db and resolves the options for it (strategy and K
// tuning are internal to the scan): the row check every search structure
// makes and NewQuery's reading of the options, against db's series length.
func miningInput(db []Series, m Measure, opts []QueryOption) (int, core.Options, error) {
	if err := m.validate(); err != nil {
		return 0, core.Options{}, err
	}
	n, err := ts.CheckRows(db, "database series")
	if err != nil {
		return 0, core.Options{}, fmt.Errorf("lbkeogh: %w", err)
	}
	_, copts, err := resolveOptions(opts, n)
	return n, copts, err
}

// ClosestPair returns the exact motif of db: the pair of series with the
// smallest rotation-invariant distance under m. Options WithMirrorInvariance
// and WithMaxRotationDegrees apply.
//
// One rotation set is built per series, and the remaining suffix is scanned
// with the global best-so-far as the abandoning threshold, so later rows get
// cheaper as the motif distance tightens. The first comparison, (0, 1)
// under +Inf, sets the motif: ts.CheckRows refuses the rows whose distances
// could overflow to +Inf.
func ClosestPair(db []Series, m Measure, opts ...QueryOption) (Motif, error) {
	n, copts, err := miningInput(db, m, opts)
	if err != nil {
		return Motif{}, err
	}
	if len(db) < 2 {
		return Motif{}, fmt.Errorf("lbkeogh: closest pair needs >= 2 series")
	}
	best := Motif{I: 0, J: 1, Dist: math.Inf(1)}
	var member core.Member
	for i := 0; i < len(db)-1; i++ {
		s := rowSearcher(db[i], m, copts)
		for j := i + 1; j < len(db); j++ {
			if match := s.MatchSeries(db[j], best.Dist, nil); match.Found() && match.Dist < best.Dist {
				best.I, best.J, best.Dist, member = i, j, match.Dist, match.Member
			}
		}
	}
	best.Rotation = Rotation{
		Shift:    member.Shift,
		Mirrored: member.Mirrored,
		Degrees:  float64(member.Shift) / float64(n) * 360,
	}
	return best, nil
}

// rowSearcher is the H-Merge searcher every mining operation compares one
// row of the collection through.
func rowSearcher(x Series, m Measure, opts core.Options) *core.Searcher {
	return core.NewSearcher(core.NewRotationSet(x, opts, nil), m.kern, core.Wedge, core.SearcherConfig{})
}

// distanceMatrix computes the full symmetric m×m exact rotation-invariant
// distance matrix with a zero diagonal. The rotation set of each row is
// built once and amortized over the whole row.
func distanceMatrix(db []Series, m Measure, opts core.Options) [][]float64 {
	out := make([][]float64, len(db))
	for i := range out {
		out[i] = make([]float64, len(db))
	}
	for i := range db {
		s := rowSearcher(db[i], m, opts)
		for j := i + 1; j < len(db); j++ {
			d := s.MatchSeries(db[j], -1, nil).Dist
			out[i][j], out[j][i] = d, d
		}
	}
	return out
}

// Dendrogram is the merge tree of a hierarchical clustering: Leaves()
// recovers cluster membership at any granularity.
type Dendrogram struct {
	d *cluster.Dendrogram
}

// Clusters returns the indices of db partitioned into k groups (the
// dendrogram cut of Figure 10): one slice of series indices per cluster.
func (dd *Dendrogram) Clusters(k int) [][]int {
	front := dd.d.Frontier(k)
	out := make([][]int, len(front))
	for i, id := range front {
		out[i] = dd.d.Leaves(id)
	}
	return out
}

// Height returns the merge distances of the dendrogram's internal nodes in
// creation order (useful for choosing k).
func (dd *Dendrogram) Heights() []float64 { return dd.d.CutHeights() }

// Render draws the dendrogram as indented ASCII with the given leaf labels
// (nil renders indices) — the textual analogue of the paper's clustering
// figures.
func (dd *Dendrogram) Render(labels []string) string { return dd.d.Render(labels) }

// Cluster hierarchically clusters db under the exact rotation-invariant
// measure m with group-average linkage — the engine behind the paper's
// skull, reptile and butterfly dendrograms (Figures 3, 16, 17, 18).
func Cluster(db []Series, m Measure, opts ...QueryOption) (*Dendrogram, error) {
	_, copts, err := miningInput(db, m, opts)
	if err != nil {
		return nil, err
	}
	d := distanceMatrix(db, m, copts)
	return &Dendrogram{d: cluster.Agglomerative(len(db), func(i, j int) float64 { return d[i][j] })}, nil
}

// Medoid returns the index of the most central series of db — smallest sum
// of rotation-invariant distances to all others, the cluster-representative
// primitive of k-medoids-style shape mining.
func Medoid(db []Series, m Measure, opts ...QueryOption) (int, error) {
	_, copts, err := miningInput(db, m, opts)
	if err != nil {
		return -1, err
	}
	best, bestSum := -1, math.Inf(1)
	for i, row := range distanceMatrix(db, m, copts) {
		var sum float64
		for _, d := range row {
			sum += d
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return best, nil
}

// Discord returns the index of the most anomalous series of db — the one
// whose nearest neighbour is furthest away — and that nearest-neighbour
// distance. This is the outlier-scan primitive used on star light curves
// (Section 2.4, reference [29]).
func Discord(db []Series, m Measure, opts ...QueryOption) (int, float64, error) {
	_, copts, err := miningInput(db, m, opts)
	if err != nil {
		return -1, 0, err
	}
	if len(db) < 2 {
		return -1, 0, fmt.Errorf("lbkeogh: discord needs >= 2 series")
	}
	bestIdx, bestNN := -1, -1.0
	for i := range db {
		s := rowSearcher(db[i], m, copts)
		nn := math.Inf(1)
		for j := range db {
			if j == i {
				continue
			}
			if match := s.MatchSeries(db[j], nn, nil); match.Found() && match.Dist < nn {
				nn = match.Dist
			}
		}
		if nn > bestNN {
			bestIdx, bestNN = i, nn
		}
	}
	return bestIdx, bestNN, nil
}
