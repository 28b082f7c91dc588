package lbkeogh

import (
	"fmt"

	"lbkeogh/internal/cluster"
	"lbkeogh/internal/core"
	"lbkeogh/internal/mining"
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
func ClosestPair(db []Series, m Measure, opts ...QueryOption) (Motif, error) {
	n, copts, err := miningInput(db, m, opts)
	if err != nil {
		return Motif{}, err
	}
	if len(db) < 2 {
		return Motif{}, fmt.Errorf("lbkeogh: closest pair needs >= 2 series")
	}
	p, err := mining.ClosestPair(db, m.kern, copts, nil)
	if err != nil {
		return Motif{}, err
	}
	return Motif{
		I: p.I, J: p.J, Dist: p.Dist,
		Rotation: Rotation{
			Shift:    p.Member.Shift,
			Mirrored: p.Member.Mirrored,
			Degrees:  float64(p.Member.Shift) / float64(n) * 360,
		},
	}, nil
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
	return &Dendrogram{d: mining.Cluster(db, m.kern, copts, nil)}, nil
}

// Medoid returns the index of the most central series of db — smallest sum
// of rotation-invariant distances to all others.
func Medoid(db []Series, m Measure, opts ...QueryOption) (int, error) {
	_, copts, err := miningInput(db, m, opts)
	if err != nil {
		return -1, err
	}
	return mining.Medoid(db, m.kern, copts, nil)
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
	return mining.Discord(db, m.kern, copts, nil)
}
