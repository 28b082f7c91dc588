package index

import "lbkeogh/internal/vptree"

// Health is the index's structural self-report: the sizes of the compressed
// representation plus the health of its one tree, the VP-tree (a DTW probe
// walks the PAA column, which has no structure to report). It backs the
// /debug/index endpoint and the shapesearch -index-health flag.
type Health struct {
	// Objects is the collection size, Len the series length, D the retained
	// dimensionality per object.
	Objects int `json:"objects"`
	Len     int `json:"len"`
	D       int `json:"d"`
	// VPTree reports on the vantage-point tree over Fourier-magnitude
	// features (the Euclidean query path).
	VPTree vptree.Health `json:"vp_tree"`
}

// Health walks the VP-tree once and returns the report. Safe to call
// concurrently with queries (the tree is immutable after build).
func (ix *Index) Health() Health {
	return Health{
		Objects: ix.store.Len(),
		Len:     ix.n,
		D:       ix.d,
		VPTree:  ix.vpt.Inspect(),
	}
}
