package lbkeogh

import (
	"lbkeogh/internal/index"
	"lbkeogh/internal/vptree"
	"lbkeogh/internal/wedge"
)

// IndexHealth is the structural self-report of a built Index: collection
// sizes plus the health of the VP-tree (the Euclidean path; the DTW path
// walks the PAA column and has no structure). See Index.Health.
type IndexHealth = index.Health

// VPTreeHealth reports on the vantage-point tree over Fourier-magnitude
// features: shape, balance, and the vantage-ball radius distribution.
type VPTreeHealth = vptree.Health

// WedgeTreeStats reports on a query's hierarchically nested wedge set: merge
// quality and the envelope-area profile across candidate K cuts.
type WedgeTreeStats = wedge.TreeStats

// WedgeKProfile is one candidate wedge-set size K in a WedgeTreeStats report.
type WedgeKProfile = wedge.KProfile

// Health walks the VP-tree once and returns the structural report: its
// depth/balance/radius distribution plus the collection dimensions. Safe to
// call concurrently with queries.
func (ix *Index) Health() IndexHealth { return ix.ix.Health() }

// WedgeStats reports on the query's wedge hierarchy (the W-set the wedge
// strategy searches): per-merge envelope inflation and the area profile of
// every power-of-two K cut. Useful when the wedge strategy prunes worse than
// expected — fat wedges (large merge inflation, large per-wedge area) bound
// loosely and admit everything.
func (q *Query) WedgeStats() WedgeTreeStats { return q.rs.Tree().Stats() }
