package wedge

// TreeStats is a structural summary of a built wedge hierarchy.
type TreeStats struct {
	// MaxDepth is the deepest leaf's dendrogram depth (root = 0).
	MaxDepth int `json:"max_depth"`
}

// Stats walks the built hierarchy's leaves and returns its summary. It reads
// only what the build fixed, so it is safe to call concurrently with
// searches.
func (t *Tree) Stats() TreeStats {
	var st TreeStats
	for i := range t.members {
		st.MaxDepth = max(st.MaxDepth, t.depth[i])
	}
	return st
}
