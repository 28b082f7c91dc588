// Package cluster implements agglomerative hierarchical clustering with the
// nearest-neighbour-chain algorithm and the group-average (Lance-Williams)
// update.
//
// The paper (Section 4.1, Figures 9–10) derives its wedge sets from a
// hierarchical clustering of the query's rotations under group-average
// linkage: the area of a wedge is driven by the pairwise distances of the
// series inside it, so minimizing within-cluster distances minimizes wedge
// area. Cutting the dendrogram at every K yields the candidate wedge sets
// W(K) among which the dynamic controller chooses.
package cluster

import (
	"fmt"
	"math"
)

// Node is one vertex of a dendrogram. Leaves have Left == Right == -1 and
// Height 0. Internal nodes record the linkage distance at which their two
// children merged.
type Node struct {
	Left, Right int
	Height      float64
	Size        int
}

// Dendrogram is a binary merge tree over m leaves. Nodes[0..m-1] are the
// leaves in input order; Nodes[m..2m-2] are internal nodes in creation order;
// Nodes[2m-2] is the root (for m >= 1).
type Dendrogram struct {
	NLeaves int
	Nodes   []Node
}

// Agglomerative clusters m items under group-average linkage (UPGMA, the
// linkage the paper uses) given a pairwise distance function, which must be
// symmetric with d(i,i) = 0. It runs the NN-chain algorithm in O(m²) time
// and O(m²) memory (the distance matrix).
func Agglomerative(m int, d func(i, j int) float64) *Dendrogram {
	if m <= 0 {
		panic("cluster: need at least one item")
	}
	matrix := make([]float64, m*m)
	FillMatrix(matrix, m, d)
	return AgglomerativeMatrix(matrix, m)
}

// FillMatrix writes d(i, j), i < j, to entries (i, j) and (j, i) of the
// row-major m×m matrix. The diagonal is left alone: AgglomerativeMatrix
// never reads it.
func FillMatrix(matrix []float64, m int, d func(i, j int) float64) {
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			v := d(i, j)
			matrix[i*m+j] = v
			matrix[j*m+i] = v
		}
	}
}

// AgglomerativeMatrix clusters m items under group-average linkage from a
// row-major m×m distance matrix, which must be symmetric; the diagonal is
// ignored. The matrix is consumed
// (overwritten) during clustering. Distances must be finite: a neighbour
// search that finds nothing below +Inf, or compares against NaN, panics.
func AgglomerativeMatrix(matrix []float64, m int) *Dendrogram {
	if m <= 0 {
		panic("cluster: need at least one item")
	}
	if len(matrix) != m*m {
		panic(fmt.Sprintf("cluster: matrix size %d != %d", len(matrix), m*m))
	}
	dd := &Dendrogram{NLeaves: m, Nodes: make([]Node, m, 2*m-1)}
	for i := 0; i < m; i++ {
		dd.Nodes[i] = Node{Left: -1, Right: -1, Size: 1}
	}
	if m == 1 {
		return dd
	}

	// active[c] is the dendrogram node currently representing matrix slot c
	// and size[c] its leaf count; live lists the slots still in play, in
	// ascending order. The neighbour search and the Lance–Williams update
	// walk live alone, so a retired slot's stale column is never read. The
	// diagonal holds +Inf, so the tip itself cannot win a strict <. The
	// four work lists share one allocation.
	work := make([]int, 4*m)
	active, size, live, chain := work[:m], work[m:2*m], work[2*m:3*m], work[3*m:3*m:4*m]
	for i := range active {
		active[i], size[i], live[i] = i, 1, i
		matrix[i*m+i] = math.Inf(1)
	}

	for len(live) > 1 {
		if len(chain) == 0 {
			chain = append(chain, live[0])
		}
		for {
			tip := chain[len(chain)-1]
			row := matrix[tip*m : tip*m+m]
			// Find the nearest live neighbour of tip, preferring the
			// previous chain element on ties (required for termination).
			prev, best, bestDist := -1, -1, math.Inf(1)
			if len(chain) >= 2 {
				prev = chain[len(chain)-2]
				best, bestDist = prev, row[prev]
			}
			for _, j := range live {
				if v := row[j]; v < bestDist {
					best, bestDist = j, v
				}
			}
			if best < 0 || math.IsNaN(bestDist) {
				panic(fmt.Sprintf("cluster: non-finite distance: cluster %d has no nearest neighbour (NaN or +Inf in its matrix row)", active[tip]))
			}
			if best == prev {
				// Reciprocal nearest neighbours: merge tip and prev.
				chain = chain[:len(chain)-2]
				live = mergeClusters(dd, matrix, m, active, size, live, tip, prev, bestDist)
				break
			}
			chain = append(chain, best)
		}
	}
	return dd
}

// mergeClusters records the merge of slots a and b at height h, reuses slot a
// for the merged cluster and returns live without slot b.
func mergeClusters(dd *Dendrogram, matrix []float64, m int, active, size, live []int, a, b int, h float64) []int {
	newID := len(dd.Nodes)
	dd.Nodes = append(dd.Nodes, Node{
		Left:   active[a],
		Right:  active[b],
		Height: h,
		Size:   size[a] + size[b],
	})
	na, nb := float64(size[a]), float64(size[b])
	rowA, rowB := matrix[a*m:a*m+m], matrix[b*m:b*m+m]
	drop := 0
	for i, k := range live {
		if k == b {
			drop = i
			continue
		}
		if k == a {
			continue
		}
		v := (na*rowA[k] + nb*rowB[k]) / (na + nb)
		rowA[k] = v
		matrix[k*m+a] = v
	}
	active[a] = newID
	size[a] += size[b]
	copy(live[drop:], live[drop+1:])
	return live[:len(live)-1]
}

// Root returns the index of the root node.
func (d *Dendrogram) Root() int { return len(d.Nodes) - 1 }

// Leaves returns the leaf indices under node, in ascending order of discovery
// (left subtree first).
func (d *Dendrogram) Leaves(node int) []int {
	var out []int
	var walk func(int)
	walk = func(v int) {
		n := d.Nodes[v]
		if n.Left < 0 {
			out = append(out, v)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(node)
	return out
}

// cutNode is one entry of Frontier's heap: a dendrogram node and the height
// it is ordered by.
type cutNode struct {
	id     int
	height float64
}

// cutBefore orders nodes by descending merge height so that Frontier always
// splits the "fattest" cluster next.
func cutBefore(a, b cutNode) bool {
	if a.height != b.height {
		return a.height > b.height
	}
	return a.id > b.id // deterministic tie-break: later merges first
}

// cutPush and cutPop are the standard library heap's Push and Pop over a
// typed slice — the same sift sequence, so the heap's array order (which
// Frontier returns, and which decides H-Merge's visit order) is what it
// always was, without an interface box per call.
func cutPush(h []cutNode, x cutNode) []cutNode {
	h = append(h, x)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !cutBefore(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func cutPop(h []cutNode) ([]cutNode, cutNode) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && cutBefore(h[r], h[j]) {
			j = r
		}
		if !cutBefore(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n], h[n]
}

// Frontier returns the node indices of the K-cluster cut of the dendrogram:
// starting from the root, the node with the largest merge height is split
// into its children until K nodes remain. This reproduces the wedge sets of
// Figure 10 — W(K) for K = 1 is the root wedge, W(m) is the individual
// leaves. K is clamped to [1, NLeaves].
func (d *Dendrogram) Frontier(k int) []int { return d.Frontiers([]int{k})[0] }

// Frontiers returns Frontier(k) for every k of ks, which must ascend, in one
// walk from the root: the cut for a larger K continues the splitting where
// the cut for a smaller one stopped.
func (d *Dendrogram) Frontiers(ks []int) [][]int {
	out := make([][]int, len(ks))
	h := make([]cutNode, 0, min(ks[len(ks)-1], d.NLeaves)+1)
	h = cutPush(h, cutNode{d.Root(), d.Nodes[d.Root()].Height})
	for i, k := range ks {
		k = min(max(k, 1), d.NLeaves)
		for len(h) < k {
			var top cutNode
			h, top = cutPop(h)
			n := d.Nodes[top.id]
			if n.Left < 0 {
				// A leaf cannot be split; keep it and stop if everything left is
				// a leaf. (Cannot occur for k <= NLeaves, but keep it safe.)
				h = cutPush(h, cutNode{top.id, -1})
				break
			}
			h = cutPush(h, cutNode{n.Left, d.Nodes[n.Left].Height})
			h = cutPush(h, cutNode{n.Right, d.Nodes[n.Right].Height})
		}
		out[i] = make([]int, len(h))
		for j, c := range h {
			out[i][j] = c.id
		}
	}
	return out
}

// CutHeights returns the merge heights of all internal nodes in creation
// order; useful for diagnostics and for choosing cut thresholds.
func (d *Dendrogram) CutHeights() []float64 {
	out := make([]float64, 0, len(d.Nodes)-d.NLeaves)
	for _, n := range d.Nodes[d.NLeaves:] {
		out = append(out, n.Height)
	}
	return out
}
