// Package rtree implements a static, bulk-loaded R-tree over points in
// D-dimensional space — the index structure of Vlachos et al. [37], which
// the paper defers to for indexing DTW envelopes. The DTW index path stores
// each object's PAA means as a point; queries arrive as sets of envelope
// boxes, and the caller supplies the admissible bound between a node's MBR
// and the query, so the tree itself stays metric-agnostic.
//
// Construction uses recursive median splits on the widest MBR dimension
// (a bulk-loading scheme with the same flavour as STR): O(m log m), perfectly
// balanced, no insertion machinery — the collection is fixed at build time,
// like everything else in this library.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"lbkeogh/internal/browse"
)

type node struct {
	lo, hi      []float64 // MBR
	left, right int       // children node ids (-1 for leaves)
	items       []int     // leaf payload
}

// Tree is a static R-tree over a fixed point set.
type Tree struct {
	points [][]float64
	nodes  []node
	root   int
}

// New bulk-loads a tree over points (all of one dimensionality) with at most
// leafSize points per leaf.
func New(points [][]float64, leafSize int) *Tree {
	if len(points) == 0 {
		panic("rtree: no points")
	}
	d := len(points[0])
	if d == 0 {
		panic("rtree: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != d {
			panic(fmt.Sprintf("rtree: point %d has dim %d, want %d", i, len(p), d))
		}
	}
	if leafSize < 1 {
		leafSize = 1
	}
	t := &Tree{points: points}
	ids := make([]int, len(points))
	for i := range ids {
		ids[i] = i
	}
	t.root = t.build(ids, leafSize)
	return t
}

// mbr computes the bounding box of the given point ids.
func (t *Tree) mbr(ids []int) (lo, hi []float64) {
	d := len(t.points[0])
	lo = make([]float64, d)
	hi = make([]float64, d)
	copy(lo, t.points[ids[0]])
	copy(hi, t.points[ids[0]])
	for _, id := range ids[1:] {
		for k, v := range t.points[id] {
			if v < lo[k] {
				lo[k] = v
			}
			if v > hi[k] {
				hi[k] = v
			}
		}
	}
	return lo, hi
}

func (t *Tree) build(ids []int, leafSize int) int {
	lo, hi := t.mbr(ids)
	if len(ids) <= leafSize {
		t.nodes = append(t.nodes, node{lo: lo, hi: hi, left: -1, right: -1, items: append([]int{}, ids...)})
		return len(t.nodes) - 1
	}
	// Split on the widest dimension at the median.
	widest := 0
	for k := range lo {
		if hi[k]-lo[k] > hi[widest]-lo[widest] {
			widest = k
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		pa, pb := t.points[ids[a]][widest], t.points[ids[b]][widest]
		if pa != pb {
			return pa < pb
		}
		return ids[a] < ids[b]
	})
	mid := len(ids) / 2
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{lo: lo, hi: hi, left: -1, right: -1})
	left := t.build(ids[:mid], leafSize)
	right := t.build(ids[mid:], leafSize)
	t.nodes[idx].left = left
	t.nodes[idx].right = right
	return idx
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return len(t.points) }

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int {
	var depth func(id int) int
	depth = func(id int) int {
		n := t.nodes[id]
		if n.left < 0 {
			return 1
		}
		l, r := depth(n.left), depth(n.right)
		if r > l {
			l = r
		}
		return 1 + l
	}
	return depth(t.root)
}

// Search drives a best-first search that hands its caller the points in
// exact ascending order of bound. bound(lo, hi) must return an admissible
// lower bound of the query's distance to ANY point inside the box [lo, hi]
// (for a single point, lo == hi == the point), and must not fall from a box
// to a box or point inside it (MinDistBox never does, rounding included).
// Every point whose bound is below the current best-so-far is passed to
// visit, which returns the possibly-improved best-so-far; subtrees whose
// bound reaches it are pruned. Search returns the final best-so-far.
//
// Subtrees and points share one queue (package browse): a leaf's points are
// queued under their bounds when it opens and visited only when they leave
// the queue, so the visits are every point sorted by (bound, id), cut where
// the bound reaches the shrinking best-so-far.
func (t *Tree) Search(bound func(lo, hi []float64) float64, bsf0 float64, visit func(id int, lb, bsf float64) float64) float64 {
	bsf := bsf0
	var buf [64]browse.Entry // the queue of a selective search fits; a wide one grows off it
	h := browse.Queue(buf[:0])
	if b := bound(t.nodes[t.root].lo, t.nodes[t.root].hi); b < bsf {
		h.Push(browse.Subtree(b, t.root))
	}
	for len(h) > 0 {
		e := h.Pop()
		if e.Key >= bsf {
			break // smallest outstanding bound cannot improve
		}
		ref, point := e.Target()
		if point {
			bsf = visit(ref, e.Key, bsf)
			continue
		}
		nd := &t.nodes[ref]
		if nd.left < 0 {
			for _, id := range nd.items {
				p := t.points[id]
				if lb := bound(p, p); lb < bsf {
					h.Push(browse.Point(lb, id))
				}
			}
			continue
		}
		for _, ch := range [2]int{nd.left, nd.right} {
			c := &t.nodes[ch]
			if b := bound(c.lo, c.hi); b < bsf {
				h.Push(browse.Subtree(b, ch))
			}
		}
	}
	return bsf
}

// MinDistBox returns the admissible squared-gap lower bound between a query
// interval box [qlo, qhi] and an MBR [lo, hi] under per-dimension weights w:
// sqrt(sum_k w[k] · gap(k)²) where gap is the separation of the intervals in
// dimension k (0 when they overlap). This is the standard MINDIST
// generalized to interval queries, matching paa.LowerBound when the MBR is a
// single point.
func MinDistBox(qlo, qhi, lo, hi, w []float64) float64 {
	var acc float64
	for k := range qlo {
		var gap float64
		switch {
		case lo[k] > qhi[k]:
			gap = lo[k] - qhi[k]
		case hi[k] < qlo[k]:
			gap = qlo[k] - hi[k]
		}
		acc += w[k] * gap * gap
	}
	return math.Sqrt(acc)
}
