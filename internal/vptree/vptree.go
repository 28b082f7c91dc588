// Package vptree implements a vantage-point tree over Euclidean feature
// vectors, used to index the rotation-invariant Fourier-magnitude features
// (Section 4.2, Table 7 of the paper, following Vlachos et al. [38]).
//
// The tree partitions the metric space with balls around vantage points;
// search proceeds best-first over subtree lower bounds, so every feature
// vector whose bound reaches the caller is accompanied by an admissible
// lower bound of its true distance, and subtrees whose bound exceeds the
// best-so-far are never touched.
package vptree

import (
	"fmt"
	"math"
	"sort"

	"lbkeogh/internal/ts"
)

type node struct {
	vp           int     // vantage point id (-1 for leaf nodes)
	median       float64 // ball radius around the vantage point
	inner, outer int     // child node indices (-1 if absent)
	items        []int   // leaf payload
}

// Tree is a vantage-point tree over a fixed set of feature vectors.
type Tree struct {
	points   [][]float64
	nodes    []node
	root     int
	leafSize int
}

// New builds a tree over points (all the same dimensionality). leafSize
// bounds the size of leaf buckets (minimum 1); seed makes vantage-point
// selection deterministic.
func New(points [][]float64, leafSize int, seed int64) *Tree {
	if len(points) == 0 {
		panic("vptree: no points")
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			panic(fmt.Sprintf("vptree: point %d has dim %d, want %d", i, len(p), d))
		}
	}
	if leafSize < 1 {
		leafSize = 1
	}
	t := &Tree{points: points, leafSize: leafSize}
	ids := make([]int, len(points))
	for i := range ids {
		ids[i] = i
	}
	rng := ts.NewRand(seed)
	t.root = t.build(ids, rng)
	return t
}

func (t *Tree) build(ids []int, rng interface{ Intn(int) int }) int {
	if len(ids) <= t.leafSize {
		t.nodes = append(t.nodes, node{vp: -1, inner: -1, outer: -1, items: append([]int{}, ids...)})
		return len(t.nodes) - 1
	}
	// Pick a vantage point and split the rest at the median distance.
	vpPos := rng.Intn(len(ids))
	ids[0], ids[vpPos] = ids[vpPos], ids[0]
	vp := ids[0]
	rest := ids[1:]
	dists := make([]float64, len(rest))
	for i, id := range rest {
		dists[i] = euclid(t.points[vp], t.points[id])
	}
	order := make([]int, len(rest))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if dists[order[a]] != dists[order[b]] {
			return dists[order[a]] < dists[order[b]]
		}
		return rest[order[a]] < rest[order[b]]
	})
	mid := len(order) / 2
	median := dists[order[mid]]
	var innerIDs, outerIDs []int
	for i, oi := range order {
		if i <= mid {
			innerIDs = append(innerIDs, rest[oi])
		} else {
			outerIDs = append(outerIDs, rest[oi])
		}
	}
	if len(innerIDs) == 0 || len(outerIDs) == 0 {
		// Degenerate split (e.g. many duplicate points): stop here.
		t.nodes = append(t.nodes, node{vp: -1, inner: -1, outer: -1, items: append([]int{}, ids...)})
		return len(t.nodes) - 1
	}
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{vp: vp, median: median, inner: -1, outer: -1})
	inner := t.build(innerIDs, rng)
	outer := t.build(outerIDs, rng)
	t.nodes[idx].inner = inner
	t.nodes[idx].outer = outer
	return idx
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return len(t.points) }

func euclid(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return math.Sqrt(acc)
}

type pqItem struct {
	bound float64
	node  int
}

// pq is a hand-rolled min-heap on bound. container/heap boxes every pqItem
// in an interface on Push and Pop — an allocation per node on the path every
// indexed Euclidean query takes; the explicit sifts are container/heap's own
// (the same comparisons in the same order), so subtrees of equal bound pop in
// the order they always did and the candidate sequence is unchanged.
type pq []pqItem

func (h *pq) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].bound <= s[i].bound {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *pq) pop() pqItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].bound < s[min].bound {
			min = l
		}
		if r < n && s[r].bound < s[min].bound {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Search drives a best-first nearest-neighbour search from query feature
// vector q. For every candidate point whose admissible bound is below the
// current best-so-far, visit(id, featureDist, bsf) is called with the exact
// feature-space distance (itself a lower bound of the true distance in our
// usage) and must return the possibly-improved best-so-far. Search returns
// the final best-so-far.
//
// bsf0 seeds the best-so-far (+Inf for an unbounded search). Subtrees whose
// lower bound reaches the best-so-far are pruned without visiting, so a visit
// that returns -Inf ends the search.
func (t *Tree) Search(q []float64, bsf0 float64, visit func(id int, featureDist, bsf float64) float64) float64 {
	bsf := bsf0
	var buf [32]pqItem // the frontier of a selective search fits; a wide one grows off it
	h := append(pq(buf[:0]), pqItem{bound: 0, node: t.root})
	for len(h) > 0 {
		it := h.pop()
		if it.bound >= bsf {
			break // smallest outstanding bound cannot improve
		}
		nd := t.nodes[it.node]
		if nd.vp < 0 {
			for _, id := range nd.items {
				fd := euclid(q, t.points[id])
				if fd < bsf {
					bsf = visit(id, fd, bsf)
				}
			}
			continue
		}
		dq := euclid(q, t.points[nd.vp])
		if dq < bsf {
			bsf = visit(nd.vp, dq, bsf)
		}
		innerBound := math.Max(it.bound, dq-nd.median)
		outerBound := math.Max(it.bound, nd.median-dq)
		if innerBound < 0 {
			innerBound = 0
		}
		if outerBound < 0 {
			outerBound = 0
		}
		h.push(pqItem{bound: innerBound, node: nd.inner})
		h.push(pqItem{bound: outerBound, node: nd.outer})
	}
	return bsf
}
