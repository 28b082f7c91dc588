// Package vptree implements a vantage-point tree over Euclidean feature
// vectors, used to index the rotation-invariant Fourier-magnitude features
// (Section 4.2, Table 7 of the paper, following Vlachos et al. [38]).
//
// The tree partitions the metric space with balls around vantage points.
// Search queues subtrees and points in one best-first queue, so the caller
// receives points in exact ascending order of feature distance — each with
// that distance, an admissible lower bound of its true distance — and
// nothing bounded at or above the best-so-far is touched.
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
	// slack is the relative rounding margin of a subtree bound. A computed
	// distance is within a relative (d/2+2)·2⁻⁵³ or so of the exact one, so
	// the triangle-inequality bound |dq − median| can round above a
	// contained point's computed distance by up to about
	// (d+6)·2⁻⁵³·(dq + median); 4(d+4)·2⁻⁵³ covers that with room to spare.
	slack float64
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
	t := &Tree{points: points, leafSize: leafSize, slack: float64(4*(d+4)) * 0x1p-53}
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

func euclid(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return math.Sqrt(acc)
}

// Search is a best-first nearest-neighbour search from query feature vector
// q that hands its caller the points in exact ascending order of feature
// distance. visit(id, featureDist, bsf) is called with the exact
// feature-space distance (itself a lower bound of the true distance in our
// usage) and must return the possibly-improved best-so-far. Search returns
// the final best-so-far.
//
// Subtrees and points share one queue (type queue): a leaf's items and a
// vantage point are queued under their feature distance when the node opens,
// and a point is visited only when it leaves the queue, so no point is
// visited while a nearer one, or an unopened subtree that may hold one,
// waits. The visits are therefore every point sorted by (featureDist, id),
// cut where featureDist reaches the shrinking best-so-far: a 1-NN probe
// visits exactly the points bounded below the answer (ties at equality
// aside), which no exact search by the same bound can undercut.
//
// bsf0 seeds the best-so-far (+Inf for an unbounded search). Whatever is
// bounded at or above the best-so-far is never queued, and the search ends
// when the smallest queued key reaches it, so a visit that returns -Inf ends
// the search.
func (t *Tree) Search(q []float64, bsf0 float64, visit func(id int, featureDist, bsf float64) float64) float64 {
	bsf := bsf0
	var buf [64]entry // the queue of a selective search fits; a wide one grows off it
	h := queue(buf[:0])
	h.push(subtree(0, t.root))
	for len(h) > 0 {
		e := h.pop()
		if e.key >= bsf {
			break // smallest outstanding bound cannot improve
		}
		ref, isPoint := e.target()
		if isPoint {
			bsf = visit(ref, e.key, bsf)
			continue
		}
		nd := &t.nodes[ref]
		if nd.vp < 0 {
			for _, id := range nd.items {
				if fd := euclid(q, t.points[id]); fd < bsf {
					h.push(point(fd, id))
				}
			}
			continue
		}
		dq := euclid(q, t.points[nd.vp])
		if dq < bsf {
			h.push(point(dq, nd.vp))
		}
		// The triangle inequality bounds a child's points by |dq − median|
		// (never below the node's own bound), shaved by the rounding margin
		// so that no computed point distance falls under its subtree's key.
		slack := (dq + nd.median) * t.slack
		if b := max(e.key, dq-nd.median-slack); b < bsf {
			h.push(subtree(b, nd.inner))
		}
		if b := max(e.key, nd.median-dq-slack); b < bsf {
			h.push(subtree(b, nd.outer))
		}
	}
	return bsf
}
