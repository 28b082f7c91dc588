package cluster

// Frontier's returned order decides H-Merge's LIFO visit order and therefore
// num_steps, so the typed heap must reproduce the array layout of the
// implementation it replaced, which ran on the standard library's heap
// package. That implementation lives on here as the reference, with the
// library's Push, Pop, up and down transcribed below it (go1.24, unchanged
// but for the names) so that this directory no longer imports the package.

import (
	"reflect"
	"testing"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/synth"
	"lbkeogh/internal/ts"
)

type refFrontierHeap struct {
	ids     []int
	heights []float64
}

func (h *refFrontierHeap) Len() int { return len(h.ids) }
func (h *refFrontierHeap) Less(i, j int) bool {
	if h.heights[i] != h.heights[j] {
		return h.heights[i] > h.heights[j]
	}
	return h.ids[i] > h.ids[j]
}
func (h *refFrontierHeap) Swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.heights[i], h.heights[j] = h.heights[j], h.heights[i]
}
func (h *refFrontierHeap) Push(x any) {
	p := x.([2]float64)
	h.ids = append(h.ids, int(p[0]))
	h.heights = append(h.heights, p[1])
}
func (h *refFrontierHeap) Pop() any {
	n := len(h.ids) - 1
	id := h.ids[n]
	h.ids = h.ids[:n]
	h.heights = h.heights[:n]
	return id
}

func refHeapPush(h *refFrontierHeap, x any) {
	h.Push(x)
	refHeapUp(h, h.Len()-1)
}

func refHeapPop(h *refFrontierHeap) any {
	n := h.Len() - 1
	h.Swap(0, n)
	refHeapDown(h, 0, n)
	return h.Pop()
}

func refHeapUp(h *refFrontierHeap, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

func refHeapDown(h *refFrontierHeap, i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.Less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		i = j
	}
	return i > i0
}

func refFrontier(d *Dendrogram, k int) []int {
	if k < 1 {
		k = 1
	}
	if k > d.NLeaves {
		k = d.NLeaves
	}
	h := &refFrontierHeap{}
	refHeapPush(h, [2]float64{float64(d.Root()), d.Nodes[d.Root()].Height})
	for h.Len() < k {
		id := refHeapPop(h).(int)
		n := d.Nodes[id]
		if n.Left < 0 {
			refHeapPush(h, [2]float64{float64(id), -1})
			break
		}
		refHeapPush(h, [2]float64{float64(n.Left), d.Nodes[n.Left].Height})
		refHeapPush(h, [2]float64{float64(n.Right), d.Nodes[n.Right].Height})
	}
	out := make([]int, len(h.ids))
	copy(out, h.ids)
	return out
}

func checkFrontierAgainstReference(t *testing.T, name string, d *Dendrogram) {
	t.Helper()
	var ks []int
	for k := 0; k <= d.NLeaves+1; k++ {
		if got, want := d.Frontier(k), refFrontier(d, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Frontier(%d) = %v, reference %v", name, k, got, want)
		}
		if k%3 != 1 {
			ks = append(ks, k)
		}
	}
	// One walk through an ascending list stops at each cut a walk of its own
	// would have reached.
	for i, got := range d.Frontiers(ks) {
		if want := refFrontier(d, ks[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Frontiers(%v)[%d] = %v, reference %v", name, ks, i, got, want)
		}
	}
}

func TestFrontierMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		m := 2 + int(seed*7%60)
		_, df := testDistances(seed, m, 16)
		checkFrontierAgainstReference(t, "random", Agglomerative(m, df))
	}
	// The case the search runs on: the rotations of one shape, whose
	// circulant distance matrix is full of ties.
	point := synth.ProjectilePoints(5, 1, 251)[0]
	rots := make([][]float64, len(point))
	for i := range rots {
		rots[i] = ts.Rotate(point, i)
	}
	df := func(i, j int) float64 { return dist.Euclidean(rots[i], rots[j], nil) }
	checkFrontierAgainstReference(t, "rotations", Agglomerative(len(rots), df))
}
