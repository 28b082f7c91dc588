package cluster

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/ts"
)

// naiveAgglomerative is an O(m³) reference implementation: repeatedly merge
// the pair of clusters with the smallest group-average distance, recomputing
// it from the full pairwise matrix.
func naiveAgglomerative(m int, d func(i, j int) float64) ([]float64, [][]int) {
	type clust struct {
		members []int
	}
	base := make([][]float64, m)
	for i := range base {
		base[i] = make([]float64, m)
		for j := range base[i] {
			if i != j {
				base[i][j] = d(i, j)
			}
		}
	}
	link := func(a, b clust) float64 {
		var s float64
		for _, i := range a.members {
			for _, j := range b.members {
				s += base[i][j]
			}
		}
		return s / float64(len(a.members)*len(b.members))
	}
	clusters := make([]clust, m)
	for i := range clusters {
		clusters[i] = clust{members: []int{i}}
	}
	var heights []float64
	var partitions [][]int // flattened sorted membership snapshots, one per K
	for len(clusters) > 1 {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := range clusters {
			for j := i + 1; j < len(clusters); j++ {
				if v := link(clusters[i], clusters[j]); v < best {
					bi, bj, best = i, j, v
				}
			}
		}
		heights = append(heights, best)
		merged := clust{members: append(append([]int{}, clusters[bi].members...), clusters[bj].members...)}
		clusters = append(clusters[:bj], clusters[bj+1:]...)
		clusters[bi] = merged
		groups := make([][]int, len(clusters))
		for i, c := range clusters {
			groups[i] = c.members
		}
		partitions = append(partitions, canonicalPartition(groups))
	}
	return heights, partitions
}

// canonicalPartition encodes a partition as a sorted "cluster id per element"
// labelling so two partitions compare equal iff they group identically.
func canonicalPartition(groups [][]int) []int {
	max := 0
	for _, g := range groups {
		for _, v := range g {
			if v+1 > max {
				max = v + 1
			}
		}
	}
	label := make([]int, max)
	for _, g := range groups {
		s := append([]int{}, g...)
		sort.Ints(s)
		rep := s[0]
		for _, v := range s {
			label[v] = rep
		}
	}
	return label
}

func testDistances(seed int64, m, n int) ([][]float64, func(i, j int) float64) {
	rng := ts.NewRand(seed)
	items := make([][]float64, m)
	for i := range items {
		items[i] = ts.RandomWalk(rng, n)
	}
	return items, func(i, j int) float64 { return dist.Euclidean(items[i], items[j], nil) }
}

func TestSingleItem(t *testing.T) {
	d := Agglomerative(1, func(i, j int) float64 { return 0 })
	if d.Root() != 0 || d.NLeaves != 1 {
		t.Fatalf("singleton dendrogram malformed: %+v", d)
	}
	if got := d.Frontier(1); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Frontier(1) = %v", got)
	}
}

func TestDendrogramShape(t *testing.T) {
	_, df := testDistances(1, 17, 24)
	d := Agglomerative(17, df)
	if len(d.Nodes) != 2*17-1 {
		t.Fatalf("node count = %d, want %d", len(d.Nodes), 2*17-1)
	}
	if d.Nodes[d.Root()].Size != 17 {
		t.Fatalf("root size = %d, want 17", d.Nodes[d.Root()].Size)
	}
	// Every leaf appears exactly once under the root.
	leaves := d.Leaves(d.Root())
	sort.Ints(leaves)
	for i, v := range leaves {
		if v != i {
			t.Fatalf("leaves = %v", leaves)
		}
	}
	// Sizes are consistent.
	for id := 17; id < len(d.Nodes); id++ {
		n := d.Nodes[id]
		if n.Size != d.Nodes[n.Left].Size+d.Nodes[n.Right].Size {
			t.Fatalf("node %d size inconsistent", id)
		}
		if n.Left >= id || n.Right >= id {
			t.Fatalf("node %d references a later node", id)
		}
	}
}

func TestMatchesNaiveReference(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		m := 12
		_, df := testDistances(seed+10, m, 16)
		d := Agglomerative(m, df)

		wantHeights, wantPartitions := naiveAgglomerative(m, df)

		gotHeights := d.CutHeights()
		sortedGot := append([]float64{}, gotHeights...)
		sortedWant := append([]float64{}, wantHeights...)
		sort.Float64s(sortedGot)
		sort.Float64s(sortedWant)
		for i := range sortedGot {
			if math.Abs(sortedGot[i]-sortedWant[i]) > 1e-9 {
				t.Fatalf("seed %d: heights differ: %v vs %v", seed, sortedGot, sortedWant)
			}
		}
		// Partitions at every K must match the greedy reference.
		for k := 1; k < m; k++ {
			frontier := d.Frontier(k)
			groups := make([][]int, len(frontier))
			for i, id := range frontier {
				groups[i] = d.Leaves(id)
			}
			got := canonicalPartition(groups)
			want := wantPartitions[m-1-k]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d K=%d: partition %v != %v", seed, k, got, want)
			}
		}
	}
}

func TestFrontierSizes(t *testing.T) {
	_, df := testDistances(3, 20, 16)
	d := Agglomerative(20, df)
	for k := 1; k <= 20; k++ {
		f := d.Frontier(k)
		if len(f) != k {
			t.Fatalf("Frontier(%d) has %d nodes", k, len(f))
		}
		// The frontier is a partition of the leaves.
		seen := map[int]bool{}
		for _, id := range f {
			for _, leaf := range d.Leaves(id) {
				if seen[leaf] {
					t.Fatalf("leaf %d in two frontier nodes", leaf)
				}
				seen[leaf] = true
			}
		}
		if len(seen) != 20 {
			t.Fatalf("Frontier(%d) covers %d leaves", k, len(seen))
		}
	}
}

func TestFrontierClamps(t *testing.T) {
	_, df := testDistances(4, 5, 8)
	d := Agglomerative(5, df)
	if len(d.Frontier(0)) != 1 {
		t.Fatal("Frontier(0) should clamp to 1")
	}
	if len(d.Frontier(99)) != 5 {
		t.Fatal("Frontier(99) should clamp to NLeaves")
	}
}

func TestAverageLinkageMonotone(t *testing.T) {
	_, df := testDistances(5, 40, 32)
	d := Agglomerative(40, df)
	// Parent height >= child height (reducibility of group-average linkage).
	for id := 40; id < len(d.Nodes); id++ {
		n := d.Nodes[id]
		for _, ch := range []int{n.Left, n.Right} {
			if d.Nodes[ch].Height > n.Height+1e-9 {
				t.Fatalf("node %d height %v below child %d height %v", id, n.Height, ch, d.Nodes[ch].Height)
			}
		}
	}
}

func TestClustersSeparateObviousGroups(t *testing.T) {
	// Two tight groups far apart must be the K=2 frontier split.
	rng := ts.NewRand(6)
	base1 := ts.RandomWalk(rng, 32)
	base2 := ts.RandomWalk(rng, 32)
	for i := range base2 {
		base2[i] += 100
	}
	var items [][]float64
	for i := 0; i < 5; i++ {
		items = append(items, ts.AddNoise(rng, base1, 0.01))
	}
	for i := 0; i < 5; i++ {
		items = append(items, ts.AddNoise(rng, base2, 0.01))
	}
	d := Agglomerative(len(items), func(i, j int) float64 {
		return dist.Euclidean(items[i], items[j], nil)
	})
	f := d.Frontier(2)
	got := map[int][]int{}
	for gi, id := range f {
		got[gi] = d.Leaves(id)
	}
	for _, leaves := range got {
		sort.Ints(leaves)
		first := leaves[0] < 5
		for _, l := range leaves {
			if (l < 5) != first {
				t.Fatalf("K=2 split mixes the groups: %v", got)
			}
		}
	}
}

func TestAgglomerativeMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on bad matrix size")
		}
	}()
	AgglomerativeMatrix(make([]float64, 3), 2)
}

func TestRender(t *testing.T) {
	_, df := testDistances(30, 4, 8)
	d := Agglomerative(4, df)
	out := d.Render([]string{"a", "b", "c", "d"})
	for _, want := range []string{"- a", "- b", "- c", "- d", "+ (height"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Without labels, leaf indices appear.
	out = d.Render(nil)
	if !strings.Contains(out, "leaf 0") || !strings.Contains(out, "leaf 3") {
		t.Fatalf("unlabelled render wrong:\n%s", out)
	}
	// Deterministic.
	if out != d.Render(nil) {
		t.Fatal("render not deterministic")
	}
	// Singleton renders its one leaf.
	s := Agglomerative(1, func(i, j int) float64 { return 0 })
	if got := s.Render(nil); !strings.Contains(got, "leaf 0") {
		t.Fatalf("singleton render: %q", got)
	}
}
