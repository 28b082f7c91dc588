package cluster

// The dendrogram decides every wedge envelope, every frontier cut and so
// every num_steps the search reports, and the NN-chain's tie-breaking (scan
// order, strict <, prefer the previous chain element) decides the dendrogram
// wherever distances tie — which the circulant matrix of a shape's rotations
// does everywhere. AgglomerativeMatrix walks an ascending list of live slots
// and never reads a retired one. The reference below scans every slot of the
// row with an `alive` test per neighbour, in the same order under the same
// strict <, and AgglomerativeMatrix must reproduce it node for node and bit
// for bit.

import (
	"math"
	"strings"
	"testing"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/ts"
)

func refAgglomerativeMatrix(matrix []float64, m int) *Dendrogram {
	dd := &Dendrogram{NLeaves: m, Nodes: make([]Node, m, 2*m-1)}
	for i := 0; i < m; i++ {
		dd.Nodes[i] = Node{Left: -1, Right: -1, Size: 1}
	}
	if m == 1 {
		return dd
	}
	active := make([]int, m)
	size := make([]int, m)
	alive := make([]bool, m)
	for i := range active {
		active[i] = i
		size[i] = 1
		alive[i] = true
	}
	nAlive := m

	chain := make([]int, 0, m)
	for nAlive > 1 {
		if len(chain) == 0 {
			for i := 0; i < m; i++ {
				if alive[i] {
					chain = append(chain, i)
					break
				}
			}
		}
		for {
			tip := chain[len(chain)-1]
			var prev = -1
			if len(chain) >= 2 {
				prev = chain[len(chain)-2]
			}
			best, bestDist := -1, math.Inf(1)
			if prev >= 0 {
				best, bestDist = prev, matrix[tip*m+prev]
			}
			for j := 0; j < m; j++ {
				if j == tip || !alive[j] {
					continue
				}
				if v := matrix[tip*m+j]; v < bestDist {
					best, bestDist = j, v
				}
			}
			if best == prev && prev >= 0 {
				chain = chain[:len(chain)-2]
				refMergeClusters(dd, matrix, m, active, size, alive, tip, prev, bestDist)
				nAlive--
				break
			}
			chain = append(chain, best)
		}
	}
	return dd
}

func refMergeClusters(dd *Dendrogram, matrix []float64, m int, active, size []int, alive []bool, a, b int, h float64) {
	newID := len(dd.Nodes)
	dd.Nodes = append(dd.Nodes, Node{
		Left:   active[a],
		Right:  active[b],
		Height: h,
		Size:   size[a] + size[b],
	})
	na, nb := float64(size[a]), float64(size[b])
	for k := 0; k < m; k++ {
		if !alive[k] || k == a || k == b {
			continue
		}
		dak := matrix[a*m+k]
		dbk := matrix[b*m+k]
		v := (na*dak + nb*dbk) / (na + nb)
		matrix[a*m+k] = v
		matrix[k*m+a] = v
	}
	active[a] = newID
	size[a] += size[b]
	alive[b] = false
}

// checkAgglomerativeAgainstReference clusters two copies of matrix, one with
// each implementation, and demands the same nodes with the same height bits.
func checkAgglomerativeAgainstReference(t *testing.T, name string, matrix []float64, m int) {
	t.Helper()
	want := refAgglomerativeMatrix(append([]float64(nil), matrix...), m)
	got := AgglomerativeMatrix(append([]float64(nil), matrix...), m)
	if got.NLeaves != want.NLeaves || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d leaves, %d nodes; reference %d, %d", name, got.NLeaves, len(got.Nodes), want.NLeaves, len(want.Nodes))
	}
	for id, w := range want.Nodes {
		g := got.Nodes[id]
		if g.Left != w.Left || g.Right != w.Right || g.Size != w.Size || math.Float64bits(g.Height) != math.Float64bits(w.Height) {
			t.Fatalf("%s: node %d is %+v, reference %+v", name, id, g, w)
		}
	}
}

func symmetric(m int, d func(i, j int) float64) []float64 {
	matrix := make([]float64, m*m)
	FillMatrix(matrix, m, d)
	return matrix
}

// rotationMatrix is the distance matrix a query build clusters: the admitted
// rotations of one shape, then (mirror) those of its mirror image.
func rotationMatrix(n int, mirror bool, maxShift int) ([]float64, int) {
	return rotationMatrixSeeded(n, mirror, maxShift, int64(n))
}

func rotationMatrixSeeded(n int, mirror bool, maxShift int, seed int64) ([]float64, int) {
	base := ts.ZNorm(ts.RandomWalk(ts.NewRand(seed), n))
	sources := [][]float64{base}
	if mirror {
		sources = append(sources, ts.Mirror(base))
	}
	var rows [][]float64
	for _, x := range sources {
		if maxShift < 0 || maxShift >= n/2 {
			for s := 0; s < n; s++ {
				rows = append(rows, ts.Rotate(x, s))
			}
			continue
		}
		for s := -maxShift; s <= maxShift; s++ {
			rows = append(rows, ts.Rotate(x, s))
		}
	}
	m := len(rows)
	return symmetric(m, func(i, j int) float64 { return dist.Euclidean(rows[i], rows[j], nil) }), m
}

func TestAgglomerativeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		m := 2 + int(seed*7%60)
		_, df := testDistances(seed, m, 16)
		checkAgglomerativeAgainstReference(t, "random", symmetric(m, df), m)
	}
	// Exact ties: few distinct values, so nearly every neighbour search and
	// every reciprocal-pair test is decided by the tie-breaking rules.
	for seed := int64(1); seed <= 10; seed++ {
		rng := ts.NewRand(seed)
		m := 5 + int(seed*11%40)
		ties := symmetric(m, func(i, j int) float64 { return float64(1 + rng.Intn(3)) })
		checkAgglomerativeAgainstReference(t, "ties", ties, m)
	}
	for _, n := range []int{2, 3, 47, 251} {
		for _, c := range []struct {
			name     string
			mirror   bool
			maxShift int
		}{{"plain", false, -1}, {"mirror", true, -1}, {"limited", false, 5}} {
			matrix, m := rotationMatrix(n, c.mirror, c.maxShift)
			checkAgglomerativeAgainstReference(t, "rotations/"+c.name, matrix, m)
		}
	}
}

// FuzzAgglomerativeMatrix holds AgglomerativeMatrix to the reference on the
// two kinds of matrix whose ties decide the dendrogram: tie-heavy integer
// matrices (levels distinct values, 1 upward) and the rotation matrices a
// query build clusters.
func FuzzAgglomerativeMatrix(f *testing.F) {
	f.Add(false, uint8(17), uint8(3), int64(1))
	f.Add(false, uint8(40), uint8(1), int64(2))
	f.Add(true, uint8(47), uint8(0), int64(3))
	f.Add(true, uint8(31), uint8(1), int64(4))
	f.Add(true, uint8(64), uint8(7), int64(5))
	f.Fuzz(func(t *testing.T, rotations bool, size, shape uint8, seed int64) {
		if !rotations {
			// m in [1, 64] with 1–4 distinct distances.
			m, levels := 1+int(size%64), 1+int(shape%4)
			rng := ts.NewRand(seed)
			matrix := symmetric(m, func(i, j int) float64 { return float64(1 + rng.Intn(levels)) })
			checkAgglomerativeAgainstReference(t, "ties", matrix, m)
			return
		}
		// n in [2, 65]; shape picks mirror and a rotation limit (none, or
		// 0–2 shifts either side).
		n := 2 + int(size%64)
		maxShift := -1
		if s := int(shape>>1) % 4; s > 0 {
			maxShift = s - 1
		}
		matrix, m := rotationMatrixSeeded(n, shape&1 == 1, maxShift, seed)
		checkAgglomerativeAgainstReference(t, "rotations", matrix, m)
	})
}

// A matrix no neighbour search can order — the all-NaN rows a NaN query
// sample would produce — must be refused by name, not by an index panic.
func TestAgglomerativeMatrixNonFinitePanics(t *testing.T) {
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1)} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "non-finite distance") {
					t.Errorf("%s matrix: panic %q does not name the non-finite distance", name, msg)
				}
			}()
			AgglomerativeMatrix(symmetric(4, func(i, j int) float64 { return v }), 4)
		}()
	}
}
