package rtree

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"lbkeogh/internal/ts"
)

func randomPoints(seed int64, m, d int) [][]float64 {
	rng := ts.NewRand(seed)
	pts := make([][]float64, m)
	for i := range pts {
		pts[i] = ts.RandomSeries(rng, d)
	}
	return pts
}

func euclid(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return math.Sqrt(acc)
}

// pointBound adapts plain point-to-box MINDIST for NN testing.
func pointBound(q []float64) func(lo, hi []float64) float64 {
	w := make([]float64, len(q))
	for i := range w {
		w[i] = 1
	}
	return func(lo, hi []float64) float64 {
		return MinDistBox(q, q, lo, hi, w)
	}
}

func nnSearch(t *Tree, q []float64) (int, float64) {
	bestIdx, best := -1, math.Inf(1)
	t.Search(pointBound(q), math.Inf(1), func(id int, lb, bsf float64) float64 {
		if d := euclid(q, t.points[id]); d < best {
			best, bestIdx = d, id
		}
		return best
	})
	return bestIdx, best
}

func linearNN(pts [][]float64, q []float64) (int, float64) {
	bestIdx, best := -1, math.Inf(1)
	for i, p := range pts {
		if d := euclid(q, p); d < best {
			best, bestIdx = d, i
		}
	}
	return bestIdx, best
}

func TestNNMatchesLinear(t *testing.T) {
	pts := randomPoints(1, 300, 6)
	tree := New(pts, 8)
	rng := ts.NewRand(2)
	for trial := 0; trial < 40; trial++ {
		q := ts.RandomSeries(rng, 6)
		wi, wd := linearNN(pts, q)
		gi, gd := nnSearch(tree, q)
		if gi != wi || math.Abs(gd-wd) > 1e-12 {
			t.Fatalf("trial %d: (%d,%v) != (%d,%v)", trial, gi, gd, wi, wd)
		}
	}
}

func TestSearchPrunes(t *testing.T) {
	pts := randomPoints(3, 1000, 4)
	tree := New(pts, 8)
	rng := ts.NewRand(4)
	q := ts.RandomSeries(rng, 4)
	visited := 0
	tree.Search(pointBound(q), math.Inf(1), func(id int, lb, bsf float64) float64 {
		visited++
		if d := euclid(q, pts[id]); d < bsf {
			return d
		}
		return bsf
	})
	if visited >= 1000 {
		t.Fatalf("no pruning: visited %d", visited)
	}
}

func TestMBRsContainPoints(t *testing.T) {
	pts := randomPoints(5, 200, 5)
	tree := New(pts, 4)
	var walk func(id int) []int
	walk = func(id int) []int {
		n := tree.nodes[id]
		if n.left < 0 {
			for _, pid := range n.items {
				for k, v := range pts[pid] {
					if v < n.lo[k]-1e-12 || v > n.hi[k]+1e-12 {
						t.Fatalf("point %d escapes its leaf MBR", pid)
					}
				}
			}
			return n.items
		}
		items := append(walk(n.left), walk(n.right)...)
		for _, pid := range items {
			for k, v := range pts[pid] {
				if v < n.lo[k]-1e-12 || v > n.hi[k]+1e-12 {
					t.Fatalf("point %d escapes an internal MBR", pid)
				}
			}
		}
		return items
	}
	all := walk(tree.root)
	if len(all) != 200 {
		t.Fatalf("tree covers %d points", len(all))
	}
	if tree.Size() != 200 {
		t.Fatal("Size wrong")
	}
	if h := tree.Height(); h < 5 || h > 10 {
		t.Fatalf("height %d suspicious for 200 points, leaf 4", h)
	}
}

func TestMinDistBox(t *testing.T) {
	w := []float64{2, 3}
	// Overlapping intervals contribute 0.
	if d := MinDistBox([]float64{0, 0}, []float64{1, 1}, []float64{0.5, 0.5}, []float64{2, 2}, w); d != 0 {
		t.Fatalf("overlap should be 0, got %v", d)
	}
	// Separated: gaps (1, 2), weighted 2·1 + 3·4 = 14.
	got := MinDistBox([]float64{0, 0}, []float64{1, 1}, []float64{2, 3}, []float64{4, 5}, w)
	if math.Abs(got-math.Sqrt(14)) > 1e-12 {
		t.Fatalf("MinDistBox = %v, want sqrt(14)", got)
	}
	// Symmetric: query above the box.
	got = MinDistBox([]float64{5, 7}, []float64{6, 8}, []float64{2, 3}, []float64{4, 5}, w)
	if math.Abs(got-math.Sqrt(2*1+3*4)) > 1e-12 {
		t.Fatalf("upper-side MinDistBox = %v", got)
	}
}

// Property: MinDistBox lower-bounds the weighted distance from any interval
// query box to any point inside the MBR.
func TestMinDistBoxAdmissibleProperty(t *testing.T) {
	rng := ts.NewRand(6)
	f := func() bool {
		d := 4
		lo := make([]float64, d)
		hi := make([]float64, d)
		qlo := make([]float64, d)
		qhi := make([]float64, d)
		w := make([]float64, d)
		p := make([]float64, d)
		for k := 0; k < d; k++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			lo[k], hi[k] = math.Min(a, b), math.Max(a, b)
			a, b = rng.NormFloat64(), rng.NormFloat64()
			qlo[k], qhi[k] = math.Min(a, b), math.Max(a, b)
			w[k] = rng.Float64()*3 + 0.1
			p[k] = lo[k] + rng.Float64()*(hi[k]-lo[k]) // inside the MBR
		}
		// True weighted distance from p to the query box.
		var acc float64
		for k := 0; k < d; k++ {
			var gap float64
			if p[k] > qhi[k] {
				gap = p[k] - qhi[k]
			} else if p[k] < qlo[k] {
				gap = qlo[k] - p[k]
			}
			acc += w[k] * gap * gap
		}
		return MinDistBox(qlo, qhi, lo, hi, w) <= math.Sqrt(acc)+1e-9
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":  func() { New(nil, 4) },
		"zeroD":  func() { New([][]float64{{}}, 4) },
		"ragged": func() { New([][]float64{{1}, {1, 2}}, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSingleton(t *testing.T) {
	tree := New([][]float64{{3, 4}}, 4)
	gi, gd := nnSearch(tree, []float64{0, 0})
	if gi != 0 || math.Abs(gd-5) > 1e-12 {
		t.Fatalf("singleton NN = (%d,%v)", gi, gd)
	}
}

// Property: exact NN across random shapes and leaf sizes.
func TestNNProperty(t *testing.T) {
	f := func(seed int64, mSeed, lSeed uint8) bool {
		m := 2 + int(mSeed)%60
		leaf := 1 + int(lSeed)%9
		pts := randomPoints(seed, m, 3)
		tree := New(pts, leaf)
		q := ts.RandomSeries(ts.NewRand(seed+1), 3)
		wi, wd := linearNN(pts, q)
		gi, gd := nnSearch(tree, q)
		return gi == wi && math.Abs(gd-wd) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Search proposes what sorting every point by (bound, id) and proposing
// while the bound is below the shrinking best-so-far proposes, in sequence:
// on integer points with many duplicates and equal bounds, under an interval
// query box (the DTW path's kind of query), with a best-so-far that shrinks
// on every visit and with one that stays fixed.
func TestSearchOrderIsSortedBounds(t *testing.T) {
	w := []float64{1, 2, 3}
	for seed := int64(1); seed <= 20; seed++ {
		rng := ts.NewRand(seed)
		pts := make([][]float64, 400)
		for i := range pts {
			pts[i] = []float64{float64(rng.Intn(6)), float64(rng.Intn(6)), float64(rng.Intn(6))}
		}
		tree := New(pts, 1+int(seed)%5)
		qlo := []float64{float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5))}
		qhi := []float64{qlo[0] + float64(rng.Intn(2)), qlo[1], qlo[2] + 1}
		bound := func(lo, hi []float64) float64 { return MinDistBox(qlo, qhi, lo, hi, w) }
		ids := make([]int, len(pts))
		for i := range ids {
			ids[i] = i
		}
		sort.SliceStable(ids, func(a, b int) bool { return bound(pts[ids[a]], pts[ids[a]]) < bound(pts[ids[b]], pts[ids[b]]) })
		for _, shrink := range []bool{true, false} {
			var got, want []int
			collect := func(seq *[]int) func(int, float64, float64) float64 {
				return func(id int, lb, bsf float64) float64 {
					*seq = append(*seq, id)
					if shrink {
						return math.Min(bsf, lb+0.5)
					}
					return bsf
				}
			}
			final := tree.Search(bound, 6, collect(&got))
			visit, bsf := collect(&want), 6.0
			for _, id := range ids {
				lb := bound(pts[id], pts[id])
				if lb >= bsf {
					break
				}
				bsf = visit(id, lb, bsf)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d shrink %v: proposals %v, the sorted order's %v", seed, shrink, got, want)
			}
			if len(want) == 0 {
				t.Fatalf("seed %d: nothing proposed", seed)
			}
			for _, id := range ids[len(got):] {
				if bound(pts[id], pts[id]) < final {
					t.Fatalf("seed %d shrink %v: point %d below the final radius %v was skipped", seed, shrink, id, final)
				}
			}
		}
	}
}

// A search allocates for the growth of its queue only, not per leaf or per
// point: an exhaustive walk queues all 2000 points.
func TestSearchDoesNotAllocatePerPoint(t *testing.T) {
	pts := randomPoints(11, 2000, 4)
	tree := New(pts, 8)
	bound := pointBound(ts.RandomSeries(ts.NewRand(12), 4))
	visit := func(id int, lb, bsf float64) float64 { return bsf }
	if allocs := testing.AllocsPerRun(20, func() { tree.Search(bound, math.Inf(1), visit) }); allocs > 8 {
		t.Fatalf("exhaustive search over %d points allocated %v times", len(pts), allocs)
	}
}
