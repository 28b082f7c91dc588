package vptree

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

// linearNN is the exhaustive reference.
func linearNN(pts [][]float64, q []float64) (int, float64) {
	best, bestIdx := math.Inf(1), -1
	for i, p := range pts {
		if d := euclid(q, p); d < best {
			best, bestIdx = d, i
		}
	}
	return bestIdx, best
}

// searchNN runs Search with a plain "feature distance is the true distance"
// verification, i.e. exact NN in feature space.
func searchNN(t *Tree, q []float64) (int, float64) {
	bestIdx, best := -1, math.Inf(1)
	t.Search(q, math.Inf(1), func(id int, fd, bsf float64) float64 {
		if fd < best {
			best, bestIdx = fd, id
		}
		return best
	})
	return bestIdx, best
}

func TestSearchMatchesLinear(t *testing.T) {
	pts := randomPoints(1, 200, 8)
	tree := New(pts, 8, 42)
	rng := ts.NewRand(2)
	for trial := 0; trial < 50; trial++ {
		q := ts.RandomSeries(rng, 8)
		wantIdx, wantDist := linearNN(pts, q)
		gotIdx, gotDist := searchNN(tree, q)
		if gotIdx != wantIdx || math.Abs(gotDist-wantDist) > 1e-12 {
			t.Fatalf("trial %d: (%d,%v) != (%d,%v)", trial, gotIdx, gotDist, wantIdx, wantDist)
		}
	}
}

func TestSearchPrunes(t *testing.T) {
	pts := randomPoints(3, 500, 6)
	tree := New(pts, 4, 7)
	rng := ts.NewRand(4)
	q := ts.RandomSeries(rng, 6)
	visited := 0
	tree.Search(q, math.Inf(1), func(id int, fd, bsf float64) float64 {
		visited++
		return math.Min(bsf, fd)
	})
	if visited >= 500 {
		t.Fatalf("no pruning: visited %d of 500", visited)
	}
}

func TestSearchRespectsSeedBSF(t *testing.T) {
	pts := randomPoints(5, 100, 4)
	tree := New(pts, 4, 1)
	rng := ts.NewRand(6)
	q := ts.RandomSeries(rng, 4)
	_, nn := linearNN(pts, q)
	called := false
	tree.Search(q, nn*0.5, func(id int, fd, bsf float64) float64 {
		if fd >= nn*0.5 {
			t.Fatalf("visited point with bound %v above seed bsf", fd)
		}
		called = true
		return bsf
	})
	_ = called // may legitimately be false: everything pruned
}

func TestSearchVisitsAllWithinRadius(t *testing.T) {
	// Every point closer than the final bsf must have been offered to visit:
	// we check by keeping bsf fixed at a radius and collecting ids.
	pts := randomPoints(7, 300, 5)
	tree := New(pts, 8, 3)
	rng := ts.NewRand(8)
	q := ts.RandomSeries(rng, 5)
	radius := 1.5
	got := map[int]bool{}
	tree.Search(q, radius, func(id int, fd, bsf float64) float64 {
		got[id] = true
		return bsf // never shrink: plain range query
	})
	for i, p := range pts {
		if euclid(q, p) < radius && !got[i] {
			t.Fatalf("point %d within radius was never visited", i)
		}
	}
}

func TestSingletonAndDuplicates(t *testing.T) {
	pts := [][]float64{{1, 1}}
	tree := New(pts, 4, 0)
	if idx, d := searchNN(tree, []float64{1, 1}); idx != 0 || d != 0 {
		t.Fatalf("singleton NN = (%d,%v)", idx, d)
	}
	// All-duplicate points must not loop forever.
	dup := [][]float64{{2, 2}, {2, 2}, {2, 2}, {2, 2}, {2, 2}}
	tree = New(dup, 1, 0)
	if len(tree.points) != 5 {
		t.Fatal("size wrong")
	}
	idx, d := searchNN(tree, []float64{2, 2})
	if d != 0 || idx < 0 {
		t.Fatalf("duplicate NN = (%d,%v)", idx, d)
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on empty")
		}
	}()
	New(nil, 4, 0)
}

func TestNewPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on dim mismatch")
		}
	}()
	New([][]float64{{1}, {1, 2}}, 4, 0)
}

// Property: exact NN for random dimensionalities, sizes and leaf sizes.
func TestSearchExactProperty(t *testing.T) {
	f := func(seed int64, mSeed, dSeed, lSeed uint8) bool {
		m := 2 + int(mSeed)%80
		d := 1 + int(dSeed)%6
		leaf := 1 + int(lSeed)%10
		pts := randomPoints(seed, m, d)
		tree := New(pts, leaf, seed+1)
		rng := ts.NewRand(seed + 2)
		q := ts.RandomSeries(rng, d)
		wantIdx, wantDist := linearNN(pts, q)
		gotIdx, gotDist := searchNN(tree, q)
		return gotIdx == wantIdx && math.Abs(gotDist-wantDist) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refSearch is what Search must propose, spelled without a tree: every
// point sorted by (feature distance, id), proposed while its distance is
// below the shrinking best-so-far.
func refSearch(pts [][]float64, q []float64, bsf float64, visit func(id int, fd, bsf float64) float64) {
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return euclid(q, pts[ids[a]]) < euclid(q, pts[ids[b]]) })
	for _, id := range ids {
		fd := euclid(q, pts[id])
		if fd >= bsf {
			return
		}
		bsf = visit(id, fd, bsf)
	}
}

// FuzzSearchOrder holds Search's proposals to refSearch's, in sequence, on
// integer-valued points whose many duplicates and equal distances exercise
// the tie rule, with a best-so-far that shrinks on every visit and with one
// that stays fixed (a range query); and no point below the final radius may
// go unproposed. The seed corpus is twenty seeds, both ways, and one the
// fuzzer found: without Tree.slack a subtree's key rounds above the distance
// of a point inside it, and that point is proposed out of order.
func FuzzSearchOrder(f *testing.F) {
	for seed := int64(1); seed <= 20; seed++ {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Add(int64(267), false)
	f.Fuzz(func(t *testing.T, seed int64, shrink bool) {
		rng := ts.NewRand(seed)
		pts := make([][]float64, 400)
		for i := range pts {
			pts[i] = []float64{float64(rng.Intn(6)), float64(rng.Intn(6)), float64(rng.Intn(6))}
		}
		tree := New(pts, 1+int(uint64(seed)%5), seed)
		q := []float64{float64(rng.Intn(6)), float64(rng.Intn(6)), float64(rng.Intn(6))}
		var got, want []int
		collect := func(seq *[]int) func(int, float64, float64) float64 {
			return func(id int, fd, bsf float64) float64 {
				*seq = append(*seq, id)
				if shrink {
					return math.Min(bsf, fd+0.5)
				}
				return bsf
			}
		}
		final := tree.Search(q, 4, collect(&got))
		refSearch(pts, q, 4, collect(&want))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d shrink %v: proposals %v, the sorted order's %v", seed, shrink, got, want)
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: nothing proposed", seed)
		}
		proposed := map[int]bool{}
		for _, id := range got {
			proposed[id] = true
		}
		for i, p := range pts {
			if euclid(q, p) < final && !proposed[i] {
				t.Fatalf("seed %d shrink %v: point %d at %v below the final radius %v was skipped", seed, shrink, i, euclid(q, p), final)
			}
		}
	})
}

// A search allocates for the growth of its queue only, not per node or per
// point: an exhaustive walk queues all 2000 points and ~500 subtrees.
func TestSearchDoesNotAllocatePerNode(t *testing.T) {
	pts := randomPoints(11, 2000, 8)
	tree := New(pts, 4, 5)
	q := ts.RandomSeries(ts.NewRand(12), 8)
	visit := func(id int, fd, bsf float64) float64 { return bsf }
	if allocs := testing.AllocsPerRun(20, func() { tree.Search(q, math.Inf(1), visit) }); allocs > 8 {
		t.Fatalf("exhaustive search over %d nodes allocated %v times", len(tree.nodes), allocs)
	}
}

func TestSearchStopsOnNegativeInfinity(t *testing.T) {
	tree := New(randomPoints(13, 300, 4), 4, 2)
	visits := 0
	tree.Search(ts.RandomSeries(ts.NewRand(14), 4), math.Inf(1), func(int, float64, float64) float64 {
		visits++
		return math.Inf(-1)
	})
	if visits != 1 {
		t.Fatalf("a visit returning -Inf was followed by %d more", visits-1)
	}
}
