package index

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"lbkeogh/internal/core"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/fourier"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/trace"
	"lbkeogh/internal/paa"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// syntheticDB builds a database with planted structure: a few base shapes,
// each instance a rotated, noisy copy.
func syntheticDB(seed int64, m, n int) [][]float64 {
	rng := ts.NewRand(seed)
	bases := make([][]float64, 5)
	for i := range bases {
		bases[i] = ts.ZNorm(ts.RandomWalk(rng, n))
	}
	db := make([][]float64, m)
	for i := range db {
		b := bases[i%len(bases)]
		db[i] = ts.ZNorm(ts.AddNoise(rng, ts.Rotate(b, rng.Intn(n)), 0.1))
	}
	return db
}

func linearScan(rs *core.RotationSet, db [][]float64, kern wedge.Kernel) (int, float64) {
	s := core.NewSearcher(rs, kern, core.BruteForce, core.SearcherConfig{})
	res := s.Scan(db, nil)
	return res.Index, res.Dist
}

// fetches reads the index record's count of full series fetched.
func fetches(ix *Index) int { return int(ix.Stats().Counts().IndexFetches) }

func TestSearchEDExact(t *testing.T) {
	n := 64
	db := syntheticDB(1, 60, n)
	ix := Build(db, 8)
	rng := ts.NewRand(2)
	for trial := 0; trial < 8; trial++ {
		q := ts.ZNorm(ts.AddNoise(rng, db[trial*3], 0.05))
		rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
		wantIdx, wantDist := linearScan(rs, db, wedge.ED{})
		ix.Stats().Reset()
		got := ix.SearchED(rs, nil)
		if got.Index != wantIdx || math.Abs(got.Dist-wantDist) > 1e-9 {
			t.Fatalf("trial %d: index (%d,%v) != linear (%d,%v)", trial, got.Index, got.Dist, wantIdx, wantDist)
		}
	}
}

func TestSearchEDPrunesReads(t *testing.T) {
	n := 64
	db := syntheticDB(3, 200, n)
	ix := Build(db, 16)
	rng := ts.NewRand(4)
	q := ts.ZNorm(ts.AddNoise(rng, db[0], 0.02))
	rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
	ix.Stats().Reset()
	ix.SearchED(rs, nil)
	if r := fetches(ix); r >= 200 {
		t.Fatalf("index read everything: %d of 200", r)
	}
}

func TestSearchEDReadsShrinkWithD(t *testing.T) {
	n := 128
	db := syntheticDB(5, 300, n)
	rng := ts.NewRand(6)
	q := ts.ZNorm(ts.AddNoise(rng, db[10], 0.02))
	rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
	reads := map[int]int{}
	for _, D := range []int{4, 32} {
		ix := Build(db, D)
		ix.SearchED(rs, nil)
		reads[D] = fetches(ix)
	}
	if reads[32] > reads[4] {
		t.Fatalf("higher D should not read more: D=4 %d, D=32 %d", reads[4], reads[32])
	}
}

func TestSearchDTWExact(t *testing.T) {
	n := 48
	db := syntheticDB(7, 40, n)
	rng := ts.NewRand(8)
	for trial := 0; trial < 5; trial++ {
		q := ts.ZNorm(ts.AddNoise(rng, db[trial*7], 0.05))
		rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
		R := 1 + trial
		wantIdx, wantDist := linearScan(rs, db, wedge.DTW{R: R})
		ix := Build(db, 8)
		got := ix.SearchDTW(rs, R, 0, nil)
		if got.Index != wantIdx || math.Abs(got.Dist-wantDist) > 1e-9 {
			t.Fatalf("trial %d R=%d: index (%d,%v) != linear (%d,%v)", trial, R, got.Index, got.Dist, wantIdx, wantDist)
		}
	}
}

// A one-row index answers with its row under both walks, and a range below
// the row's distance answers nothing.
func TestSingleRowIndex(t *testing.T) {
	rng := ts.NewRand(15)
	db := [][]float64{ts.ZNorm(ts.RandomWalk(rng, 32))}
	ix := Build(db, 4)
	rs := core.NewRotationSet(ts.ZNorm(ts.RandomWalk(rng, 32)), core.DefaultOptions(), nil)
	for _, kern := range []wedge.Kernel{wedge.ED{}, wedge.DTW{R: 2}} {
		_, want := linearScan(rs, db, kern)
		got := ix.probeDefault(rs, kern, nearest(), nil).Best()
		if got.Index != 0 || math.Abs(got.Dist-want) > 1e-9 {
			t.Fatalf("%T: (%d,%v), want (0,%v)", kern, got.Index, got.Dist, want)
		}
		if hits := rangeProbe(ix, rs, kern, want/2); len(hits) != 0 {
			t.Fatalf("%T: range %v found %+v", kern, want/2, hits)
		}
	}
}

func TestSearchDTWPrunesReads(t *testing.T) {
	n := 64
	db := syntheticDB(9, 150, n)
	ix := Build(db, 16)
	rng := ts.NewRand(10)
	q := ts.ZNorm(ts.AddNoise(rng, db[0], 0.02))
	rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
	ix.SearchDTW(rs, 3, 0, nil)
	if r := fetches(ix); r >= 150 {
		t.Fatalf("DTW index read everything: %d of 150", r)
	}
}

// randomRows is a database with no planted structure: independent
// z-normalised random walks.
func randomRows(seed int64, m, n int) [][]float64 {
	rng := ts.NewRand(seed)
	db := make([][]float64, m)
	for i := range db {
		db[i] = ts.RandomWalk(rng, n)
	}
	return db
}

// On unstructured rows and unrelated queries, across bands, the DTW walk
// finds the linear scan's nearest row.
func TestSearchDTWMatchesLinearOnRandomRows(t *testing.T) {
	n := 24
	db := randomRows(51, 300, n)
	ix := Build(db, 6)
	rng := ts.NewRand(52)
	for trial := 0; trial < 20; trial++ {
		rs := core.NewRotationSet(ts.RandomWalk(rng, n), core.DefaultOptions(), nil)
		R := trial % 4
		wantIdx, wantDist := linearScan(rs, db, wedge.DTW{R: R})
		got := ix.SearchDTW(rs, R, 0, nil)
		if got.Index != wantIdx || math.Abs(got.Dist-wantDist) > 1e-9 {
			t.Fatalf("trial %d R=%d: index (%d,%v) != linear (%d,%v)", trial, R, got.Index, got.Dist, wantIdx, wantDist)
		}
	}
}

// Property: the DTW walk's answer is exact for random database sizes,
// dimensionalities and bands.
func TestSearchDTWExactProperty(t *testing.T) {
	n := 16
	f := func(seed int64, mSeed, dSeed, rSeed uint8) bool {
		db := randomRows(seed, 2+int(mSeed)%60, n)
		D, R := 1+int(dSeed)%(n/2), int(rSeed)%5
		rs := core.NewRotationSet(ts.RandomWalk(ts.NewRand(seed+1), n), core.DefaultOptions(), nil)
		wantIdx, wantDist := linearScan(rs, db, wedge.DTW{R: R})
		got := Build(db, D).SearchDTW(rs, R, 0, nil)
		return got.Index == wantIdx && math.Abs(got.Dist-wantDist) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Validate refuses each database Build panics on, naming why, and accepts a
// well-formed one.
func TestValidate(t *testing.T) {
	for name, tc := range map[string]struct {
		db [][]float64
		D  int
	}{
		"empty":     {nil, 4},
		"emptyRow":  {[][]float64{{}}, 4},
		"oneSample": {[][]float64{{1}, {2}}, 1},
		"ragged":    {[][]float64{{1, 2}, {1}}, 1},
		"badD":      {[][]float64{{1, 2}}, 0},
		"nan":       {[][]float64{{1, 2}, {math.NaN(), 2}}, 1},
		"inf":       {[][]float64{{1, math.Inf(-1)}}, 1},
	} {
		if err := Validate(tc.db, tc.D); err == nil {
			t.Fatalf("%s: Validate accepted it", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Build did not panic", name)
				}
			}()
			Build(tc.db, tc.D)
		}()
	}
	if err := Validate([][]float64{{1, 2}, {3, 4}}, 1); err != nil {
		t.Fatalf("well-formed database refused: %v", err)
	}
}

// The PAA walk, verifying each proposed row exactly, proposes fewer rows than
// the database holds, and the rows it leaves out are bounded at or above the
// answer it ends with.
func TestPAAWalkPrunes(t *testing.T) {
	n, D, R := 32, 8, 2
	db := randomRows(53, 1000, n)
	ix := Build(db, D)
	rng := ts.NewRand(54)
	rs := core.NewRotationSet(ts.ZNorm(ts.AddNoise(rng, db[17], 0.05)), core.DefaultOptions(), nil)
	s := core.NewSearcher(rs, wedge.DTW{R: R}, core.BruteForce, core.SearcherConfig{})
	proposed := map[int]bool{}
	best := math.Inf(1)
	leaves := rs.Tree().Widened(R, nil)[:rs.Members()]
	ix.paaWalk(leaves)(best, func(id int, _, r float64) float64 {
		proposed[id] = true
		best = math.Min(r, s.MatchSeries(db[id], -1, nil).Dist)
		return best
	})
	if len(proposed) >= len(db) {
		t.Fatalf("no pruning: proposed %d of %d", len(proposed), len(db))
	}
	if _, want := linearScan(rs, db, wedge.DTW{R: R}); math.Abs(best-want) > 1e-9 {
		t.Fatalf("walk ended at %v, linear scan's nearest %v", best, want)
	}
	var boxes []paa.Box
	for _, env := range leaves {
		boxes = append(boxes, paa.ReduceEnvelope(env, D))
	}
	for id, x := range db {
		if proposed[id] {
			continue
		}
		for _, bx := range boxes {
			if lb := paa.LowerBound(paa.Reduce(x, D), bx, n); lb < best {
				t.Fatalf("row %d skipped with bound %v below the answer %v", id, lb, best)
			}
		}
	}
}

// The PAA walk proposes what sorting every row by (bound, id) and proposing
// while the bound is below the current radius proposes, in sequence, each
// with its bound: on integer rows with many duplicates and equal bounds, with
// one envelope per rotation and with two merged ones, and with a radius that
// shrinks on every visit and with one that stays fixed. The bounds are the
// smallest paa.LowerBound against the wedge set's boxes, computed here.
func TestPAAWalkOrderIsSortedBounds(t *testing.T) {
	n, D, R := 8, 4, 1
	for seed := int64(1); seed <= 20; seed++ {
		rng := ts.NewRand(seed)
		intRow := func(lo, k int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(lo + rng.Intn(k))
			}
			return x
		}
		db := make([][]float64, 400)
		for i := range db {
			if i < 300 {
				db[i] = intRow(0, 8)
			} else {
				db[i] = db[rng.Intn(300)]
			}
		}
		ix := Build(db, D)
		rs := core.NewRotationSet(intRow(2, 4), core.DefaultOptions(), nil)
		widened := rs.Tree().Widened(R, nil)
		for _, wedges := range []int{0, 2} {
			k := wedges
			if k == 0 {
				k = rs.Members()
			}
			var envs []envelope.Envelope
			var boxes []paa.Box
			for _, id := range rs.Tree().Dendrogram().Frontier(k) {
				envs = append(envs, widened[id])
				boxes = append(boxes, paa.ReduceEnvelope(widened[id], D))
			}
			bounds := make([]float64, len(db))
			for i, x := range db {
				bounds[i] = math.Inf(1)
				for _, bx := range boxes {
					bounds[i] = math.Min(bounds[i], paa.LowerBound(paa.Reduce(x, D), bx, n))
				}
			}
			ids := make([]int, len(db))
			for i := range ids {
				ids[i] = i
			}
			sort.SliceStable(ids, func(a, b int) bool { return bounds[ids[a]] < bounds[ids[b]] })
			cut := len(ids) / 2
			for cut < len(ids)-1 && !(bounds[ids[cut]] > 0) {
				cut++
			}
			start := bounds[ids[cut]]
			for _, shrink := range []bool{true, false} {
				var got, want []int
				var final float64
				collect := func(seq *[]int) func(int, float64, float64) float64 {
					return func(id int, lb, r float64) float64 {
						if lb != bounds[id] {
							t.Fatalf("seed %d wedges %d: row %d proposed with bound %v, want %v", seed, wedges, id, lb, bounds[id])
						}
						*seq = append(*seq, id)
						if shrink {
							r = math.Min(r, lb+0.5)
						}
						final = r
						return r
					}
				}
				final = start
				ix.paaWalk(envs)(start, collect(&got))
				gotFinal := final
				visit, r := collect(&want), start
				for _, id := range ids {
					if bounds[id] >= r {
						break
					}
					r = visit(id, bounds[id], r)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d wedges %d shrink %v: proposals %v, the sorted order's %v", seed, wedges, shrink, got, want)
				}
				if len(want) == 0 {
					t.Fatalf("seed %d wedges %d: nothing proposed", seed, wedges)
				}
				for _, id := range ids[len(got):] {
					if bounds[id] < gotFinal {
						t.Fatalf("seed %d wedges %d shrink %v: row %d below the final radius %v was skipped", seed, wedges, shrink, id, gotFinal)
					}
				}
			}
		}
	}
}

func TestSearchWithMirrorAndLimit(t *testing.T) {
	n := 40
	db := syntheticDB(11, 30, n)
	rng := ts.NewRand(12)
	q := ts.ZNorm(ts.AddNoise(rng, db[3], 0.05))
	for _, opts := range []core.Options{
		{Mirror: true, MaxShift: -1},
		{Mirror: false, MaxShift: 5},
	} {
		rs := core.NewRotationSet(q, opts, nil)
		wantIdx, wantDist := linearScan(rs, db, wedge.ED{})
		ix := Build(db, 8)
		got := ix.SearchED(rs, nil)
		if got.Index != wantIdx || math.Abs(got.Dist-wantDist) > 1e-9 {
			t.Fatalf("opts %+v: index (%d,%v) != linear (%d,%v)", opts, got.Index, got.Dist, wantIdx, wantDist)
		}
	}
}

// recordingStore is memStore that logs the order rows are fetched in.
type recordingStore struct {
	memStore
	fetched []int
}

func (s *recordingStore) Fetch(id int) []float64 {
	s.fetched = append(s.fetched, id)
	return s.memStore[id]
}

// A probe fetches the rows in ascending order of their compressed bound, ties
// by row, and exactly the rows whose bound is below its answer — the nearest
// distance for 1-NN, the K-th for top-K (a row bounded at exactly that
// distance allowed either way), the radius for a range. Fewer would be a
// false dismissal; more, a fetch that verifying in ascending-bound order
// never needs. The bounds are computed here from their definitions, not read
// off the walks: the magnitude distance for ED, and for DTW the smallest
// paa.LowerBound against the PAA boxes of the wedge set's per-rotation
// DTW-expanded envelopes. A fifth of the rows duplicate others, so equal
// bounds are common and the tie order is held too.
func TestProbeFetchesOnlyRowsBoundedBelowTheAnswer(t *testing.T) {
	n, D, R := 48, 8, 3
	db := syntheticDB(81, 200, n)
	for i := 160; i < len(db); i++ {
		db[i] = db[(i*7)%160]
	}
	direct := Build(db, D)
	store := &recordingStore{memStore: db}
	ix, err := BuildFromColumns(store, n, D, direct.mags, direct.paas)
	if err != nil {
		t.Fatal(err)
	}
	kernels := []struct {
		kern   wedge.Kernel
		bounds func(rs *core.RotationSet) []float64
	}{
		{wedge.ED{}, func(rs *core.RotationSet) []float64 {
			qmag := fourier.Magnitudes(rs.Base(), D)
			out := make([]float64, len(db))
			for i, x := range db {
				out[i] = fourier.LowerBoundED(qmag, fourier.Magnitudes(x, D))
			}
			return out
		}},
		{wedge.DTW{R: R}, func(rs *core.RotationSet) []float64 {
			var boxes []paa.Box
			for i := 0; i < rs.Members(); i++ {
				rot := rs.Member(i)
				env := envelope.Envelope{U: rot, L: rot}.ExpandDTW(R)
				boxes = append(boxes, paa.ReduceEnvelope(env, D))
			}
			out := make([]float64, len(db))
			for i, x := range db {
				out[i] = math.Inf(1)
				for _, bx := range boxes {
					out[i] = math.Min(out[i], paa.LowerBound(paa.Reduce(x, D), bx, n))
				}
			}
			return out
		}},
	}
	rng := ts.NewRand(82)
	for trial := 0; trial < 6; trial++ {
		q := ts.ZNorm(ts.RandomWalk(rng, n))
		if trial%2 == 0 {
			q = ts.ZNorm(ts.AddNoise(rng, db[trial*37], 0.2))
		}
		rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
		for _, kc := range kernels {
			bounds := kc.bounds(rs)
			order := make([]int, len(db))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool { return bounds[order[a]] < bounds[order[b]] })
			checkOrder := func(what string) {
				t.Helper()
				for i, id := range store.fetched {
					if id != order[i] {
						t.Errorf("trial %d %T %s: fetch %d is row %d (bound %v), the (bound, row) order's row %d (bound %v)",
							trial, kc.kern, what, i, id, bounds[id], order[i], bounds[order[i]])
						return
					}
				}
			}
			for _, k := range []int{1, 5} {
				store.fetched = nil
				res := ix.probeDefault(rs, kc.kern, core.NewCollector(k, math.Inf(1)), nil).Results()
				if wantIdx, wantDist := linearScan(rs, db, kc.kern); res[0].Index != wantIdx || math.Abs(res[0].Dist-wantDist) > 1e-9 {
					t.Fatalf("trial %d %T k %d: nearest (%d,%v), linear (%d,%v)", trial, kc.kern, k, res[0].Index, res[0].Dist, wantIdx, wantDist)
				}
				dK := res[k-1].Dist
				below, at := 0, 0
				for _, lb := range bounds {
					if lb < dK {
						below++
					} else if lb <= dK {
						at++
					}
				}
				if f := len(store.fetched); f < below || f > below+at {
					t.Errorf("trial %d %T k %d: %d fetches, %d rows bounded below d_K = %v (%d more at it)", trial, kc.kern, k, f, below, dK, at)
				}
				checkOrder("top-k")
			}
			// A range at a radius equal to a row's (positive) bound: that row
			// and every duplicate of it sit exactly at the cut and are not
			// fetched.
			cut := len(order) / 3
			for cut < len(order)-1 && !(bounds[order[cut]] > 0) {
				cut++
			}
			r := bounds[order[cut]]
			store.fetched = nil
			got := rangeProbe(ix, rs, kc.kern, r)
			below := 0
			for _, lb := range bounds {
				if lb < r {
					below++
				}
			}
			if len(store.fetched) != below {
				t.Errorf("trial %d %T range %v: %d fetches, %d rows bounded below it", trial, kc.kern, r, len(store.fetched), below)
			}
			checkOrder("range")
			want := bruteRange(rs, db, kc.kern, r)
			if len(got) != len(want) {
				t.Fatalf("trial %d %T range %v: %d results, brute force %d", trial, kc.kern, r, len(got), len(want))
			}
			for _, res := range got {
				if wd, ok := want[res.Index]; !ok || math.Abs(res.Dist-wd) > 1e-9 {
					t.Fatalf("trial %d %T range %v: row %d at %v, brute force %v (%v)", trial, kc.kern, r, res.Index, res.Dist, wd, ok)
				}
			}
		}
	}
}

// rangeProbe answers a range query — every object strictly below r under
// kern — through the default searcher, in ascending index order.
func rangeProbe(ix *Index, rs *core.RotationSet, kern wedge.Kernel, r float64) []Result {
	out := ix.probeDefault(rs, kern, core.NewCollector(0, r), nil).Results()
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// scanProbe answers a 1-NN query under a kernel the index has no compressed
// bound for: the walk that proposes every object.
func scanProbe(ix *Index, rs *core.RotationSet, kern wedge.Kernel) Result {
	return ix.probeDefault(rs, kern, nearest(), nil).Best()
}

// bruteRange is the reference: every item with exact RED < r.
func bruteRange(rs *core.RotationSet, db [][]float64, kern wedge.Kernel, r float64) map[int]float64 {
	s := core.NewSearcher(rs, kern, core.BruteForce, core.SearcherConfig{})
	out := map[int]float64{}
	for i, x := range db {
		m := s.MatchSeries(x, -1, nil)
		if m.Dist < r {
			out[i] = m.Dist
		}
	}
	return out
}

func TestRangeEDExact(t *testing.T) {
	n := 48
	db := syntheticDB(21, 80, n)
	ix := Build(db, 8)
	rng := ts.NewRand(22)
	q := ts.ZNorm(ts.AddNoise(rng, db[4], 0.05))
	rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
	// Radius chosen to include the planted class neighbours.
	s := core.NewSearcher(rs, wedge.ED{}, core.BruteForce, core.SearcherConfig{})
	nn := s.Scan(db, nil)
	r := nn.Dist * 2
	want := bruteRange(rs, db, wedge.ED{}, r)
	got := rangeProbe(ix, rs, wedge.ED{}, r)
	if len(got) != len(want) {
		t.Fatalf("range returned %d items, want %d", len(got), len(want))
	}
	for _, res := range got {
		wd, ok := want[res.Index]
		if !ok || math.Abs(res.Dist-wd) > 1e-9 {
			t.Fatalf("range item %d dist %v, want %v (ok=%v)", res.Index, res.Dist, wd, ok)
		}
	}
	// Fewer fetches than the database when the radius is selective.
	ix.Stats().Reset()
	tight := rangeProbe(ix, rs, wedge.ED{}, nn.Dist*1.05)
	if len(tight) < 1 {
		t.Fatal("tight range should still contain the NN")
	}
	if fetches(ix) >= len(db) {
		t.Fatalf("tight range fetched everything: %d", fetches(ix))
	}
}

func TestRangeDTWExact(t *testing.T) {
	n := 40
	db := syntheticDB(23, 40, n)
	ix := Build(db, 10)
	rng := ts.NewRand(24)
	q := ts.ZNorm(ts.AddNoise(rng, db[7], 0.05))
	rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
	R := 3
	s := core.NewSearcher(rs, wedge.DTW{R: R}, core.BruteForce, core.SearcherConfig{})
	nn := s.Scan(db, nil)
	r := nn.Dist * 2
	want := bruteRange(rs, db, wedge.DTW{R: R}, r)
	got := rangeProbe(ix, rs, wedge.DTW{R: R}, r)
	if len(got) != len(want) {
		t.Fatalf("DTW range returned %d items, want %d", len(got), len(want))
	}
	for _, res := range got {
		wd, ok := want[res.Index]
		if !ok || math.Abs(res.Dist-wd) > 1e-9 {
			t.Fatalf("DTW range item %d dist %v, want %v", res.Index, res.Dist, wd)
		}
	}
}

func TestStoreAccounting(t *testing.T) {
	db := syntheticDB(41, 30, 32)
	ix := Build(db, 8)
	rs := core.NewRotationSet(db[2], core.DefaultOptions(), nil)
	if fetches(ix) != 0 {
		t.Fatal("fresh index has reads")
	}
	// The bound-less walk — the one a kernel without a compressed bound gets —
	// fetches every object exactly once.
	if got := scanProbe(ix, rs, wedge.LCSS{Delta: 3, Eps: 0.5}); got.Index != 2 || fetches(ix) != len(db) {
		t.Fatalf("scan found %d with %d reads, want 2 with %d", got.Index, fetches(ix), len(db))
	}
	ix.SearchED(rs, nil)
	if r := fetches(ix); r <= len(db) || r >= 2*len(db) {
		t.Fatalf("reads = %d after a pruned search on top of %d", r, len(db))
	}
	ix.Stats().Reset()
	if fetches(ix) != 0 {
		t.Fatal("reset failed")
	}
}

func TestBuildFromColumns(t *testing.T) {
	n := 32
	db := syntheticDB(31, 25, n)
	direct := Build(db, 8)
	ix, err := BuildFromColumns(memStore(db), n, 8, direct.mags, direct.paas)
	if err != nil {
		t.Fatal(err)
	}
	if ix.D() != 8 {
		t.Fatalf("D = %d", ix.D())
	}
	// Same answers as the direct build.
	rng := ts.NewRand(32)
	q := ts.ZNorm(ts.AddNoise(rng, db[3], 0.05))
	rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
	a := ix.SearchED(rs, nil)
	b := direct.SearchED(rs, nil)
	if a.Index != b.Index || a.Dist != b.Dist || fetches(ix) != fetches(direct) {
		t.Fatalf("column-built index disagrees: (%d,%v) vs (%d,%v)", a.Index, a.Dist, b.Index, b.Dist)
	}
	// Validation.
	if _, err := BuildFromColumns(memStore(nil), n, 8, nil, nil); err == nil {
		t.Fatal("want error for empty store")
	}
	if _, err := BuildFromColumns(memStore(db), n, 0, direct.mags, direct.paas); err == nil {
		t.Fatal("want error for D < 1")
	}
	if _, err := BuildFromColumns(memStore(db), n, 8, direct.mags[1:], direct.paas); err == nil {
		t.Fatal("want error for a missing feature row")
	}
	if _, err := BuildFromColumns(memStore(db), n, 4, direct.mags, direct.paas); err == nil {
		t.Fatal("want error for feature rows of the wrong width")
	}
}

func TestBuildPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":  func() { Build(nil, 4) },
		"badD":   func() { Build([][]float64{{1, 2}}, 0) },
		"ragged": func() { Build([][]float64{{1, 2}, {1}}, 1) },
		"nan":    func() { Build([][]float64{{1, 2}, {1, math.NaN()}}, 1) },
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

func TestSearchChargesSteps(t *testing.T) {
	db := syntheticDB(13, 50, 32)
	ix := Build(db, 8)
	rng := ts.NewRand(14)
	q := ts.ZNorm(ts.RandomWalk(rng, 32))
	rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
	var cnt stats.Counter
	ix.SearchED(rs, &cnt)
	if cnt.Steps() == 0 || cnt.Steps() != ix.Stats().Steps() {
		t.Fatalf("SearchED charged %d steps, its record holds %d", cnt.Steps(), ix.Stats().Steps())
	}
	ix.SearchDTW(rs, 3, 0, &cnt)
	if cnt.Steps() != ix.Stats().Steps() {
		t.Fatalf("SearchED+SearchDTW charged %d steps, the record holds %d", cnt.Steps(), ix.Stats().Steps())
	}
}

// fleetingStore hands every Fetch the same buffer, poisoned first: a row is
// valid only until the next Fetch, the tightest lifetime a store of views
// (segment.Pinned, whose rows die with the snapshot) could impose.
type fleetingStore struct {
	db  [][]float64
	buf []float64
}

func (s *fleetingStore) Fetch(id int) []float64 {
	for i := range s.buf {
		s.buf[i] = math.NaN()
	}
	copy(s.buf, s.db[id])
	return s.buf
}
func (s *fleetingStore) Len() int { return len(s.db) }

// Nothing in a probe keeps a fetched row past the comparison it was fetched
// for — not the collector, not the trace, not the observers — so a store may
// return views instead of copies.
func TestProbeDoesNotRetainFetchedRows(t *testing.T) {
	n := 32
	db := syntheticDB(51, 40, n)
	direct := Build(db, 8)
	fleeting, err := BuildFromColumns(&fleetingStore{db: db, buf: make([]float64, n)}, n, 8, direct.mags, direct.paas)
	if err != nil {
		t.Fatal(err)
	}
	var traces, fetchSpans int
	rng := ts.NewRand(52)
	for _, opts := range []core.Options{core.DefaultOptions(), {Mirror: true, MaxShift: 3}} {
		rs := core.NewRotationSet(ts.ZNorm(ts.AddNoise(rng, db[7], 0.05)), opts, nil)
		// traced probes the index through a searcher carrying a recorder, so
		// the trace sees every fetched row too.
		traced := func(ix *Index, kern wedge.Kernel, c *core.Collector) []Result {
			s := core.NewSearcher(rs, kern, core.Wedge, core.SearcherConfig{})
			rec := trace.NewRecorder("probe", trace.SpanCap)
			s.SetRecorder(rec)
			if err := ix.Probe(context.Background(), s, c); err != nil {
				t.Fatal(err)
			}
			traces++
			for _, sp := range rec.Spans() {
				if sp.Stage == trace.StageFetch {
					fetchSpans++
				}
			}
			return c.Results()
		}
		for name, search := range map[string]func(*Index) []Result{
			"SearchED":    func(ix *Index) []Result { return []Result{ix.SearchED(rs, nil)} },
			"SearchDTW":   func(ix *Index) []Result { return []Result{ix.SearchDTW(rs, 3, 0, nil)} },
			"scan LCSS":   func(ix *Index) []Result { return []Result{scanProbe(ix, rs, wedge.LCSS{Delta: 3, Eps: 0.5})} },
			"range ED":    func(ix *Index) []Result { return rangeProbe(ix, rs, wedge.ED{}, 4) },
			"range DTW":   func(ix *Index) []Result { return rangeProbe(ix, rs, wedge.DTW{R: 3}, 3) },
			"traced ED":   func(ix *Index) []Result { return traced(ix, wedge.ED{}, nearest()) },
			"traced DTW":  func(ix *Index) []Result { return traced(ix, wedge.DTW{R: 3}, core.NewCollector(0, 3)) },
			"traced LCSS": func(ix *Index) []Result { return traced(ix, wedge.LCSS{Delta: 3, Eps: 0.5}, nearest()) },
		} {
			if got, want := search(fleeting), search(direct); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v over fleeting rows: %+v, over stable rows %+v", name, opts, got, want)
			}
		}
	}
	if traces == 0 || fetchSpans == 0 {
		t.Fatalf("%d traces recorded, fetch spans %d", traces, fetchSpans)
	}
}

// One index serves concurrent probes, each through its caller's searcher:
// GOMAXPROCS goroutines (at least four) with distinct queries, every answer
// the flat scan's, the index record written only atomically, and each probe
// tracing into its own searcher's recorder, whose fetch spans are the fetches
// of its record. Run under -race (make race-concurrency); the root package's
// TestIndexConcurrentQueries shares one trace log across such probes.
func TestProbeConcurrentSearchers(t *testing.T) {
	n := 48
	db := syntheticDB(61, 200, n)
	ix := Build(db, 8)
	workers := max(4, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	fetched := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := ts.NewRand(int64(70 + w))
			for round := 0; round < 8; round++ {
				q := ts.ZNorm(ts.AddNoise(rng, db[(w*31+round)%len(db)], 0.05))
				rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
				wantIdx, wantDist := linearScan(rs, db, wedge.ED{})
				var st obs.SearchStats
				s := core.NewSearcher(rs, wedge.ED{}, core.Wedge, core.SearcherConfig{Obs: &st})
				rec := trace.NewRecorder("probe", trace.SpanCap)
				s.SetRecorder(rec)
				c := nearest()
				if err := ix.Probe(context.Background(), s, c); err != nil {
					t.Errorf("worker %d round %d: %v", w, round, err)
				}
				if got := c.Best(); got.Index != wantIdx || math.Abs(got.Dist-wantDist) > 1e-9 {
					t.Errorf("worker %d round %d: index (%d,%v) != linear (%d,%v)", w, round, got.Index, got.Dist, wantIdx, wantDist)
				}
				counts := st.Counts()
				if !counts.Reconciles() || counts.IndexFetches == 0 || counts.IndexFetches != counts.Comparisons {
					t.Errorf("worker %d round %d: searcher record %+v", w, round, counts)
				}
				var fetchSpans int64
				for _, sp := range rec.Spans() {
					if sp.Stage == trace.StageFetch {
						fetchSpans++
					}
				}
				if rec.Dropped() == 0 && fetchSpans != counts.IndexFetches {
					t.Errorf("worker %d round %d: %d fetch spans for %d fetches", w, round, fetchSpans, counts.IndexFetches)
				}
				fetched[w] += counts.IndexFetches
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, f := range fetched {
		total += f
	}
	if got := ix.Stats().Counts(); got.IndexFetches != total || !got.Reconciles() {
		t.Fatalf("%d fetches by the searchers' records, the index record %+v", total, got)
	}
}
