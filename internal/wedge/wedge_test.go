package wedge

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
)

func buildRandomTree(seed int64, m, n int) (*Tree, [][]float64) {
	rng := ts.NewRand(seed)
	members := make([][]float64, m)
	for i := range members {
		members[i] = ts.RandomWalk(rng, n)
	}
	tree := Build(members, func(i, j int) float64 {
		return dist.Euclidean(members[i], members[j], nil)
	}, nil)
	return tree, members
}

func bruteMin(q []float64, members [][]float64, k Kernel) (float64, int) {
	best, bestIdx := math.Inf(1), -1
	for i, m := range members {
		d, _ := k.Distance(q, m, -1, nil)
		if d < best {
			best, bestIdx = d, i
		}
	}
	return best, bestIdx
}

func TestTreeStructure(t *testing.T) {
	tree, members := buildRandomTree(1, 9, 32)
	if tree.Members() != 9 || tree.Len() != 32 {
		t.Fatalf("tree shape wrong: %d members, len %d", tree.Members(), tree.Len())
	}
	// Every node's envelope contains all leaves below it.
	d := tree.Dendrogram()
	for id := range d.Nodes {
		env := tree.Envelope(id)
		for _, leaf := range d.Leaves(id) {
			if !env.Contains(members[leaf], 1e-12) {
				t.Fatalf("node %d envelope misses leaf %d", id, leaf)
			}
		}
	}
}

func TestSearchMatchesBruteForceED(t *testing.T) {
	tree, members := buildRandomTree(2, 16, 40)
	rng := ts.NewRand(3)
	for trial := 0; trial < 20; trial++ {
		q := ts.RandomWalk(rng, 40)
		want, wantIdx := bruteMin(q, members, ED{})
		for _, K := range []int{1, 2, 4, 8, 16} {
			res := tree.Search(q, ED{}, K, -1, LIFO, nil)
			if math.Abs(res.Dist-want) > 1e-9 || res.BestMember != wantIdx {
				t.Fatalf("K=%d: H-Merge (%v,%d) != brute (%v,%d)",
					K, res.Dist, res.BestMember, want, wantIdx)
			}
		}
	}
}

func TestSearchMatchesBruteForceDTW(t *testing.T) {
	tree, members := buildRandomTree(4, 12, 32)
	rng := ts.NewRand(5)
	for _, R := range []int{0, 2, 5} {
		k := DTW{R: R}
		for trial := 0; trial < 10; trial++ {
			q := ts.RandomWalk(rng, 32)
			want, wantIdx := bruteMin(q, members, k)
			for _, K := range []int{1, 3, 12} {
				res := tree.Search(q, k, K, -1, LIFO, nil)
				if math.Abs(res.Dist-want) > 1e-9 || res.BestMember != wantIdx {
					t.Fatalf("R=%d K=%d: H-Merge (%v,%d) != brute (%v,%d)",
						R, K, res.Dist, res.BestMember, want, wantIdx)
				}
			}
		}
	}
}

func TestSearchMatchesBruteForceLCSS(t *testing.T) {
	tree, members := buildRandomTree(6, 10, 28)
	rng := ts.NewRand(7)
	k := LCSS{Delta: 3, Eps: 0.25}
	for trial := 0; trial < 10; trial++ {
		q := ts.RandomWalk(rng, 28)
		want, _ := bruteMin(q, members, k)
		res := tree.Search(q, k, 4, -1, LIFO, nil)
		if math.Abs(res.Dist-want) > 1e-9 {
			t.Fatalf("LCSS H-Merge %v != brute %v", res.Dist, want)
		}
	}
}

func TestSearchThresholdSemantics(t *testing.T) {
	tree, members := buildRandomTree(8, 8, 24)
	rng := ts.NewRand(9)
	q := ts.RandomWalk(rng, 24)
	want, _ := bruteMin(q, members, ED{})
	res := tree.Search(q, ED{}, 4, want*0.9, LIFO, nil)
	if !math.IsInf(res.Dist, 1) || res.BestMember != -1 {
		t.Fatalf("threshold below min should yield +Inf, got %+v", res)
	}
	res = tree.Search(q, ED{}, 4, want*1.1, LIFO, nil)
	if math.Abs(res.Dist-want) > 1e-9 {
		t.Fatalf("threshold above min should find exact: %v vs %v", res.Dist, want)
	}
}

func TestSearchStepsLessThanBruteForceOnClusteredData(t *testing.T) {
	// Members are tiny perturbations of one base series: the root wedge is
	// thin and should prune nearly everything for a far-away query.
	rng := ts.NewRand(10)
	base := ts.RandomWalk(rng, 64)
	members := make([][]float64, 32)
	for i := range members {
		members[i] = ts.AddNoise(rng, base, 0.01)
	}
	tree := Build(members, func(i, j int) float64 {
		return dist.Euclidean(members[i], members[j], nil)
	}, nil)

	far := make([]float64, 64)
	for i := range far {
		far[i] = 50
	}
	var wedgeCnt, bruteCnt stats.Tally
	res := tree.Search(far, ED{}, 1, 1.0, LIFO, &wedgeCnt) // threshold 1: prune all
	if !math.IsInf(res.Dist, 1) {
		t.Fatal("far query should be pruned entirely")
	}
	for _, m := range members {
		dist.EuclideanEA(far, m, 1.0, &bruteCnt)
	}
	if wedgeCnt.Steps() >= bruteCnt.Steps() {
		t.Fatalf("wedge steps %d not below brute EA steps %d", wedgeCnt.Steps(), bruteCnt.Steps())
	}
}

// Property: H-Merge is exact for arbitrary K and kernel.
func TestSearchExactnessProperty(t *testing.T) {
	tree, members := buildRandomTree(11, 14, 24)
	rng := ts.NewRand(12)
	f := func(kSeed, kernSeed uint8) bool {
		q := ts.RandomWalk(rng, 24)
		K := 1 + int(kSeed)%14
		var kern Kernel = ED{}
		if kernSeed%2 == 1 {
			kern = DTW{R: 1 + int(kernSeed)%4}
		}
		want, _ := bruteMin(q, members, kern)
		res := tree.Search(q, kern, K, -1, LIFO, nil)
		return math.Abs(res.Dist-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchQueryLengthMismatchPanics(t *testing.T) {
	tree, _ := buildRandomTree(13, 4, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on length mismatch")
		}
	}()
	tree.Search(make([]float64, 8), ED{}, 2, -1, LIFO, nil)
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on empty member set")
		}
	}()
	Build(nil, nil, nil)
}

func TestBuildChargesSetupCost(t *testing.T) {
	var cnt stats.Tally
	rng := ts.NewRand(14)
	members := make([][]float64, 8)
	for i := range members {
		members[i] = ts.RandomWalk(rng, 32)
	}
	Build(members, func(i, j int) float64 {
		return dist.Euclidean(members[i], members[j], nil)
	}, &cnt)
	if cnt.Steps() != int64(7*32) { // m-1 merges, n steps each
		t.Fatalf("setup steps = %d, want %d", cnt.Steps(), 7*32)
	}
}

// The distance matrix comes from a pool shared by every build in the process
// and arrives dirty: builds of different sizes racing each other must each
// raise the tree a lone build over a fresh matrix raises.
func TestBuildConcurrentSharesMatrixPool(t *testing.T) {
	sizes := []int{5, 40, 17, 64, 9, 33}
	want := make([]*Tree, len(sizes))
	for i, m := range sizes {
		want[i], _ = buildRandomTree(int64(30+i), m, 16)
	}
	var wg sync.WaitGroup
	for g := range sizes {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < 40; b++ {
				i := (g + b) % len(sizes)
				got, _ := buildRandomTree(int64(30+i), sizes[i], 16)
				if !reflect.DeepEqual(got.dend, want[i].dend) || !reflect.DeepEqual(got.env, want[i].env) {
					t.Errorf("goroutine %d build %d (m=%d): tree differs from the serial build", g, b, sizes[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestKernelMetadata(t *testing.T) {
	if (ED{}).Name() != "euclidean" || (ED{}).Radius() != 0 {
		t.Fatal("ED kernel metadata wrong")
	}
	k := DTW{R: 7}
	if k.Name() != "dtw" || k.Radius() != 7 {
		t.Fatal("DTW kernel metadata wrong")
	}
	l := LCSS{Delta: 3, Eps: 0.5}
	if l.Name() != "lcss" || l.Radius() != 3 {
		t.Fatal("LCSS kernel metadata wrong")
	}
}

// sameEnvelope reports whether two envelopes agree exactly, sample for sample.
func sameEnvelope(a, b envelope.Envelope) bool {
	return ts.Equal(a.U, b.U, 0) && ts.Equal(a.L, b.L, 0)
}

// The widened tree is built by widening the leaves and merging upward; every
// node must come out exactly equal to widening that node's own envelope, the
// set-up must cost what it always did (one step per sample per node, charged
// to the first comparison only, and to nobody when the index's uncharged
// FrontierEnvelopes call built the radius first), and FrontierEnvelopes must
// hand the index the same envelopes whether or not a scan ran before it.
func TestWidenedEnvelopesMatchExpandDTW(t *testing.T) {
	const n = 24
	rng := ts.NewRand(20)
	base := ts.RandomWalk(rng, n)
	rotations := func(s []float64, shifts ...int) [][]float64 {
		var out [][]float64
		for _, k := range shifts {
			out = append(out, ts.Rotate(s, k))
		}
		return out
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	random := make([][]float64, 13)
	for i := range random {
		random[i] = ts.RandomWalk(rng, n)
	}
	cases := []struct {
		name    string
		members [][]float64
	}{
		{"m=1", [][]float64{base}},
		{"m=2", random[:2]},
		{"random", random},
		{"rotations", rotations(base, all...)},
		{"mirror", append(rotations(base, all...), rotations(ts.Mirror(base), all...)...)},
		{"rotation-limited", rotations(base, 0, 1, 2, 3, n-3, n-2, n-1)},
	}
	q := ts.RandomWalk(rng, n)
	for _, tc := range cases {
		members := tc.members
		m := len(members)
		for _, R := range []int{0, 1, 5, n - 1} {
			build := func() *Tree {
				return Build(members, func(i, j int) float64 {
					return dist.Euclidean(members[i], members[j], nil)
				}, nil)
			}
			// steps the first and the second search of a tree are charged
			charged := func(tree *Tree) (first, second int64) {
				var a, b stats.Tally
				tree.Search(q, DTW{R: R}, m, -1, LIFO, &a)
				tree.Search(q, DTW{R: R}, m, -1, LIFO, &b)
				return a.Steps(), b.Steps()
			}
			setup := int64(0)
			if R > 0 { // radius 0 is the base tree, paid for by Build
				setup = int64((2*m - 1) * n)
			}

			scanned := build()
			first, second := charged(scanned)
			if got := first - second; got != setup {
				t.Errorf("%s R=%d: first search charged %d widening steps, want %d", tc.name, R, got, setup)
			}
			envs := scanned.envelopesFor(R, nil)
			for id := range envs {
				if want := scanned.Envelope(id).ExpandDTW(R); !sameEnvelope(envs[id], want) {
					t.Fatalf("%s R=%d: node %d differs from its own envelope widened", tc.name, R, id)
				}
			}

			fresh := build()
			for K := 1; K <= m; K++ {
				before, after := fresh.FrontierEnvelopes(K, R), scanned.FrontierEnvelopes(K, R)
				if len(before) != len(after) {
					t.Fatalf("%s R=%d K=%d: %d envelopes before a scan, %d after", tc.name, R, K, len(before), len(after))
				}
				for i := range before {
					if !sameEnvelope(before[i], after[i]) {
						t.Fatalf("%s R=%d K=%d: envelope %d depends on whether a scan ran first", tc.name, R, K, i)
					}
				}
			}
			if f, s := charged(fresh); f != s || s != second {
				t.Errorf("%s R=%d: searches after FrontierEnvelopes charged %d then %d steps, want %d both times", tc.name, R, f, s, second)
			}
		}
	}
}

// TestScratchReuseMatchesFreshSearch drives one Scratch through searches that
// change K, kernel radius and even the tree — everything its
// cached envelopes and frontier depend on — and holds each result, step count
// and outcome tally to a throwaway-scratch Search of the same arguments.
func TestScratchReuseMatchesFreshSearch(t *testing.T) {
	treeA, _ := buildRandomTree(21, 16, 32)
	treeB, _ := buildRandomTree(22, 9, 32)
	// Widen each tree once up front, so neither side of a comparison below
	// is the one charged for building the envelopes.
	for _, tree := range []*Tree{treeA, treeB} {
		tree.FrontierEnvelopes(1, 3)
	}
	rng := ts.NewRand(23)
	var sc Scratch
	for trial := 0; trial < 200; trial++ {
		tree := treeA
		if trial%7 == 3 {
			tree = treeB
		}
		var k Kernel = ED{}
		if trial%5 >= 3 {
			k = DTW{R: 3}
		}
		K := trial * 5 % (tree.MaxK() + 2) // 0 and MaxK+1 included: Frontier clamps them
		q := ts.RandomWalk(rng, 32)
		r := -1.0
		if trial%3 == 0 {
			r = 4
		}

		var fresh Scratch
		var freshSteps, steps stats.Tally
		want := tree.SearchInto(q, k, K, r, &freshSteps, &fresh, nil)
		sc.Counts = obs.Counts{}
		sc.PruneByLevel = [obs.MaxPruneLevels]int64{}
		got := tree.SearchInto(q, k, K, r, &steps, &sc, nil)
		if got != want {
			t.Fatalf("trial %d: reused scratch %+v, fresh %+v", trial, got, want)
		}
		if steps.Steps() != want.Steps || sc.Counts != fresh.Counts || sc.PruneByLevel != fresh.PruneByLevel {
			t.Fatalf("trial %d: reused tallies (%d steps, %+v, %v), fresh (%d, %+v, %v)", trial,
				steps.Steps(), sc.Counts, sc.PruneByLevel, want.Steps, fresh.Counts, fresh.PruneByLevel)
		}
		if members := int64(tree.Members()); sc.Counts.FullDistEvals+sc.Counts.EarlyAbandons+
			sc.Counts.WedgePrunedMembers+sc.Counts.WedgeLeafLBPrunes != members {
			t.Fatalf("trial %d: outcomes %+v do not cover %d members", trial, sc.Counts, members)
		}
	}
}

// TestKernelLeafCascade holds every kernel's Leaf to its exact distance: an
// unbounded leaf returns Distance bit for bit, a threshold just above it
// never disposes of the member, and one below it always does, by the bound
// or by the exact kernel. A threshold above the distance must find it even
// for the DTW leaf, whose abandon test charges the rows still to come.
func TestKernelLeafCascade(t *testing.T) {
	rng := ts.NewRand(17)
	const n = 48
	cb := make([]float64, n+1)
	for _, k := range []Kernel{ED{}, DTW{R: 0}, DTW{R: 4}, DTW{R: -1}, LCSS{Delta: 3, Eps: 0.5}} {
		for trial := 0; trial < 40; trial++ {
			q, c := ts.RandomWalk(rng, n), ts.RandomWalk(rng, n)
			env := envelope.Envelope{U: c, L: c}.ExpandDTW(k.Radius())
			want, _ := k.Distance(q, c, -1, nil)
			got, out := k.Leaf(q, c, env, -1, cb, nil)
			if out != LeafExact || got != want { //lint:ignore floateq the leaf must run the very kernel Distance does
				t.Fatalf("%s unbounded leaf = %v (%d), want %v", k.Name(), got, out, want)
			}
			if got, out := k.Leaf(q, c, env, math.Nextafter(want, math.Inf(1)), cb, nil); out != LeafExact || got != want { //lint:ignore floateq as above
				t.Fatalf("%s leaf under r just above %v = %v (%d)", k.Name(), want, got, out)
			}
			if want > 0 {
				if _, out := k.Leaf(q, c, env, want/2, cb, nil); out == LeafExact {
					t.Fatalf("%s leaf kept a member at %v under r %v", k.Name(), want, want/2)
				}
			}
		}
	}
}

// A kernel's exact distance runs once per surviving member of every
// comparison: in steady state it allocates nothing.
func TestKernelDistanceDoesNotAllocate(t *testing.T) {
	rng := ts.NewRand(109)
	q, c := ts.RandomWalk(rng, 251), ts.RandomWalk(rng, 251)
	var cnt stats.Tally
	for _, k := range []Kernel{ED{}, DTW{R: 5}} {
		k.Distance(q, c, math.Inf(1), &cnt) // steady state: any lazy setup is done
		if a := int(testing.AllocsPerRun(100, func() { k.Distance(q, c, math.Inf(1), &cnt) })); a != 0 {
			t.Errorf("%T.Distance(n=251) allocates %d times per call, want 0", k, a)
		}
	}
}
