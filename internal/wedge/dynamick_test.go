package wedge

import (
	"math"
	"testing"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/synth"
	"lbkeogh/internal/ts"
)

func TestDynamicKStartsAtTwo(t *testing.T) {
	d := NewDynamicK(100, 5)
	if d.K() != 2 {
		t.Fatalf("initial K = %d, want 2", d.K())
	}
	d = NewDynamicK(1, 5)
	if d.K() != 1 {
		t.Fatalf("clamped initial K = %d, want 1", d.K())
	}
}

func TestDynamicKLadder(t *testing.T) {
	for _, maxK := range []int{1, 2, 3, 251, 1024} {
		for _, intervals := range []int{1, 3, 5, 20} {
			d := NewDynamicK(maxK, intervals)
			l := d.Ladder()
			if l[0] != 1 || l[len(l)-1] != maxK || len(l) > 2*intervals+1 {
				t.Errorf("maxK %d, intervals %d: ladder %v must run from 1 to maxK in at most %d rungs", maxK, intervals, l, 2*intervals+1)
			}
			for i := 1; i < len(l); i++ {
				if l[i] <= l[i-1] {
					t.Errorf("maxK %d, intervals %d: ladder %v is not strictly increasing", maxK, intervals, l)
				}
			}
			nearest := l[0]
			for _, k := range l {
				if max(k-2, 2-k) <= max(nearest-2, 2-nearest) {
					nearest = k // a tie between 1 and 3 goes up
				}
			}
			if d.K() != nearest || d.Current() != nearest {
				t.Errorf("maxK %d, intervals %d: starts at K %d, want %d, the rung nearest 2 of %v", maxK, intervals, d.K(), nearest, l)
			}
			// A one-rung ladder has nothing to try and must not index outside it.
			for i := 0; i < 20*window; i++ {
				d.Observe(int64(d.K()))
			}
		}
	}
}

// syntheticCost is what a comparison at wedge-set size k costs in the
// controller tests: unimodal in k with its minimum at best (68 % dearer one
// ladder rung away at the default resolution — a real scan's curve is flatter
// near its minimum, and there the controller roams the flat part), times
// noise with the shape a real scan has: most candidates cheap, one in twenty
// 20× dearer because it descended to the leaves.
func syntheticCost(rng interface{ Float64() float64 }, k, best int) int64 {
	r := float64(k) / float64(best)
	c := 100 * (r*r + 1/(r*r))
	if rng.Float64() < 0.05 {
		c *= 20
	}
	return int64(c)
}

// bestChangedAt says whether the i-th comparison of a synthetic scan improved
// the best-so-far: often at first, then ever more rarely, never after the
// 500th — which is how a real scan's best-so-far behaves, and is the only
// trigger the paper's controller has.
func bestChangedAt(i int) bool {
	return i < 500 && i&(i+1) == 0 // 0, 1, 3, 7, …, 255
}

// The reason the paper's controller was replaced: on a unimodal cost under
// heavy-tailed noise the windowed controller finds the cheapest rung and
// stays by it, and the one-comparison prober freezes wherever its last noisy
// round left it.
func TestDynamicKSettlesNearArgmin(t *testing.T) {
	const maxK, best, comparisons, seeds = 251, 9, 40000, 20
	ladder := NewDynamicK(maxK, 5).Ladder()
	lo, hi := 0, 0
	for i, k := range ladder {
		if k == best {
			lo, hi = ladder[i-1], ladder[i+1]
		}
	}
	if lo == 0 {
		t.Fatalf("the test's cheapest K %d is not a rung of %v", best, ladder)
	}
	near := func(k int) bool { return lo <= k && k <= hi }

	refNear := 0
	for seed := int64(1); seed <= seeds; seed++ {
		d, rng := NewDynamicK(maxK, 5), ts.NewRand(seed)
		ref, refRNG := newRefDynamicK(maxK, 5), ts.NewRand(seed)
		settled := 0
		for i := 0; i < comparisons; i++ {
			d.Observe(syntheticCost(rng, d.K(), best))
			ref.Observe(syntheticCost(refRNG, ref.K(), best), bestChangedAt(i))
			if i >= comparisons/2 && near(d.Current()) {
				settled++
			}
		}
		if frac := float64(settled) / (comparisons / 2); frac < 0.9 {
			t.Errorf("seed %d: settled K within one rung of %d for %.0f %% of the scan's second half, want >= 90 %%", seed, best, 100*frac)
		}
		if near(ref.Current()) {
			refNear++
		}
	}
	if refNear > seeds/2 {
		t.Errorf("the paper's controller ended within one rung of %d on %d of %d seeds; this test documents that it does not", best, refNear, seeds)
	}
	t.Logf("paper's controller within [%d, %d] at the end on %d of %d seeds", lo, hi, refNear, seeds)
}

// hmergeScan is a nearest-neighbour scan of db against the rotations in
// tree, asking nextK for each comparison's wedge-set size and reporting each
// comparison's steps and whether it improved the best-so-far to observe.
func hmergeScan(tree *Tree, db [][]float64, nextK func() int, observe func(steps int64, improved bool)) (best float64, at int, total int64) {
	var sc Scratch
	var steps stats.Tally
	best, at = math.Inf(1), -1
	for i, x := range db {
		res := tree.SearchInto(x, ED{}, nextK(), best, &steps, &sc, nil)
		if res.BestMember >= 0 {
			best, at = res.Dist, i
		}
		observe(res.Steps, res.BestMember >= 0)
	}
	return best, at, steps.Steps()
}

// On real scans — 4 000 projectile points against every rotation of each of
// eight held-out ones — the windowed controller spends at most 0.8 of the
// steps the paper's does, finds the same neighbours (H-Merge is exact at any
// K), and uses no frontier cut beyond its ladder's.
func TestDynamicKBeatsReferenceOnScan(t *testing.T) {
	const m, n, queries = 4000, 251, 8
	all := synth.ProjectilePoints(2006, m+queries, n)
	db := all[:m]
	var steps, refSteps int64
	for qi, query := range all[m:] {
		members := make([][]float64, n)
		for i := range members {
			members[i] = ts.Rotate(query, i)
		}
		tree := Build(members, func(i, j int) float64 { return dist.Euclidean(members[i], members[j], nil) }, nil)

		d := NewDynamicK(n, 5)
		tree.CutFrontiers(d.Ladder())
		got, at, spent := hmergeScan(tree, db, d.K, func(s int64, _ bool) { d.Observe(s) })
		if cuts := len(tree.frontier); cuts != len(d.Ladder()) {
			t.Errorf("query %d: the scan left %d frontier cuts cached, want the ladder's %d", qi, cuts, len(d.Ladder()))
		}
		ref := newRefDynamicK(n, 5)
		refGot, refAt, refSpent := hmergeScan(tree, db, ref.K, ref.Observe)
		if got != refGot || at != refAt { //lint:ignore floateq both are the same kernel's distance to the same row, bit for bit
			t.Fatalf("query %d: controllers disagree on the neighbour: (%v, %d) vs the reference's (%v, %d)", qi, got, at, refGot, refAt)
		}
		t.Logf("query %d: steps/comparison windowed %.1f, paper's %.1f", qi, float64(spent)/m, float64(refSpent)/m)
		steps, refSteps = steps+spent, refSteps+refSpent
	}
	if float64(steps) > 0.8*float64(refSteps) {
		t.Errorf("windowed controller spent %d steps, the paper's %d: want at most 0.8 of it", steps, refSteps)
	}
}
