package envelope

import (
	"math"
	"testing"
	"testing/quick"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
)

func randomSet(seed int64, k, n int) [][]float64 {
	rng := ts.NewRand(seed)
	set := make([][]float64, k)
	for i := range set {
		set[i] = ts.RandomWalk(rng, n)
	}
	return set
}

func TestNewEnclosesMembers(t *testing.T) {
	set := randomSet(1, 5, 64)
	e := New(set...)
	for i, s := range set {
		if !e.Contains(s, 0) {
			t.Fatalf("member %d escapes its own envelope", i)
		}
	}
}

func TestNewSingleSeriesDegenerate(t *testing.T) {
	s := []float64{1, 2, 3}
	e := New(s)
	if !ts.Equal(e.U, s, 0) || !ts.Equal(e.L, s, 0) {
		t.Fatal("single-series envelope must have U == L == series")
	}
	// LB_Keogh against a singleton wedge is the Euclidean distance.
	q := []float64{2, 2, 2}
	lb, _ := LBKeogh(q, e, -1, nil)
	ed := dist.Euclidean(q, s, nil)
	if math.Abs(lb-ed) > 1e-12 {
		t.Fatalf("singleton LB_Keogh = %v, want ED %v", lb, ed)
	}
}

func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on empty input")
		}
	}()
	New()
}

func TestNewPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on length mismatch")
		}
	}()
	New([]float64{1, 2}, []float64{1})
}

func TestMergeContainsChildren(t *testing.T) {
	set := randomSet(2, 6, 48)
	a := New(set[0], set[1], set[2])
	b := New(set[3], set[4], set[5])
	m := Merge(a, b)
	for _, s := range set {
		if !m.Contains(s, 0) {
			t.Fatal("merged wedge must contain every child member")
		}
	}
}

func TestMergeEqualsNew(t *testing.T) {
	set := randomSet(3, 4, 32)
	direct := New(set...)
	merged := Merge(New(set[0], set[1]), New(set[2], set[3]))
	if !ts.Equal(direct.U, merged.U, 0) || !ts.Equal(direct.L, merged.L, 0) {
		t.Fatal("Merge of sub-wedges must equal envelope of union")
	}
}

// Proposition 1: LB_Keogh(Q, W) <= ED(Q, C_s) for every member C_s.
func TestProposition1(t *testing.T) {
	rng := ts.NewRand(4)
	for trial := 0; trial < 50; trial++ {
		set := randomSet(int64(trial+100), 4, 40)
		e := New(set...)
		q := ts.RandomWalk(rng, 40)
		lb, _ := LBKeogh(q, e, -1, nil)
		for _, s := range set {
			ed := dist.Euclidean(q, s, nil)
			if lb > ed+1e-9 {
				t.Fatalf("LB_Keogh %v exceeds ED %v", lb, ed)
			}
		}
	}
}

// Proposition 2: LB_KeoghDTW(Q, W) <= DTW_R(Q, C_s) for every member.
func TestProposition2(t *testing.T) {
	rng := ts.NewRand(5)
	for _, R := range []int{0, 1, 3, 8} {
		for trial := 0; trial < 20; trial++ {
			set := randomSet(int64(trial+500), 3, 36)
			e := New(set...).ExpandDTW(R)
			q := ts.RandomWalk(rng, 36)
			lb, _ := LBKeogh(q, e, -1, nil)
			for _, s := range set {
				d := dist.DTW(q, s, R, nil)
				if lb > d+1e-9 {
					t.Fatalf("R=%d: LB_KeoghDTW %v exceeds DTW %v", R, lb, d)
				}
			}
		}
	}
}

func TestLBKeoghInsideEnvelopeIsZero(t *testing.T) {
	set := randomSet(6, 5, 32)
	e := New(set...)
	lb, abandoned := LBKeogh(set[2], e, -1, nil)
	if abandoned || lb != 0 { //lint:ignore floateq a member incurs zero discrepancy at every sample, exactly
		t.Fatalf("LB for a member must be 0, got (%v,%v)", lb, abandoned)
	}
}

func TestLBKeoghEarlyAbandon(t *testing.T) {
	n := 64
	e := New(make([]float64, n)) // flat zero envelope
	q := make([]float64, n)
	q[0] = 10
	var cnt stats.Tally
	lb, abandoned := LBKeogh(q, e, 1, &cnt)
	if !abandoned || !math.IsInf(lb, 1) {
		t.Fatalf("want abandonment, got (%v,%v)", lb, abandoned)
	}
	if cnt.Steps() != 1 {
		t.Fatalf("abandoned after %d steps, want 1", cnt.Steps())
	}
}

func TestLBKeoghThresholdExact(t *testing.T) {
	set := randomSet(7, 3, 40)
	e := New(set...)
	rng := ts.NewRand(8)
	q := ts.RandomWalk(rng, 40)
	full, _ := LBKeogh(q, e, -1, nil)
	got, abandoned := LBKeogh(q, e, full+0.01, nil)
	if abandoned || math.Abs(got-full) > 1e-12 {
		t.Fatalf("threshold above LB must not abandon: (%v,%v) want %v", got, abandoned, full)
	}
}

func TestExpandDTWWidens(t *testing.T) {
	set := randomSet(9, 2, 50)
	e := New(set...)
	for _, R := range []int{0, 1, 5, 49} {
		x := e.ExpandDTW(R)
		for i := range x.U {
			if x.U[i] < e.U[i]-1e-12 || x.L[i] > e.L[i]+1e-12 {
				t.Fatalf("R=%d: expansion must widen the envelope", R)
			}
		}
	}
	zero := e.ExpandDTW(0)
	if !ts.Equal(zero.U, e.U, 0) || !ts.Equal(zero.L, e.L, 0) {
		t.Fatal("R=0 expansion must be identity")
	}
}

// TestExpandDTWAllocatesOnlyItsResult pins ExpandDTW at a narrow band to its
// one result buffer: the deque ring stays on the stack and slidingMax, which
// the scan tests reach only during a first DTW search, allocates nothing.
func TestExpandDTWAllocatesOnlyItsResult(t *testing.T) {
	e := New(randomSet(9, 2, 64)...)
	var x Envelope
	if a := int(testing.AllocsPerRun(100, func() { x = e.ExpandDTW(5) })); a != 1 {
		t.Errorf("ExpandDTW(5) allocates %d times per call, want 1 (its result buffer)", a)
	}
	if x.Len() != e.Len() {
		t.Fatalf("expanded length %d, want %d", x.Len(), e.Len())
	}
}

func TestNewAllocatesOnlyItsResult(t *testing.T) {
	set := randomSet(11, 4, 64)
	var e Envelope
	if a := int(testing.AllocsPerRun(100, func() { e = New(set...) })); a != 2 {
		t.Errorf("New allocates %d times per call, want 2 (its upper and lower buffers)", a)
	}
	if e.Len() != 64 {
		t.Fatalf("envelope length %d, want 64", e.Len())
	}
}

// The deque-based expansion must match a naive O(nR) reference exactly, at
// narrow bands (deque ring on the stack) and wide ones (ring on the heap),
// and on monotone and constant series, where the deque fills a whole window
// or collapses to one entry.
func TestExpandDTWMatchesNaive(t *testing.T) {
	rng := ts.NewRand(10)
	for trial := 0; trial < 20; trial++ {
		n := 30 + trial
		random := ts.RandomSeries(rng, n)
		rising, falling, flat := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range rising {
			rising[i], falling[i], flat[i] = float64(i), float64(-i), 2.5
		}
		for _, s := range [][]float64{random, rising, falling, flat} {
			e := New(s)
			for _, R := range []int{trial % 7, n / 2, n - 1, n + 5} {
				got := e.ExpandDTW(R)
				for i := 0; i < n; i++ {
					lo, hi := i-R, i+R
					if lo < 0 {
						lo = 0
					}
					if hi > n-1 {
						hi = n - 1
					}
					u, l := math.Inf(-1), math.Inf(1)
					for j := lo; j <= hi; j++ {
						u = math.Max(u, s[j])
						l = math.Min(l, s[j])
					}
					if math.Float64bits(got.U[i]) != math.Float64bits(u) || math.Float64bits(got.L[i]) != math.Float64bits(l) {
						t.Fatalf("trial %d R=%d i=%d: deque (%v,%v) naive (%v,%v)", trial, R, i, got.U[i], got.L[i], u, l)
					}
				}
			}
		}
	}
}

func TestExpandDTWFullWindowIsGlobalMinMax(t *testing.T) {
	s := []float64{3, -1, 4, 1, 5}
	e := New(s).ExpandDTW(10)
	for i := range s {
		if e.U[i] != 5 || e.L[i] != -1 { //lint:ignore floateq envelope bounds are copied from the input, not computed
			t.Fatal("full-window expansion must be global min/max everywhere")
		}
	}
}

// LCSS: the envelope match count upper-bounds the true LCSS similarity for
// every member, for any eps and window delta.
func TestLCSSUpperBoundProperty(t *testing.T) {
	rng := ts.NewRand(11)
	f := func(dSeed, eSeed uint8) bool {
		n := 32
		delta := int(dSeed) % 8
		eps := float64(eSeed) / 128
		set := [][]float64{ts.RandomWalk(rng, n), ts.RandomWalk(rng, n), ts.RandomWalk(rng, n)}
		e := New(set...).ExpandDTW(delta)
		q := ts.RandomWalk(rng, n)
		ub := LCSSUpperBound(q, e, eps, nil)
		for _, s := range set {
			if sim := dist.LCSS(q, s, delta, eps, nil); sim > ub {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: LB_Keogh never exceeds the Euclidean distance to any member of a
// randomly assembled wedge (random sizes, random walks).
func TestLBKeoghAdmissibleProperty(t *testing.T) {
	rng := ts.NewRand(12)
	f := func(kSeed uint8) bool {
		n := 24
		k := 1 + int(kSeed)%6
		set := make([][]float64, k)
		for i := range set {
			set[i] = ts.RandomWalk(rng, n)
		}
		e := New(set...)
		q := ts.RandomWalk(rng, n)
		lb, _ := LBKeogh(q, e, -1, nil)
		for _, s := range set {
			if lb > dist.Euclidean(q, s, nil)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// LBKeoghSuffix is LBKeogh summed from the end: cb[i] is the squared bound
// over positions i.. (computed here term by term in the same order), cb[n]
// is 0, cb[0] is the squared result, and the value agrees with LBKeogh's.
// Abandoning is LBKeogh's — on the running sum exceeding r² — and charges
// the positions examined, counted from the end.
func TestLBKeoghSuffix(t *testing.T) {
	rng := ts.NewRand(13)
	const n = 40
	cb := make([]float64, n+1)
	for trial := 0; trial < 30; trial++ {
		e := New(randomSet(int64(trial+700), 3, n)...).ExpandDTW(trial % 5)
		q := ts.RandomWalk(rng, n)
		for i := range cb {
			cb[i] = math.NaN()
		}
		var cnt stats.Tally
		lb, abandoned := LBKeoghSuffix(q, e, -1, cb, &cnt)
		if abandoned || cnt.Steps() != n {
			t.Fatalf("unbounded suffix LB abandoned=%v after %d steps", abandoned, cnt.Steps())
		}
		var acc float64
		if cb[n] != 0 { //lint:ignore floateq the end of the suffix is stored as the constant 0
			t.Fatalf("cb[n] = %v, want 0", cb[n])
		}
		for i := n - 1; i >= 0; i-- {
			if q[i] > e.U[i] {
				acc += (q[i] - e.U[i]) * (q[i] - e.U[i])
			} else if q[i] < e.L[i] {
				acc += (q[i] - e.L[i]) * (q[i] - e.L[i])
			}
			if math.Float64bits(cb[i]) != math.Float64bits(acc) {
				t.Fatalf("cb[%d] = %v, suffix sum %v", i, cb[i], acc)
			}
		}
		if math.Float64bits(lb) != math.Float64bits(math.Sqrt(cb[0])) {
			t.Fatalf("LB %v != sqrt(cb[0]) %v", lb, math.Sqrt(cb[0]))
		}
		if fwd, _ := LBKeogh(q, e, -1, nil); math.Abs(lb-fwd) > 1e-12*(1+fwd) {
			t.Fatalf("suffix LB %v, LBKeogh %v", lb, fwd)
		}
		if lb > 0 {
			if got, ab := LBKeoghSuffix(q, e, math.Nextafter(lb, math.Inf(1)), cb, nil); ab || math.Float64bits(got) != math.Float64bits(lb) {
				t.Fatalf("threshold above the bound: (%v, %v), want %v", got, ab, lb)
			}
		}
	}
	// Abandon: only the last position lies outside a flat zero wedge.
	z := New(make([]float64, n))
	q := make([]float64, n)
	q[n-1] = 10
	var cnt stats.Tally
	if lb, abandoned := LBKeoghSuffix(q, z, 1, cb, &cnt); !abandoned || !math.IsInf(lb, 1) || cnt.Steps() != 1 {
		t.Fatalf("want abandonment after 1 step, got (%v, %v) after %d", lb, abandoned, cnt.Steps())
	}
	if a := testing.AllocsPerRun(100, func() { LBKeoghSuffix(q, z, -1, cb, &cnt) }); a > 0 {
		t.Errorf("LBKeoghSuffix allocates %v times per call", a)
	}
}

// A negative radius is the unconstrained path, for ExpandDTW as for
// dist.DTW: it widens by n-1, never less.
func TestExpandDTWNegativeIsUnconstrained(t *testing.T) {
	s := []float64{3, -1, 4, 1, 5}
	e := New(s)
	want := e.ExpandDTW(len(s) - 1)
	for _, R := range []int{-1, -7} {
		got := e.ExpandDTW(R)
		if !ts.Equal(got.U, want.U, 0) || !ts.Equal(got.L, want.L, 0) {
			t.Fatalf("R=%d: %v/%v, want the full-window %v/%v", R, got.U, got.L, want.U, want.L)
		}
	}
}
