package dist

// Cross-checks against naive textbook reference implementations: the banded,
// rolling-array, early-abandoning production kernels must agree exactly with
// simple full-matrix dynamic programs on random inputs.

import (
	"math"
	"testing"
	"testing/quick"

	"lbkeogh/internal/envelope"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
)

// naiveDTW is the O(n²)-memory textbook DTW with a Sakoe-Chiba band.
func naiveDTW(q, c []float64, R int) float64 {
	n := len(q)
	if n == 0 {
		return 0
	}
	if R < 0 || R > n-1 {
		R = n - 1
	}
	dp := make([][]float64, n)
	for i := range dp {
		dp[i] = make([]float64, n)
		for j := range dp[i] {
			dp[i][j] = math.Inf(1)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j < i-R || j > i+R {
				continue
			}
			d := q[i] - c[j]
			cost := d * d
			switch {
			case i == 0 && j == 0:
				dp[i][j] = cost
			case i == 0:
				dp[i][j] = cost + dp[i][j-1]
			case j == 0:
				dp[i][j] = cost + dp[i-1][j]
			default:
				dp[i][j] = cost + math.Min(dp[i-1][j], math.Min(dp[i][j-1], dp[i-1][j-1]))
			}
		}
	}
	return math.Sqrt(dp[n-1][n-1])
}

// naiveLCSS is the O(n²)-memory textbook LCSS with a matching window.
func naiveLCSS(q, c []float64, delta int, eps float64) int {
	n := len(q)
	if n == 0 {
		return 0
	}
	if delta < 0 || delta > n-1 {
		delta = n - 1
	}
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, n+1)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			best := dp[i-1][j]
			if dp[i][j-1] > best {
				best = dp[i][j-1]
			}
			if abs(i-j) <= delta && math.Abs(q[i-1]-c[j-1]) <= eps {
				if dp[i-1][j-1]+1 > best {
					best = dp[i-1][j-1] + 1
				}
			}
			dp[i][j] = best
		}
	}
	return dp[n][n]
}

// refDTWBanded is the full-width rolling-row kernel that dtwBanded replaced,
// kept verbatim (minus the row pool) as the oracle for distance, abandon
// flag and step count: every row refilled to +Inf, explicit first-row and
// first-column cases. A non-nil cb adds the suffix bound on the rows below
// to each row's abandon test.
func refDTWBanded(q, c []float64, R int, r float64, cb []float64) (dist float64, abandoned bool, steps int64) {
	n := len(q)
	if n == 0 {
		return 0, false, 0
	}
	if R < 0 || R > n-1 {
		R = n - 1
	}
	r2 := math.Inf(1)
	if r >= 0 {
		r2 = r * r
	}
	prev, curr := make([]float64, n), make([]float64, n)
	for j := range prev {
		prev[j] = math.Inf(1)
	}
	for i := 0; i < n; i++ {
		lo := i - R
		if lo < 0 {
			lo = 0
		}
		hi := i + R
		if hi > n-1 {
			hi = n - 1
		}
		rowMin := math.Inf(1)
		for j := range curr {
			curr[j] = math.Inf(1)
		}
		for j := lo; j <= hi; j++ {
			d := q[i] - c[j]
			cost := d * d
			steps++
			var best float64
			switch {
			case i == 0 && j == 0:
				best = 0
			case i == 0:
				best = curr[j-1]
			case j == 0:
				best = prev[j]
			default:
				best = prev[j]
				if prev[j-1] < best {
					best = prev[j-1]
				}
				if curr[j-1] < best {
					best = curr[j-1]
				}
			}
			curr[j] = cost + best
			if curr[j] < rowMin {
				rowMin = curr[j]
			}
		}
		if cb != nil {
			rowMin += cb[i+1]
		}
		if rowMin > r2 {
			return Inf, true, steps
		}
		prev, curr = curr, prev
	}
	total := prev[n-1]
	if total > r2 {
		return Inf, true, steps
	}
	return math.Sqrt(total), false, steps
}

// refLCSS is the full-width rolling-row kernel that LCSS replaced, kept
// verbatim (minus the row pool): every row zeroed, the left-edge carry
// copied in, the band's last cell propagated to the row's end.
func refLCSS(q, c []float64, delta int, eps float64) (sim int, steps int64) {
	n := len(q)
	if n == 0 {
		return 0, 0
	}
	if delta < 0 || delta > n-1 {
		delta = n - 1
	}
	prev, curr := make([]int, n+1), make([]int, n+1)
	for i := 1; i <= n; i++ {
		lo := i - delta
		if lo < 1 {
			lo = 1
		}
		hi := i + delta
		if hi > n {
			hi = n
		}
		for j := range curr {
			curr[j] = 0
		}
		if lo > 1 {
			curr[lo-1] = prev[lo-1]
		}
		for j := lo; j <= hi; j++ {
			steps++
			d := q[i-1] - c[j-1]
			if d < 0 {
				d = -d
			}
			if d <= eps {
				curr[j] = prev[j-1] + 1
			} else {
				curr[j] = prev[j]
				if curr[j-1] > curr[j] {
					curr[j] = curr[j-1]
				}
			}
		}
		for j := hi + 1; j <= n; j++ {
			curr[j] = curr[hi]
		}
		prev, curr = curr, prev
	}
	return prev[n], steps
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestDTWMatchesNaiveReference(t *testing.T) {
	rng := ts.NewRand(100)
	for trial := 0; trial < 30; trial++ {
		n := 5 + trial
		q := ts.RandomSeries(rng, n)
		c := ts.RandomSeries(rng, n)
		for _, R := range []int{0, 1, 2, 5, n - 1, -1} {
			got := DTW(q, c, R, nil)
			want := naiveDTW(q, c, R)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d R=%d: banded %v != naive %v", n, R, got, want)
			}
		}
	}
}

func TestDTWNaiveProperty(t *testing.T) {
	rng := ts.NewRand(101)
	f := func(rSeed uint8) bool {
		n := 20
		q := ts.RandomWalk(rng, n)
		c := ts.RandomWalk(rng, n)
		R := int(rSeed) % n
		return math.Abs(DTW(q, c, R, nil)-naiveDTW(q, c, R)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLCSSMatchesNaiveReference(t *testing.T) {
	rng := ts.NewRand(102)
	for trial := 0; trial < 30; trial++ {
		n := 4 + trial
		q := ts.RandomSeries(rng, n)
		c := ts.RandomSeries(rng, n)
		for _, delta := range []int{0, 1, 3, n - 1, -1} {
			for _, eps := range []float64{0.1, 0.5, 1.5} {
				got := LCSS(q, c, delta, eps, nil)
				want := naiveLCSS(q, c, delta, eps)
				if got != want {
					t.Fatalf("n=%d delta=%d eps=%v: banded %d != naive %d", n, delta, eps, got, want)
				}
			}
		}
	}
}

func TestLCSSNaiveProperty(t *testing.T) {
	rng := ts.NewRand(103)
	f := func(dSeed, eSeed uint8) bool {
		n := 18
		q := ts.RandomWalk(rng, n)
		c := ts.RandomWalk(rng, n)
		delta := int(dSeed) % n
		eps := float64(eSeed) / 100
		return LCSS(q, c, delta, eps, nil) == naiveLCSS(q, c, delta, eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Early abandoning must never change the result when it does not trigger:
// threshold infinitesimally above the true distance.
func TestEAEquivalenceProperty(t *testing.T) {
	rng := ts.NewRand(104)
	f := func(rSeed uint8) bool {
		n := 24
		q := ts.RandomWalk(rng, n)
		c := ts.RandomWalk(rng, n)
		R := int(rSeed) % 6
		full := DTW(q, c, R, nil)
		got, abandoned := DTWEA(q, c, R, full*(1+1e-9)+1e-9, nil, nil)
		if abandoned || math.Abs(got-full) > 1e-9 {
			return false
		}
		fullED := Euclidean(q, c, nil)
		gotED, abandonedED := EuclideanEA(q, c, fullED*(1+1e-9)+1e-9, nil)
		return !abandonedED && math.Abs(gotED-fullED) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Distances must be finite on finite input (no NaN/Inf leaks).
func TestNoNaNLeaks(t *testing.T) {
	rng := ts.NewRand(105)
	for trial := 0; trial < 20; trial++ {
		n := 16
		q := ts.RandomSeries(rng, n)
		c := ts.RandomSeries(rng, n)
		for _, v := range []float64{
			Euclidean(q, c, nil),
			DTW(q, c, 3, nil),
			LCSSDist(q, c, 3, 0.5, nil),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite distance %v", v)
			}
		}
	}
}

// sameBits reports bit-identity, which is what the band-local kernels owe
// the ones they replaced: same arithmetic in the same order.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// suffixBound is the cb a DTW leaf hands dtwBanded: LB_Keogh of q against
// c's envelope widened by R, as suffix sums.
func suffixBound(q, c []float64, R int) []float64 {
	cb := make([]float64, len(q)+1)
	envelope.LBKeoghSuffix(q, envelope.Envelope{U: c, L: c}.ExpandDTW(R), -1, cb, nil)
	return cb
}

// checkDTWAgainstOracles pins dtwBanded to refDTWBanded for distance,
// abandon flag and step count at every threshold around the true distance,
// without and with the suffix bound, and to the full-matrix DP of DTWPath
// for the distance. A comparison the suffix bound does not abandon ends on
// the same bits as one without it.
func checkDTWAgainstOracles(t *testing.T, q, c []float64, R int) {
	t.Helper()
	full, _ := DTWPath(q, c, R)
	if got := DTW(q, c, R, nil); !sameBits(got, full) {
		t.Fatalf("n=%d R=%d: DTW %v != full-matrix %v", len(q), R, got, full)
	}
	for _, cb := range [][]float64{nil, suffixBound(q, c, R)} {
		for _, r := range []float64{-1, 0, math.Nextafter(full, 0), math.Nextafter(full, math.Inf(1)), math.Inf(1)} {
			var cnt stats.Tally
			got, gotAb := dtwBanded(q, c, R, r, cb, &cnt)
			want, wantAb, wantSteps := refDTWBanded(q, c, R, r, cb)
			if !sameBits(got, want) || gotAb != wantAb || cnt.Steps() != wantSteps {
				t.Fatalf("n=%d R=%d r=%v cb=%t: got (%v, %v, %d steps), reference (%v, %v, %d steps)",
					len(q), R, r, cb != nil, got, gotAb, cnt.Steps(), want, wantAb, wantSteps)
			}
			if (r < 0 || math.IsInf(r, 1)) && gotAb {
				t.Fatalf("n=%d R=%d r=%v cb=%t: abandoned with abandoning disabled", len(q), R, r, cb != nil)
			}
			if !gotAb && !sameBits(got, full) {
				t.Fatalf("n=%d R=%d r=%v cb=%t: kept %v, DTW is %v", len(q), R, r, cb != nil, got, full)
			}
		}
	}
}

// checkLCSSAgainstOracles pins LCSS to refLCSS for similarity and step count
// and to the full-matrix naiveLCSS for the similarity.
func checkLCSSAgainstOracles(t *testing.T, q, c []float64, delta int, eps float64) {
	t.Helper()
	var cnt stats.Tally
	got := LCSS(q, c, delta, eps, &cnt)
	want, wantSteps := refLCSS(q, c, delta, eps)
	if got != want || cnt.Steps() != wantSteps {
		t.Fatalf("n=%d delta=%d eps=%v: got %d in %d steps, reference %d in %d steps",
			len(q), delta, eps, got, cnt.Steps(), want, wantSteps)
	}
	if full := naiveLCSS(q, c, delta, eps); got != full {
		t.Fatalf("n=%d delta=%d eps=%v: LCSS %d != full-matrix %d", len(q), delta, eps, got, full)
	}
}

// TestBandedKernelsMatchReference is the differential table for the
// band-local kernels: short and odd lengths, every band regime (none, narrow,
// one short of full, full, clamped from above and below — the wide ones take
// the pooled-rows path from n=64 up), and constant series, where every cell
// of a row ties.
func TestBandedKernelsMatchReference(t *testing.T) {
	rng := ts.NewRand(106)
	constant := func(n int, v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	for _, n := range []int{1, 2, 3, 7, 64, 251, 256} {
		pairs := [][2][]float64{
			{ts.RandomWalk(rng, n), ts.RandomWalk(rng, n)},
			{ts.RandomSeries(rng, n), ts.RandomSeries(rng, n)},
			{constant(n, 1.5), constant(n, 1.5)},
			{constant(n, -2), ts.RandomSeries(rng, n)},
		}
		for _, R := range []int{0, 1, 5, n - 2, n - 1, n + 3, -1} {
			for _, p := range pairs {
				checkDTWAgainstOracles(t, p[0], p[1], R)
				for _, eps := range []float64{0, 0.25, 1} {
					checkLCSSAgainstOracles(t, p[0], p[1], R, eps)
				}
			}
		}
	}
}

// The kernels run thousands of times per rotation-invariant comparison;
// Euclidean, and DTW and LCSS at the paper's band, must not touch the heap.
func TestBandedKernelsDoNotAllocate(t *testing.T) {
	rng := ts.NewRand(107)
	q, c := ts.RandomWalk(rng, 256), ts.RandomWalk(rng, 256)
	var cnt stats.Tally
	if a := testing.AllocsPerRun(100, func() { Euclidean(q, c, &cnt) }); a > 0 {
		t.Errorf("Euclidean(n=256) allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { dtwBanded(q, c, 5, 3, nil, &cnt) }); a > 0 {
		t.Errorf("dtwBanded(n=256, R=5) allocates %v times per call", a)
	}
	cb := suffixBound(q, c, 5)
	if a := testing.AllocsPerRun(100, func() { dtwBanded(q, c, 5, 3, cb, &cnt) }); a > 0 {
		t.Errorf("dtwBanded(n=256, R=5) with a suffix bound allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { LCSS(q, c, 5, 0.5, &cnt) }); a > 0 {
		t.Errorf("LCSS(n=256, delta=5) allocates %v times per call", a)
	}
}
