package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// bruteRED is the reference rotation-invariant distance: the minimum kernel
// distance over the explicitly enumerated rotation matrix.
func bruteRED(q, x []float64, k wedge.Kernel, mirror bool, maxShift int) (float64, Member) {
	n := len(q)
	best := math.Inf(1)
	var bestM Member
	try := func(s int, mir bool) {
		rot := q
		if mir {
			rot = ts.Mirror(q)
		}
		d, _ := k.Distance(x, ts.Rotate(rot, s), -1, nil)
		if d < best {
			best = d
			bestM = Member{Shift: s, Mirrored: mir}
		}
	}
	for s := 0; s < n; s++ {
		ok := maxShift < 0 || maxShift >= n/2
		if !ok {
			rel := s
			if rel > n/2 {
				rel = rel - n
			}
			ok = rel >= -maxShift && rel <= maxShift
		}
		if !ok {
			continue
		}
		try(s, false)
		if mirror {
			try(s, true)
		}
	}
	return best, bestM
}

func TestRotationSetShape(t *testing.T) {
	rng := ts.NewRand(1)
	q := ts.RandomWalk(rng, 32)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	if rs.Members() != 32 || rs.Len() != 32 {
		t.Fatalf("members=%d len=%d", rs.Members(), rs.Len())
	}
	// Each member is the advertised rotation.
	for i := 0; i < rs.Members(); i++ {
		id := rs.MemberID(i)
		want := ts.Rotate(q, id.Shift)
		if !ts.Equal(rs.Member(i), want, 0) {
			t.Fatalf("member %d is not rotation %d", i, id.Shift)
		}
	}
}

func TestRotationSetMirrorDoubles(t *testing.T) {
	rng := ts.NewRand(2)
	q := ts.RandomWalk(rng, 20)
	rs := NewRotationSet(q, Options{Mirror: true, MaxShift: -1}, nil)
	if rs.Members() != 40 {
		t.Fatalf("mirror should double rows: %d", rs.Members())
	}
}

func TestRotationSetLimited(t *testing.T) {
	rng := ts.NewRand(3)
	q := ts.RandomWalk(rng, 30)
	rs := NewRotationSet(q, Options{MaxShift: 3}, nil)
	if rs.Members() != 7 { // shifts -3..3
		t.Fatalf("limited set has %d members, want 7", rs.Members())
	}
	rs = NewRotationSet(q, Options{MaxShift: 0}, nil)
	if rs.Members() != 1 {
		t.Fatalf("MaxShift 0 should admit only identity: %d", rs.Members())
	}
}

func TestRotationSetSetupCharged(t *testing.T) {
	rng := ts.NewRand(4)
	q := ts.RandomWalk(rng, 24)
	var cnt stats.Counter
	rs := NewRotationSet(q, DefaultOptions(), &cnt)
	if cnt.Steps() == 0 || cnt.Steps() != rs.SetupSteps {
		t.Fatalf("setup steps not charged: cnt=%d setup=%d", cnt.Steps(), rs.SetupSteps)
	}
	// Circulant profile alone is (n-1)*n.
	if rs.SetupSteps < int64(23*24) {
		t.Fatalf("setup steps %d below circulant cost", rs.SetupSteps)
	}
}

// The circulant trick must reproduce the real pairwise distances between
// rotation-matrix rows — including mirrored rows and limited windows.
func TestCirculantDistancesExact(t *testing.T) {
	rng := ts.NewRand(5)
	for _, opts := range []Options{
		{Mirror: false, MaxShift: -1},
		{Mirror: true, MaxShift: -1},
		{Mirror: true, MaxShift: 4},
	} {
		q := ts.RandomWalk(rng, 17)
		rs := NewRotationSet(q, opts, nil)
		same, cross := profilesOf(q, opts.Mirror)
		m := rs.Members()
		matrix := make([]float64, m*m)
		fillCirculant(matrix, rs.ids, same, cross)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				want := dist.Euclidean(rs.Member(i), rs.Member(j), nil)
				if got := matrix[i*m+j]; math.Abs(got-want) > 1e-9 {
					t.Fatalf("opts %+v rows (%d,%d): profile %v != direct %v", opts, i, j, got, want)
				}
			}
		}
	}
}

func allStrategies() []Strategy {
	return []Strategy{BruteForce, EarlyAbandon, FFTFilter, Wedge}
}

func TestAllStrategiesAgreeED(t *testing.T) {
	rng := ts.NewRand(6)
	n := 40
	q := ts.ZNorm(ts.RandomWalk(rng, n))
	db := make([][]float64, 12)
	for i := range db {
		db[i] = ts.ZNorm(ts.RandomWalk(rng, n))
	}
	// Plant a near-match: a rotated noisy copy of q.
	db[7] = ts.AddNoise(rng, ts.Rotate(q, 13), 0.05)

	rs := NewRotationSet(q, DefaultOptions(), nil)
	wantIdx, wantDist := -1, math.Inf(1)
	for i, x := range db {
		d, _ := bruteRED(q, x, wedge.ED{}, false, -1)
		if d < wantDist {
			wantIdx, wantDist = i, d
		}
	}
	for _, strat := range allStrategies() {
		s := NewSearcher(rs, wedge.ED{}, strat, SearcherConfig{})
		res := s.Scan(db, nil)
		if res.Index != wantIdx || math.Abs(res.Dist-wantDist) > 1e-9 {
			t.Fatalf("%v: scan (%d,%v) != brute (%d,%v)", strat, res.Index, res.Dist, wantIdx, wantDist)
		}
	}
}

func TestAllStrategiesAgreeDTW(t *testing.T) {
	rng := ts.NewRand(7)
	n := 32
	q := ts.ZNorm(ts.RandomWalk(rng, n))
	db := make([][]float64, 8)
	for i := range db {
		db[i] = ts.ZNorm(ts.RandomWalk(rng, n))
	}
	db[3] = ts.AddNoise(rng, ts.Rotate(q, 5), 0.05)
	rs := NewRotationSet(q, DefaultOptions(), nil)
	kern := wedge.DTW{R: 3}
	wantIdx, wantDist := -1, math.Inf(1)
	for i, x := range db {
		d, _ := bruteRED(q, x, kern, false, -1)
		if d < wantDist {
			wantIdx, wantDist = i, d
		}
	}
	for _, strat := range []Strategy{BruteForce, EarlyAbandon, Wedge} {
		s := NewSearcher(rs, kern, strat, SearcherConfig{})
		res := s.Scan(db, nil)
		if res.Index != wantIdx || math.Abs(res.Dist-wantDist) > 1e-9 {
			t.Fatalf("%v: scan (%d,%v) != brute (%d,%v)", strat, res.Index, res.Dist, wantIdx, wantDist)
		}
	}
}

// TestFFTRequiresEuclidean: CheckStrategy is the one statement of the rule,
// and NewSearcher panics on what it refuses.
func TestFFTRequiresEuclidean(t *testing.T) {
	rng := ts.NewRand(8)
	rs := NewRotationSet(ts.RandomWalk(rng, 16), DefaultOptions(), nil)
	for _, k := range []wedge.Kernel{wedge.DTW{R: 2}, wedge.LCSS{Delta: 2, Eps: 0.5}} {
		err := CheckStrategy(FFTFilter, k)
		if err == nil || !strings.Contains(err.Error(), k.Name()) {
			t.Fatalf("CheckStrategy(FFTFilter, %s) = %v, want an error naming the measure", k.Name(), err)
		}
		func() {
			defer func() {
				if p := recover(); p != "core: "+err.Error() {
					t.Fatalf("NewSearcher(FFTFilter, %s) panicked with %v, want CheckStrategy's error", k.Name(), p)
				}
			}()
			NewSearcher(rs, k, FFTFilter, SearcherConfig{})
		}()
	}
	for _, strat := range allStrategies() {
		if err := CheckStrategy(strat, wedge.ED{}); err != nil {
			t.Fatalf("CheckStrategy(%v, ED) = %v", strat, err)
		}
	}
}

func TestMatchSeriesRotationInvariance(t *testing.T) {
	rng := ts.NewRand(9)
	n := 36
	q := ts.ZNorm(ts.RandomWalk(rng, n))
	x := ts.ZNorm(ts.RandomWalk(rng, n))
	rs := NewRotationSet(q, DefaultOptions(), nil)
	s := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{})
	base := s.MatchSeries(x, -1, nil)
	for _, k := range []int{1, 9, 35} {
		got := s.MatchSeries(ts.Rotate(x, k), -1, nil)
		if math.Abs(got.Dist-base.Dist) > 1e-9 {
			t.Fatalf("RED not rotation invariant: %v vs %v (shift %d)", got.Dist, base.Dist, k)
		}
	}
}

func TestMirrorInvariance(t *testing.T) {
	rng := ts.NewRand(10)
	n := 30
	q := ts.ZNorm(ts.RandomWalk(rng, n))
	x := ts.Mirror(ts.Rotate(q, 11)) // a mirrored rotation of q
	plain := NewRotationSet(q, DefaultOptions(), nil)
	mir := NewRotationSet(q, Options{Mirror: true, MaxShift: -1}, nil)
	sPlain := NewSearcher(plain, wedge.ED{}, Wedge, SearcherConfig{})
	sMir := NewSearcher(mir, wedge.ED{}, Wedge, SearcherConfig{})
	dPlain := sPlain.MatchSeries(x, -1, nil)
	dMir := sMir.MatchSeries(x, -1, nil)
	if dMir.Dist > 1e-9 {
		t.Fatalf("mirror-invariant match should be ~0, got %v", dMir.Dist)
	}
	if !dMir.Member.Mirrored {
		t.Fatal("best member should be a mirrored rotation")
	}
	if dPlain.Dist < 0.5 {
		t.Fatalf("plain match unexpectedly close (%v); test shape too symmetric", dPlain.Dist)
	}
}

func TestRotationLimitedSemantics(t *testing.T) {
	rng := ts.NewRand(11)
	n := 40
	q := ts.ZNorm(ts.RandomWalk(rng, n))
	// x is q rotated by 10 — outside a ±3 limit, inside a ±12 limit.
	x := ts.Rotate(q, 10)
	narrow := NewRotationSet(q, Options{MaxShift: 3}, nil)
	wide := NewRotationSet(q, Options{MaxShift: 12}, nil)
	sn := NewSearcher(narrow, wedge.ED{}, Wedge, SearcherConfig{})
	sw := NewSearcher(wide, wedge.ED{}, Wedge, SearcherConfig{})
	dn := sn.MatchSeries(x, -1, nil)
	dw := sw.MatchSeries(x, -1, nil)
	if dw.Dist > 1e-9 {
		t.Fatalf("wide limit should find exact match, got %v", dw.Dist)
	}
	// Note x = Rotate(q, 10) means member shift -10 ≡ n-10 reproduces it:
	// Rotate(q, n-10) vs x ... the matching shift is +10 in the member list.
	if got := dw.Member.Shift; got != 10 {
		t.Fatalf("matching shift = %d, want 10", got)
	}
	if dn.Dist < dw.Dist || dn.Dist < 1e-6 {
		t.Fatalf("narrow limit should not find the +10 rotation: %v", dn.Dist)
	}
	// Narrow result must equal brute force restricted to the window.
	want, _ := bruteRED(q, x, wedge.ED{}, false, 3)
	if math.Abs(dn.Dist-want) > 1e-9 {
		t.Fatalf("narrow = %v, want %v", dn.Dist, want)
	}
}

func TestThresholdPruning(t *testing.T) {
	rng := ts.NewRand(12)
	n := 24
	q := ts.ZNorm(ts.RandomWalk(rng, n))
	x := ts.ZNorm(ts.RandomWalk(rng, n))
	rs := NewRotationSet(q, DefaultOptions(), nil)
	for _, strat := range allStrategies() {
		s := NewSearcher(rs, wedge.ED{}, strat, SearcherConfig{})
		exact := s.MatchSeries(x, -1, nil)
		pruned := s.MatchSeries(x, exact.Dist*0.5, nil)
		if pruned.Found() {
			t.Fatalf("%v: threshold below min must not find a match", strat)
		}
		ok := s.MatchSeries(x, exact.Dist*1.01, nil)
		if !ok.Found() || math.Abs(ok.Dist-exact.Dist) > 1e-9 {
			t.Fatalf("%v: threshold above min must find exact value", strat)
		}
	}
}

func TestWedgeStepsBeatBruteOnScan(t *testing.T) {
	rng := ts.NewRand(13)
	n := 64
	q := ts.ZNorm(ts.RandomWalk(rng, n))
	db := make([][]float64, 100)
	for i := range db {
		db[i] = ts.ZNorm(ts.RandomWalk(rng, n))
	}
	rs := NewRotationSet(q, DefaultOptions(), nil)
	brute := NewSearcher(rs, wedge.ED{}, BruteForce, SearcherConfig{})
	wedged := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{})
	resB, resW := brute.Scan(db, nil), wedged.Scan(db, nil)
	if resB.Index != resW.Index {
		t.Fatalf("strategies disagree: %d vs %d", resB.Index, resW.Index)
	}
	// Include the setup cost in the wedge ledger as the paper does.
	total := wedged.Steps() + rs.SetupSteps
	if total >= brute.Steps() {
		t.Fatalf("wedge total %d not below brute %d on m=100", total, brute.Steps())
	}
}

func TestScanTopK(t *testing.T) {
	rng := ts.NewRand(14)
	n := 28
	q := ts.ZNorm(ts.RandomWalk(rng, n))
	db := make([][]float64, 20)
	for i := range db {
		db[i] = ts.ZNorm(ts.RandomWalk(rng, n))
	}
	rs := NewRotationSet(q, DefaultOptions(), nil)
	s := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{})
	c := NewCollector(5, math.Inf(1))
	if err := s.ScanInto(context.Background(), db, c); err != nil {
		t.Fatal(err)
	}
	top := c.Results()
	if len(top) != 5 {
		t.Fatalf("got %d results, want 5", len(top))
	}
	// Ascending order and exactness vs brute.
	var all []float64
	for _, x := range db {
		d, _ := bruteRED(q, x, wedge.ED{}, false, -1)
		all = append(all, d)
	}
	for i := 0; i < 5; i++ {
		if i > 0 && top[i].Dist < top[i-1].Dist {
			t.Fatal("results not sorted")
		}
		want, _ := bruteRED(q, db[top[i].Index], wedge.ED{}, false, -1)
		if math.Abs(top[i].Dist-want) > 1e-9 {
			t.Fatalf("top-%d dist %v != brute %v", i, top[i].Dist, want)
		}
	}
	// The 5th best must be <= every excluded item's distance.
	excluded := map[int]bool{}
	for _, r := range top {
		excluded[r.Index] = true
	}
	for i, d := range all {
		if !excluded[i] && d < top[4].Dist-1e-9 {
			t.Fatalf("missed a closer item %d (%v < %v)", i, d, top[4].Dist)
		}
	}
}

func TestFixedKAblation(t *testing.T) {
	rng := ts.NewRand(15)
	n := 32
	q := ts.ZNorm(ts.RandomWalk(rng, n))
	x := ts.ZNorm(ts.RandomWalk(rng, n))
	rs := NewRotationSet(q, DefaultOptions(), nil)
	want := NewSearcher(rs, wedge.ED{}, BruteForce, SearcherConfig{}).MatchSeries(x, -1, nil)
	for _, K := range []int{1, 2, 8, 32} {
		s := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{FixedK: K})
		got := s.MatchSeries(x, -1, nil)
		if math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("fixed K=%d: %v != %v", K, got.Dist, want.Dist)
		}
		if s.CurrentK() != K {
			t.Fatalf("CurrentK = %d, want %d", s.CurrentK(), K)
		}
	}
}

// Property: every strategy returns the identical exact RED on random data,
// with random mirror/limit options.
func TestStrategiesExactProperty(t *testing.T) {
	rng := ts.NewRand(16)
	f := func(mir bool, limSeed uint8) bool {
		n := 24
		maxShift := -1
		if limSeed%3 == 0 {
			maxShift = int(limSeed) % (n / 2)
		}
		q := ts.ZNorm(ts.RandomWalk(rng, n))
		x := ts.ZNorm(ts.RandomWalk(rng, n))
		rs := NewRotationSet(q, Options{Mirror: mir, MaxShift: maxShift}, nil)
		want, _ := bruteRED(q, x, wedge.ED{}, mir, maxShift)
		for _, strat := range allStrategies() {
			s := NewSearcher(rs, wedge.ED{}, strat, SearcherConfig{})
			got := s.MatchSeries(x, -1, nil)
			if math.Abs(got.Dist-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	if BruteForce.String() != "brute" || EarlyAbandon.String() != "early_abandon" ||
		FFTFilter.String() != "fft" || Wedge.String() != "wedge" {
		t.Fatal("Strategy.String broken")
	}
	var zero Strategy
	if zero != Wedge {
		t.Fatalf("the zero Strategy is %v, want wedge", zero)
	}
	if Strategy(42).String() != "Strategy(42)" {
		t.Fatal("unknown Strategy.String broken")
	}
}

func TestEmptyQueryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewRotationSet(nil, DefaultOptions(), nil)
}
