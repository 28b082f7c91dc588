package dist

import (
	"math"
	"testing"
	"testing/quick"

	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
)

func TestEuclideanKnown(t *testing.T) {
	q := []float64{0, 0, 0}
	c := []float64{1, 2, 2}
	if got := Euclidean(q, c, nil); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Euclidean = %v, want 3", got)
	}
}

func TestEuclideanStepsCounted(t *testing.T) {
	var cnt stats.Tally
	q := make([]float64, 17)
	Euclidean(q, q, &cnt)
	if cnt.Steps() != 17 {
		t.Fatalf("steps = %d, want 17", cnt.Steps())
	}
}

func TestEuclideanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on length mismatch")
		}
	}()
	Euclidean([]float64{1}, []float64{1, 2}, nil)
}

func TestEuclideanEAExactWhenUnderThreshold(t *testing.T) {
	rng := ts.NewRand(1)
	q := ts.RandomSeries(rng, 64)
	c := ts.RandomSeries(rng, 64)
	full := Euclidean(q, c, nil)
	got, abandoned := EuclideanEA(q, c, full+1, nil)
	if abandoned {
		t.Fatal("should not abandon when threshold exceeds true distance")
	}
	if math.Abs(got-full) > 1e-12 {
		t.Fatalf("EA distance = %v, want %v", got, full)
	}
}

func TestEuclideanEAAbandons(t *testing.T) {
	q := []float64{0, 0, 0, 0}
	c := []float64{10, 0, 0, 0}
	var cnt stats.Tally
	got, abandoned := EuclideanEA(q, c, 1, &cnt)
	if !abandoned || !math.IsInf(got, 1) {
		t.Fatalf("want abandonment, got (%v,%v)", got, abandoned)
	}
	if cnt.Steps() != 1 {
		t.Fatalf("abandoned after %d steps, want 1", cnt.Steps())
	}
}

func TestEuclideanEANegativeThresholdNeverAbandons(t *testing.T) {
	q := []float64{0, 0}
	c := []float64{100, 100}
	got, abandoned := EuclideanEA(q, c, -1, nil)
	if abandoned {
		t.Fatal("negative threshold must disable abandoning")
	}
	want := Euclidean(q, c, nil)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEuclideanEAStepsSaved(t *testing.T) {
	rng := ts.NewRand(2)
	q := ts.RandomSeries(rng, 256)
	c := ts.AddNoise(rng, q, 5) // far away — should abandon early with tight r
	var cnt stats.Tally
	_, abandoned := EuclideanEA(q, c, 0.5, &cnt)
	if !abandoned {
		t.Fatal("expected abandonment")
	}
	if cnt.Steps() >= 256 {
		t.Fatalf("abandonment saved no steps: %d", cnt.Steps())
	}
}

func TestDTWZeroBandEqualsEuclidean(t *testing.T) {
	rng := ts.NewRand(3)
	for trial := 0; trial < 10; trial++ {
		q := ts.RandomSeries(rng, 50)
		c := ts.RandomSeries(rng, 50)
		ed := Euclidean(q, c, nil)
		dtw := DTW(q, c, 0, nil)
		if math.Abs(ed-dtw) > 1e-9 {
			t.Fatalf("DTW(R=0) = %v, ED = %v", dtw, ed)
		}
	}
}

func TestDTWSelfZero(t *testing.T) {
	rng := ts.NewRand(4)
	q := ts.RandomSeries(rng, 40)
	for _, R := range []int{0, 1, 5, 39, -1} {
		if d := DTW(q, q, R, nil); d != 0 { //lint:ignore floateq self-distance is exactly 0 in IEEE arithmetic
			t.Fatalf("DTW(q,q,R=%d) = %v, want 0", R, d)
		}
	}
}

func TestDTWMonotoneInBand(t *testing.T) {
	rng := ts.NewRand(5)
	q := ts.RandomSeries(rng, 60)
	c := ts.RandomSeries(rng, 60)
	prev := math.Inf(1)
	for _, R := range []int{0, 1, 2, 4, 8, 16, 59} {
		d := DTW(q, c, R, nil)
		if d > prev+1e-9 {
			t.Fatalf("DTW not monotone non-increasing in R: R=%d gave %v > %v", R, d, prev)
		}
		prev = d
	}
}

func TestDTWSymmetric(t *testing.T) {
	rng := ts.NewRand(6)
	q := ts.RandomSeries(rng, 45)
	c := ts.RandomSeries(rng, 45)
	for _, R := range []int{0, 3, 10, -1} {
		a := DTW(q, c, R, nil)
		b := DTW(c, q, R, nil)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("DTW asymmetric at R=%d: %v vs %v", R, a, b)
		}
	}
}

func TestDTWAlignsShiftedFeature(t *testing.T) {
	// A bump shifted by 2 samples: ED is large, DTW with R>=2 nearly zero.
	n := 50
	q := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < 5; i++ {
		q[20+i] = 1
		c[22+i] = 1
	}
	ed := Euclidean(q, c, nil)
	dtw := DTW(q, c, 3, nil)
	if dtw >= ed/2 {
		t.Fatalf("DTW should align the bump: DTW=%v ED=%v", dtw, ed)
	}
}

func TestDTWEAConsistent(t *testing.T) {
	rng := ts.NewRand(7)
	q := ts.RandomSeries(rng, 64)
	c := ts.RandomSeries(rng, 64)
	full := DTW(q, c, 5, nil)
	got, abandoned := DTWEA(q, c, 5, full+0.1, nil, nil)
	if abandoned || math.Abs(got-full) > 1e-9 {
		t.Fatalf("EA with slack threshold: got (%v,%v), want (%v,false)", got, abandoned, full)
	}
	_, abandoned = DTWEA(q, c, 5, full*0.5, nil, nil)
	if !abandoned {
		t.Fatal("EA with tight threshold should abandon")
	}
}

func TestDTWEAAbandonSavesSteps(t *testing.T) {
	rng := ts.NewRand(8)
	q := ts.RandomSeries(rng, 128)
	c := ts.AddNoise(rng, ts.RandomSeries(rng, 128), 3)
	var full, ea stats.Tally
	DTW(q, c, 5, &full)
	_, abandoned := DTWEA(q, c, 5, 0.5, nil, &ea)
	if !abandoned {
		t.Skip("series unexpectedly close")
	}
	if ea.Steps() >= full.Steps() {
		t.Fatalf("EA steps %d >= full steps %d", ea.Steps(), full.Steps())
	}
}

func TestDTWEmpty(t *testing.T) {
	if d := DTW(nil, nil, 3, nil); d != 0 { //lint:ignore floateq empty input returns the constant 0
		t.Fatalf("DTW of empty = %v, want 0", d)
	}
}

func TestDTWPathMatchesDTW(t *testing.T) {
	rng := ts.NewRand(9)
	q := ts.RandomSeries(rng, 30)
	c := ts.RandomSeries(rng, 30)
	for _, R := range []int{0, 2, 5, 29} {
		want := DTW(q, c, R, nil)
		got, path := DTWPath(q, c, R)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("R=%d: DTWPath dist %v != DTW %v", R, got, want)
		}
		validatePath(t, path, len(q), R)
	}
}

func validatePath(t *testing.T, path [][2]int, n, R int) {
	t.Helper()
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	if path[0] != [2]int{0, 0} || path[len(path)-1] != [2]int{n - 1, n - 1} {
		t.Fatalf("path endpoints wrong: %v .. %v", path[0], path[len(path)-1])
	}
	if len(path) < n || len(path) > 2*n-1 {
		t.Fatalf("path length %d outside [n, 2n-1]", len(path))
	}
	for k := 1; k < len(path); k++ {
		di := path[k][0] - path[k-1][0]
		dj := path[k][1] - path[k-1][1]
		if di < 0 || dj < 0 || di > 1 || dj > 1 || (di == 0 && dj == 0) {
			t.Fatalf("illegal path step %v -> %v", path[k-1], path[k])
		}
	}
	for _, p := range path {
		if d := p[0] - p[1]; d > R || d < -R {
			t.Fatalf("path cell %v violates band R=%d", p, R)
		}
	}
}

// Property: DTW is a lower bound of Euclidean for any band (more freedom can
// only decrease the optimal cost).
func TestDTWLowerBoundsEuclideanProperty(t *testing.T) {
	rng := ts.NewRand(10)
	f := func(rSeed uint8) bool {
		n := 32
		q := ts.RandomSeries(rng, n)
		c := ts.RandomSeries(rng, n)
		R := int(rSeed) % n
		return DTW(q, c, R, nil) <= Euclidean(q, c, nil)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLCSSSelf(t *testing.T) {
	rng := ts.NewRand(11)
	q := ts.RandomSeries(rng, 40)
	if sim := LCSS(q, q, 0, 0, nil); sim != 40 {
		t.Fatalf("LCSS(q,q) = %d, want 40", sim)
	}
	if d := LCSSDist(q, q, 0, 0, nil); d != 0 { //lint:ignore floateq 1 - n/n is exactly 0
		t.Fatalf("LCSSDist(q,q) = %v, want 0", d)
	}
}

func TestLCSSKnown(t *testing.T) {
	q := []float64{1, 2, 3, 4, 5}
	c := []float64{1, 9, 3, 9, 5}
	if sim := LCSS(q, c, 0, 0.1, nil); sim != 3 {
		t.Fatalf("LCSS = %d, want 3", sim)
	}
}

func TestLCSSWindowMatters(t *testing.T) {
	// c is q shifted by 2; with delta>=2 all interior points match.
	q := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	c := ts.Rotate(q, 2)
	wide := LCSS(q, c, 2, 0.01, nil)
	narrow := LCSS(q, c, 0, 0.01, nil)
	if wide <= narrow {
		t.Fatalf("wider window should match more: wide=%d narrow=%d", wide, narrow)
	}
	if wide != 6 {
		t.Fatalf("wide = %d, want 6 (all but the wrapped pair)", wide)
	}
}

func TestLCSSMonotoneInEps(t *testing.T) {
	rng := ts.NewRand(12)
	q := ts.RandomSeries(rng, 50)
	c := ts.RandomSeries(rng, 50)
	prev := -1
	for _, eps := range []float64{0, 0.1, 0.5, 1, 2, 10} {
		sim := LCSS(q, c, 5, eps, nil)
		if sim < prev {
			t.Fatalf("LCSS not monotone in eps: %d after %d", sim, prev)
		}
		prev = sim
	}
	if prev != 50 {
		t.Fatalf("huge eps should match everything, got %d", prev)
	}
}

func TestLCSSDistRange(t *testing.T) {
	rng := ts.NewRand(13)
	f := func(e uint8) bool {
		q := ts.RandomSeries(rng, 30)
		c := ts.RandomSeries(rng, 30)
		d := LCSSDist(q, c, 4, float64(e)/64, nil)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLCSSEmpty(t *testing.T) {
	if LCSS(nil, nil, 1, 1, nil) != 0 {
		t.Fatal("LCSS of empty should be 0")
	}
	if LCSSDist(nil, nil, 1, 1, nil) != 0 { //lint:ignore floateq empty input returns the constant 0
		t.Fatal("LCSSDist of empty should be 0")
	}
}
