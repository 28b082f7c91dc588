package fourier

import (
	"fmt"
	"math"
	"testing"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/ts"
)

// tau is the rounding bound of DESIGN.md §6: the direct sums and the
// transform give every magnitude of x within (n + 20)·2⁻⁵⁰·‖x‖₂ of each
// other. It is absolute, not relative: an exact rotation has ED = 0, and
// its magnitude distance is rounding alone.
func tau(x []float64) float64 {
	var ss float64
	for _, v := range x {
		ss += v * v
	}
	return float64(len(x)+20) * 0x1p-50 * math.Sqrt(ss)
}

// bothPaths returns x's first D magnitudes from the direct sums and from the
// transform.
func bothPaths(x []float64, D int) (direct, transform []float64) {
	direct, transform = make([]float64, D), make([]float64, D)
	magnitudesDirect(x, direct)
	magnitudesTransform(x, transform)
	return direct, transform
}

// minRotationED is the brute-force rotation-invariant Euclidean distance.
func minRotationED(q, c []float64) float64 {
	best := math.Inf(1)
	for s := range c {
		best = min(best, dist.Euclidean(q, ts.Rotate(c, s), nil))
	}
	return best
}

// checkMagnitudes holds Magnitudes(q, D) to the path directCheaper picks, bit
// for bit, and to the other within tau; and LowerBoundED of q's and c's
// features, each from either path, to at most minED, their
// rotation-invariant ED, plus the rounding both rows' features may carry.
func checkMagnitudes(t *testing.T, q, c []float64, D int, minED float64) {
	t.Helper()
	n := len(q)
	direct, transform := bothPaths(q, D)
	picked := transform
	if directCheaper(n, D) {
		picked = direct
	}
	got := Magnitudes(q, D)
	tq := tau(q)
	for j := range got {
		if got[j] != picked[j] {
			t.Fatalf("n=%d D=%d: coefficient %d = %v, its path gives %v", n, D, j+1, got[j], picked[j])
		}
		if d := math.Abs(direct[j] - transform[j]); d > tq {
			t.Fatalf("n=%d D=%d: coefficient %d: direct %v, transform %v differ by %g > %g",
				n, D, j+1, direct[j], transform[j], d, tq)
		}
	}
	slack := math.Sqrt(float64(D)) * (tq + tau(c))
	cDirect, cTransform := bothPaths(c, D)
	for _, qm := range [][]float64{direct, transform} {
		for _, cm := range [][]float64{cDirect, cTransform} {
			if lb := LowerBoundED(qm, cm); lb > minED+slack {
				t.Fatalf("n=%d D=%d: bound %v above the rotation-invariant ED %v by more than %g", n, D, lb, minED, slack)
			}
		}
	}
}

// The two paths agree at every D a caller can ask for, the Nyquist
// coefficient of an even n included (D = n/2, weight 1), and the bound over
// either stays admissible: against an unrelated row, and against an exact
// rotation, whose ED is 0.
func TestMagnitudesDirectMatchesTransform(t *testing.T) {
	rng := ts.NewRand(47)
	for _, n := range []int{2, 3, 4, 5, 16, 64, 127, 251, 256, 1024} {
		q := ts.RandomWalk(rng, n)
		rot := ts.Rotate(q, n/3+1)
		other := ts.RandomWalk(rng, n)
		otherED := minRotationED(q, other)
		for D := 1; D <= n/2; D++ {
			checkMagnitudes(t, q, rot, D, 0)
			checkMagnitudes(t, q, other, D, otherED)
		}
	}
}

// The rule picks the direct path at the paper's dimensionalities and the
// transform for full spectra at the lengths it was calibrated on.
func TestMagnitudesPathRule(t *testing.T) {
	for _, c := range []struct {
		n, D   int
		direct bool
	}{
		{64, 8, true}, {64, 18, true}, {64, 19, false}, {64, 32, false},
		{251, 8, true}, {251, 32, true}, {251, 110, true}, {251, 111, false}, {251, 125, false},
		{256, 16, true}, {256, 24, true}, {256, 25, false}, {256, 128, false},
		{1024, 16, true}, {1024, 30, true}, {1024, 31, false}, {1024, 512, false},
	} {
		if got := directCheaper(c.n, c.D); got != c.direct {
			t.Errorf("directCheaper(%d, %d) = %v, want %v", c.n, c.D, got, c.direct)
		}
	}
}

func TestMagnitudesAllocatesOnlyItsResult(t *testing.T) {
	x := ts.RandomWalk(ts.NewRand(1), 251)
	Magnitudes(x, 8) // builds the length's twiddle table
	var m []float64
	if a := int(testing.AllocsPerRun(100, func() { m = Magnitudes(x, 8) })); a != 1 {
		t.Errorf("Magnitudes(x, 8) allocates %d times per call, want 1 (its result)", a)
	}
	if len(m) != 8 {
		t.Fatalf("len %d, want 8", len(m))
	}
}

// FuzzMagnitudes decodes two rows of n = len(data)/2 small integers, scaled
// by 2^exp, and holds Magnitudes at D = 1 + d mod n/2 to checkMagnitudes:
// the two paths agree within tau, and the bound stays below the rows'
// brute-force rotation-invariant ED, and below tau's share for an exact
// rotation of the first row.
func FuzzMagnitudes(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(0), uint16(1), int8(0))
	f.Add([]byte{200, 9}, uint8(3), uint16(0), int8(0)) // one sample: no coefficient past DC
	f.Add([]byte{9, 0, 250, 7, 7, 3, 128, 127, 1, 0, 0, 5}, uint8(5), uint16(4), int8(-30))
	seed := make([]byte, 2*251)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, uint8(7), uint16(100), int8(40))
	f.Fuzz(func(t *testing.T, data []byte, d uint8, shift uint16, exp int8) {
		n := min(len(data)/2, 512)
		if n < 2 {
			if got := Magnitudes(make([]float64, n), 1+int(d)); got != nil {
				t.Fatalf("n=%d: Magnitudes = %v, want nil", n, got)
			}
			return
		}
		scale := math.Ldexp(1, int(exp)%64)
		q, c := make([]float64, n), make([]float64, n)
		for i := range q {
			q[i] = float64(int8(data[i])) * scale
			c[i] = float64(int8(data[n+i])) * scale
		}
		D := 1 + int(d)%(n/2)
		checkMagnitudes(t, q, c, D, minRotationED(q, c))
		checkMagnitudes(t, q, ts.Rotate(q, int(shift)%n), D, 0)
	})
}

// BenchmarkMagnitudesPaths prices both paths at the lengths directCheaper
// was calibrated on, at the paper's D = 8, at the rule's switch point and
// one past it, and at a full spectrum.
func BenchmarkMagnitudesPaths(b *testing.B) {
	for _, c := range []struct{ n, switchD int }{{64, 18}, {251, 110}, {256, 24}, {1024, 30}} {
		x := ts.RandomWalk(ts.NewRand(1), c.n)
		for _, D := range []int{8, c.switchD, c.switchD + 1, c.n / 2} {
			out := make([]float64, D)
			b.Run(fmt.Sprintf("n=%d/D=%d/direct", c.n, D), func(b *testing.B) {
				for range b.N {
					magnitudesDirect(x, out)
				}
			})
			b.Run(fmt.Sprintf("n=%d/D=%d/transform", c.n, D), func(b *testing.B) {
				for range b.N {
					magnitudesTransform(x, out)
				}
			})
		}
	}
}
