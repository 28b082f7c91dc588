package dist

import (
	"math"
	"testing"
)

// bytesToSeries decodes fuzz input into two equal-length series of small,
// finite values.
func bytesToSeries(data []byte) (q, c []float64) {
	if len(data) < 8 {
		return nil, nil
	}
	n := len(data) / 2
	q = make([]float64, n)
	c = make([]float64, n)
	for i := 0; i < n; i++ {
		q[i] = (float64(data[i]) - 128) / 32
		c[i] = (float64(data[n+i]) - 128) / 32
	}
	return q, c
}

// FuzzDTW checks metric-flavoured invariants of the banded DTW kernel on
// arbitrary inputs: non-negative, zero on identity, symmetric, bounded above
// by the Euclidean distance, finite — and bit-identity with the reference
// kernels of reference_test.go. Under the suffix bound a DTW leaf hands it
// (LB_Keogh against c widened by R), a threshold one ulp above the distance
// never abandons and the kept result is DTW's bits: the bound's reverse-order
// sums never overtake the DP's forward ones. The decoded samples are
// multiples of 1/32, so every sum here is exact.
func FuzzDTW(f *testing.F) {
	f.Add([]byte("hello world hello world!"), uint8(2))
	f.Add(make([]byte, 40), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rSeed uint8) {
		q, c := bytesToSeries(data)
		if q == nil {
			return
		}
		R := int(rSeed) % len(q)
		checkDTWAgainstOracles(t, q, c, R)
		d := DTW(q, c, R, nil)
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("DTW = %v", d)
		}
		if rev := DTW(c, q, R, nil); math.Abs(d-rev) > 1e-9 {
			t.Fatalf("DTW asymmetric: %v vs %v", d, rev)
		}
		if self := DTW(q, q, R, nil); self != 0 { //lint:ignore floateq self-distance is exactly 0 in IEEE arithmetic
			t.Fatalf("DTW(q,q) = %v", self)
		}
		if ed := Euclidean(q, c, nil); d > ed+1e-9 {
			t.Fatalf("DTW %v exceeds ED %v", d, ed)
		}
		got, abandoned := DTWEA(q, c, R, math.Nextafter(d, math.Inf(1)), suffixBound(q, c, R), nil)
		if abandoned {
			t.Fatalf("R=%d: the suffix bound abandoned a DTW of %v under r one ulp above it", R, d)
		}
		if !sameBits(got, d) {
			t.Fatalf("R=%d: DTWEA with the suffix bound = %v, DTW = %v", R, got, d)
		}
	})
}

// FuzzLCSS checks the LCSS similarity stays within [0, n], is symmetric and
// maximal on identity, and agrees with the reference kernels of
// reference_test.go in similarity and step count.
func FuzzLCSS(f *testing.F) {
	f.Add([]byte("abcdefghijklmnopqrstuvwx"), uint8(3), uint8(32))
	f.Fuzz(func(t *testing.T, data []byte, dSeed, eSeed uint8) {
		q, c := bytesToSeries(data)
		if q == nil {
			return
		}
		delta := int(dSeed) % len(q)
		eps := float64(eSeed) / 64
		checkLCSSAgainstOracles(t, q, c, delta, eps)
		sim := LCSS(q, c, delta, eps, nil)
		if sim < 0 || sim > len(q) {
			t.Fatalf("LCSS = %d outside [0,%d]", sim, len(q))
		}
		if rev := LCSS(c, q, delta, eps, nil); rev != sim {
			t.Fatalf("LCSS asymmetric: %d vs %d", sim, rev)
		}
		if self := LCSS(q, q, delta, eps, nil); self != len(q) {
			t.Fatalf("LCSS(q,q) = %d, want %d", self, len(q))
		}
	})
}
