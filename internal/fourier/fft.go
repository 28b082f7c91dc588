// Package fourier implements the discrete Fourier transform (radix-2
// Cooley-Tukey plus Bluestein's chirp-z algorithm for arbitrary lengths,
// stdlib only) and the rotation-invariant Fourier-magnitude lower bound used
// to index shapes (Section 4.2 of the paper, following Vlachos et al. [38]).
//
// The key fact: a circular shift of a real series multiplies each DFT
// coefficient by a unit-modulus phase, so coefficient magnitudes are
// invariant under rotation. By Parseval's theorem and the reverse triangle
// inequality applied per coefficient,
//
//	ED(Q, rotate(C, s)) >= ||mag(Q) - mag(C)||₂  for every shift s,
//
// where mag is the suitably scaled magnitude vector. Truncating the vector
// to its first D coefficients only discards non-negative terms, so the bound
// stays admissible at any dimensionality — which is what makes it usable
// inside a spatial index.
//
// Magnitudes computes the D coefficients it keeps in one of two ways: by
// direct real-input DFT sums against a per-length cos/sin table, O(n·D)
// with no scratch, or from the whole transform, O(n log n) plus its
// buffers. A fixed operation count picks the cheaper (directCheaper): the
// paper's D ≤ 32 at its n = 251 takes the direct sums, a full spectrum
// (D = n/2) the transform. The two agree within the absolute rounding bound
// of DESIGN.md §6, so features stored from one path bound queries whose
// features come from the other.
package fourier

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// FFT returns the discrete Fourier transform of x:
// X[k] = sum_t x[t] * exp(-2πi·kt/n). Any length is supported; powers of two
// use radix-2 Cooley-Tukey and other lengths use Bluestein's algorithm.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := make([]complex128, n)
		copy(out, x)
		fftPow2InPlace(out, false)
		return out
	}
	return bluestein(x)
}

// IFFT returns the inverse DFT of X, normalized by 1/n.
func IFFT(X []complex128) []complex128 {
	n := len(X)
	if n == 0 {
		return nil
	}
	conj := make([]complex128, n)
	for i, v := range X {
		conj[i] = cmplx.Conj(v)
	}
	y := FFT(conj)
	out := make([]complex128, n)
	for i, v := range y {
		out[i] = cmplx.Conj(v) / complex(float64(n), 0)
	}
	return out
}

// FFTReal transforms a real series.
func FFTReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
}

// fftPow2InPlace is iterative radix-2 Cooley-Tukey; inverse selects the
// conjugate twiddles (without normalization).
func fftPow2InPlace(a []complex128, inverse bool) {
	n := len(a)
	if n <= 1 {
		return
	}
	shift := bits.LeadingZeros(uint(n)) + 1
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		if inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// chirpPlan is the part of Bluestein's algorithm that depends only on the
// length n: the chirp and the transform of the chirp filter. Read-only once
// built.
type chirpPlan struct {
	chirp  []complex128 // chirp[k] = exp(-iπ k²/n)
	filter []complex128 // FFT of the zero-padded conjugate chirp, length m
}

// chirpPlans caches one plan per transform length. A process transforms a
// handful of lengths (its series length, and whatever the experiments sweep),
// so the cache is never evicted.
var chirpPlans sync.Map // int -> *chirpPlan

// bluesteinLen is the power-of-two convolution length of a length-n
// Bluestein transform: the least m ≥ 2n−1.
func bluesteinLen(n int) int {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	return m
}

func chirpPlanFor(n int) *chirpPlan {
	if p, ok := chirpPlans.Load(n); ok {
		return p.(*chirpPlan)
	}
	m := bluesteinLen(n)
	// k² mod 2n avoids precision loss for large k.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, -math.Pi*float64(kk)/float64(n))
	}
	filter := make([]complex128, m)
	for k := 0; k < n; k++ {
		filter[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		filter[m-k] = cmplx.Conj(chirp[k])
	}
	fftPow2InPlace(filter, false)
	p, _ := chirpPlans.LoadOrStore(n, &chirpPlan{chirp: chirp, filter: filter})
	return p.(*chirpPlan)
}

// bluestein computes an arbitrary-length DFT as a convolution with a chirp,
// evaluated with a power-of-two FFT of length >= 2n-1. The chirp and its
// filter's transform come from the per-length plan, so a call costs two
// FFTs, not three.
func bluestein(x []complex128) []complex128 {
	n := len(x)
	plan := chirpPlanFor(n)
	chirp, m := plan.chirp, len(plan.filter)
	a := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	fftPow2InPlace(a, false)
	for i, f := range plan.filter {
		a[i] *= f
	}
	fftPow2InPlace(a, true)
	out := make([]complex128, n)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * chirp[k]
	}
	return out
}

// Magnitudes returns the D-dimensional rotation-invariant magnitude feature
// of a real series of length n: entry j holds the magnitude of DFT
// coefficient j+1 (the DC coefficient is skipped — it is zero for
// z-normalized data and carries no shape information), scaled so that the
// plain Euclidean distance between two feature vectors lower-bounds the
// Euclidean distance between the series under every relative rotation (see
// LowerBoundED). D must satisfy 1 <= D <= n/2; larger requests are clamped.
// A series of fewer than two samples has no such coefficient: the result is
// nil.
//
// The coefficients come from direct DFT sums when D·n/2 multiply-add pairs
// are at most three per butterfly of the transform — D ≤ 3·log₂n at a
// power-of-two n, D·n ≤ 6·m·log₂m under Bluestein's length-m convolution —
// and from the transform otherwise (see directCheaper). The path depends on
// (n, D) alone, so every caller gets the same bits for the same series; the
// direct path allocates only the result.
func Magnitudes(x []float64, D int) []float64 {
	n := len(x)
	if n < 2 {
		return nil
	}
	D = max(1, min(D, n/2))
	out := make([]float64, D)
	if directCheaper(n, D) {
		magnitudesDirect(x, out)
	} else {
		magnitudesTransform(x, out)
	}
	return out
}

// directCheaper is the rule that picks Magnitudes' path, an operation
// count. The direct sums cost D·n/2 multiply-add pairs; the transform costs
// (n/2)·log₂n butterflies at a power-of-two n, and under Bluestein two FFTs
// of length m, the power of two ≥ 2n−1, so m·log₂m. A butterfly, with the
// transform's buffers, costs about three multiply-add pairs: calibrated at
// n ∈ {64, 251, 256, 1024}, where the measured paths tie near D = 24, 115,
// 24 and 30, the rule switches at D = 18, 110, 24 and 30
// (BenchmarkMagnitudesPaths re-measures it).
func directCheaper(n, D int) bool {
	if n&(n-1) == 0 {
		return D*n <= 3*n*bits.Len(uint(n)-1)
	}
	m := bluesteinLen(n)
	return D*n <= 6*m*bits.Len(uint(m)-1)
}

// magScale is the Parseval factor of coefficient k: coefficients k and n-k
// are conjugates for real input and both appear in Parseval's sum, so each
// magnitude counts twice except at the Nyquist frequency k = n/2 (for even
// n), which is its own mirror.
func magScale(n, k int) float64 {
	if 2*k == n {
		return math.Sqrt(1 / float64(n))
	}
	return math.Sqrt(2 / float64(n))
}

// magnitudesTransform fills out from the whole spectrum.
func magnitudesTransform(x, out []float64) {
	n := len(x)
	X := FFTReal(x)
	for j := range out {
		out[j] = magScale(n, j+1) * cmplx.Abs(X[j+1])
	}
}

// magnitudesDirect fills out with one real-input DFT sum per coefficient,
// reading the length's twiddle table: O(n·len(out)), no scratch. Samples t
// and n-t share cos(2πkt/n) and negate sin(2πkt/n), so each sum runs over
// the pairs (x[t] ± x[n-t]) for 0 < t < n/2, plus x[0] and, for even n, the
// Nyquist sample x[n/2].
func magnitudesDirect(x, out []float64) {
	n := len(x)
	tw := twiddlesFor(n)
	cos, sin := tw.cos[:n], tw.sin[:n]
	for j := range out {
		k := j + 1
		re, im := x[0], 0.0
		idx := 0 // k·t mod n
		for t := 1; 2*t < n; t++ {
			idx += k
			if idx >= n {
				idx -= n
			}
			a, b := x[t], x[n-t]
			re += (a + b) * cos[idx]
			im += (a - b) * sin[idx]
		}
		if n%2 == 0 { // cos(πk) = ±1, sin(πk) = 0
			if k%2 == 0 {
				re += x[n/2]
			} else {
				re -= x[n/2]
			}
		}
		out[j] = magScale(n, k) * math.Hypot(re, im)
	}
}

// twiddles is the part of the direct path that depends only on the length
// n: cos and sin of 2πj/n for j in [0, n). Read-only once built. Only the
// angles up to π are evaluated, so each is rounded at half the magnitude,
// and the table is exactly symmetric: cos(2π(n−j)/n) = cos(2πj/n),
// sin(2π(n−j)/n) = −sin(2πj/n).
type twiddles struct{ cos, sin []float64 }

// twiddleTables caches one table per length, as chirpPlans does.
var twiddleTables sync.Map // int -> *twiddles

func twiddlesFor(n int) *twiddles {
	if t, ok := twiddleTables.Load(n); ok {
		return t.(*twiddles)
	}
	tw := &twiddles{cos: make([]float64, n), sin: make([]float64, n)}
	for j := 0; 2*j <= n; j++ {
		tw.sin[j], tw.cos[j] = math.Sincos(2 * math.Pi * float64(j) / float64(n))
	}
	for j := n/2 + 1; j < n; j++ { // angles past π mirror those below it
		tw.sin[j], tw.cos[j] = -tw.sin[n-j], tw.cos[n-j]
	}
	t, _ := twiddleTables.LoadOrStore(n, tw)
	return t.(*twiddles)
}

// LowerBoundED returns the Euclidean distance between two magnitude feature
// vectors (as produced by Magnitudes with the same D). The result lower
// bounds ED(q, rotate(c, s)) for every shift s — and, with mirror images,
// ED(q, rotate(mirror(c), s)) too, since reversal also preserves magnitudes.
//
// This is a documented root-space API boundary: callers compare the result
// directly against root-space best-so-far distances, so the Sqrt happens
// here, once, rather than in every caller.
//
//lbkeogh:rootspace
//lbkeogh:lowerbound
func LowerBoundED(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("fourier: feature length mismatch %d vs %d", len(a), len(b)))
	}
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return math.Sqrt(acc)
}
