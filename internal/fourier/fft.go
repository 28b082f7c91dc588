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
package fourier

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// BoundName is the stable stage tag for the Fourier-magnitude bound in
// pruning-waterfall telemetry (explain plans, /metrics labels).
const BoundName = "fft"

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

func chirpPlanFor(n int) *chirpPlan {
	if p, ok := chirpPlans.Load(n); ok {
		return p.(*chirpPlan)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
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
func Magnitudes(x []float64, D int) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	maxD := n / 2
	if maxD < 1 {
		maxD = 1
	}
	if D < 1 {
		D = 1
	}
	if D > maxD {
		D = maxD
	}
	X := FFTReal(x)
	out := make([]float64, D)
	for j := 0; j < D; j++ {
		k := j + 1
		// Coefficients k and n-k are conjugates for real input; both terms
		// appear in Parseval's sum, so each magnitude counts twice except at
		// the Nyquist frequency k = n/2 (for even n), which is its own mirror.
		weight := 2.0
		if 2*k == n {
			weight = 1.0
		}
		out[j] = math.Sqrt(weight/float64(n)) * cmplx.Abs(X[k])
	}
	return out
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
