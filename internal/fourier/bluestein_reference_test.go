package fourier

// The stored FFT-magnitude columns and every pinned step count downstream
// depend on bluestein's exact output, so caching its per-length plan must not
// move a bit. The uncached implementation it replaced is the reference.

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"lbkeogh/internal/ts"
)

func refBluestein(x []complex128) []complex128 {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, -math.Pi*float64(kk)/float64(n))
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	fftPow2InPlace(a, false)
	fftPow2InPlace(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftPow2InPlace(a, true)
	out := make([]complex128, n)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * chirp[k]
	}
	return out
}

func TestBluesteinMatchesReferenceBitForBit(t *testing.T) {
	rng := ts.NewRand(9)
	for _, n := range []int{1, 2, 3, 5, 47, 100, 251, 1000} {
		x := make([]complex128, n)
		for i, v := range ts.RandomWalk(rng, n) {
			x[i] = complex(v, 0)
		}
		want := refBluestein(x)
		// Concurrent first use of a length races to build its plan; every
		// caller, plan builder or not, must see the reference's bits.
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := bluestein(x)
				for k := range want {
					if got[k] != want[k] {
						t.Errorf("n=%d: coefficient %d = %v, reference %v", n, k, got[k], want[k])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
