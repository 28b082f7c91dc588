// Package ts provides the basic time-series representation and utilities the
// rest of the library is built on: circular rotation, mirroring,
// z-normalization and resampling.
//
// Shapes are matched in a 1-D representation (Figure 2 of the paper): the
// distance from each contour point to the shape centroid, read clockwise, is
// a time series of length n. A rotation of the original 2-D shape is a
// circular shift of that series, and a mirror image is its reversal — which
// is why everything here is phrased in terms of circular shifts.
package ts

import (
	"errors"
	"fmt"
	"math"
)

// Rotate returns a copy of s circularly shifted left by k positions, so that
// Rotate(s, k)[i] == s[(i+k) mod n]. k may be negative or exceed len(s).
func Rotate(s []float64, k int) []float64 {
	n := len(s)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	k = ((k % n) + n) % n
	copy(out, s[k:])
	copy(out[n-k:], s[:k])
	return out
}

// Mirror returns a reversed copy of s. In the shape domain this is the
// enantiomorphic (mirror-image) form of the contour (Section 3).
func Mirror(s []float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// Mean returns the arithmetic mean of s (0 for empty input).
func Mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Std returns the population standard deviation of s.
func Std(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	m := Mean(s)
	var sum float64
	for _, v := range s {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(s)))
}

// ZNorm returns a copy of s normalized to zero mean and unit standard
// deviation. A (near-)constant series normalizes to all zeros rather than
// dividing by ~0; this matches standard practice in the time-series matching
// literature and keeps distances between degenerate series finite.
func ZNorm(s []float64) []float64 {
	out := make([]float64, len(s))
	m := Mean(s)
	sd := Std(s)
	if sd < 1e-12 {
		return out // all zeros
	}
	for i, v := range s {
		out[i] = (v - m) / sd
	}
	return out
}

// Resample linearly interpolates s (treated as a closed, circular sequence)
// to exactly n samples. It panics for n <= 0 and errors on empty input.
//
// Circular interpolation is the right choice for contour signatures: the
// series wraps around the shape, so the segment between the last and first
// samples is as real as any other.
func Resample(s []float64, n int) ([]float64, error) {
	if n <= 0 {
		panic(fmt.Sprintf("ts: Resample target length %d must be positive", n))
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("ts: cannot resample empty series")
	}
	m := len(s)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		pos := float64(i) * float64(m) / float64(n)
		j := int(pos)
		frac := pos - float64(j)
		a := s[j%m]
		b := s[(j+1)%m]
		out[i] = a + frac*(b-a)
	}
	return out, nil
}

// AlignToMax rotates s so its maximum value leads — the domain-independent
// "most protruding point" landmark (the analogue of major-axis alignment the
// paper critiques in Section 2.1). It is exactly as brittle as the paper
// says: a small perturbation can move the argmax and rotate the whole
// signature.
func AlignToMax(s []float64) []float64 {
	if len(s) == 0 {
		return nil
	}
	best := 0
	for i, v := range s {
		if v > s[best] {
			best = i
		}
	}
	return Rotate(s, best)
}

// Clone returns a copy of s.
func Clone(s []float64) []float64 {
	out := make([]float64, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two series have identical length and elements within
// tolerance tol.
func Equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// NonFinite returns the index of the first NaN or ±Inf sample of s, or -1
// when every sample is finite. Every place a series enters a query, an index,
// a store or a monitor rejects what it finds: one non-finite sample makes
// every distance and bound over its series NaN, and NaN compares false.
func NonFinite(s []float64) int {
	for i, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// MaxSquaredNorm bounds ‖x‖² for a series a search structure is built from.
// Finite samples can still overflow a squared distance to +Inf, and an
// infinite distance leaves the NN-chain clustering of a query's rotations or
// a monitor's patterns without a nearest neighbour. Below this bound every
// squared Euclidean distance between two accepted series is finite, since
// ‖a−b‖² ≤ 2‖a‖² + 2‖b‖², with margin for rounding; a DTW path costs no more
// than the diagonal, and LCSS squares nothing.
const MaxSquaredNorm = math.MaxFloat64 / 8

// Oversized reports whether ‖s‖² is not below MaxSquaredNorm (an overflowing
// sum is +Inf, which is not below it either).
func Oversized(s []float64) bool {
	var ss float64
	for _, v := range s {
		ss += v * v
	}
	return !(ss < MaxSquaredNorm)
}

// CheckRow is the one rule every row obeys wherever it enters — a query, an
// index, a store, a CSV file, a monitor's patterns: every sample finite and
// the squared norm below MaxSquaredNorm. Its error names the sample at fault
// and reads as the continuation of the row's name ("query " + err).
func CheckRow(row []float64) error {
	if !Oversized(row) {
		return nil // one pass: a NaN or ±Inf sample makes the squared norm NaN or +Inf
	}
	if j := NonFinite(row); j >= 0 {
		return fmt.Errorf("sample %d is %v; every sample must be finite", j, row[j])
	}
	return errors.New("has a squared norm of at least MaxFloat64/8; its distances would overflow")
}

// CheckRows is the one check of a row set that a search structure is built
// over — an index's database, a mining collection, a monitor's patterns: at
// least one row, every row as long as the first and at least 2 samples long,
// and every row passing CheckRow. It returns the common length, or an error
// naming the first row (as what, e.g. "pattern") and sample at fault.
func CheckRows(rows [][]float64, what string) (int, error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("no %s given", what)
	}
	n := len(rows[0])
	if n < 2 {
		return 0, fmt.Errorf("%s 0 has %d samples; need >= 2", what, n)
	}
	for i, row := range rows {
		if len(row) != n {
			return 0, fmt.Errorf("%s %d length %d != %d", what, i, len(row), n)
		}
		if err := CheckRow(row); err != nil {
			return 0, fmt.Errorf("%s %d %w", what, i, err)
		}
	}
	return n, nil
}
