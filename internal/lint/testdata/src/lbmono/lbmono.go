// Package lbmono_fixture is the golden fixture for the lbmono analyzer. It
// models a lower-bound cascade in miniature: annotated admissible stages
// composed with max (accepted), plus each contamination the analyzer must
// catch — max over a non-bound, an upper-bound call inside a lower bound, a
// square root without a declared root-space boundary (in the body or in a
// closure), an unannotated float callee, and the annotation on a non-float
// function.
package lbmono_fixture

import "math"

// lbPAA stands in for the PAA piecewise bound: an admissible stage.
//
//lbkeogh:lowerbound
func lbPAA(q, c []float64) float64 {
	d := 0.0
	for i := range q {
		if i < len(c) && q[i] > c[i] {
			d += (q[i] - c[i]) * (q[i] - c[i])
		}
	}
	return d
}

// lbFFT stands in for the FFT magnitude bound: another admissible stage.
//
//lbkeogh:lowerbound
func lbFFT(q, c []float64) float64 {
	return 0
}

// lbCascade is the accepted composition: the max of two admissible lower
// bounds is again an admissible lower bound, and a literal floor is fine.
//
//lbkeogh:lowerbound
func lbCascade(q, c []float64) float64 {
	return max(0, lbPAA(q, c), lbFFT(q, c))
}

// estimate is a heuristic, not a bound: nothing guarantees it stays below
// the true distance.
func estimate(q, c []float64) float64 {
	return float64(len(q)+len(c)) * 0.5
}

// lbContaminated mixes a heuristic into the max: numerically plausible,
// admissibility silently gone.
//
//lbkeogh:lowerbound
func lbContaminated(q, c []float64) float64 {
	return max(lbPAA(q, c), estimate(q, c)) // want `max\(\) over lbmono_fixture\.estimate, which is not an annotated lower bound`
}

// lbContaminatedMathMax does the same through math.Max.
//
//lbkeogh:lowerbound
func lbContaminatedMathMax(q, c []float64) float64 {
	return math.Max(lbPAA(q, c), estimate(q, c)) // want `max\(\) over lbmono_fixture\.estimate`
}

// envelopeUpperBound stands in for a match-count upper bound.
func envelopeUpperBound(q, c []float64) float64 {
	return float64(len(q))
}

// lbMixedWithUpper calls an upper bound from inside a lower bound.
//
//lbkeogh:lowerbound
func lbMixedWithUpper(q, c []float64) float64 {
	return envelopeUpperBound(q, c) // want `calls lbmono_fixture\.envelopeUpperBound, which names an upper bound`
}

// lbInvertedUpper documents an intentional inversion: an upper bound on
// similarity inverts to a lower bound on distance.
//
//lbkeogh:lowerbound
func lbInvertedUpper(q, c []float64) float64 {
	//lint:ignore lbmono a similarity upper bound inverts to an admissible distance lower bound
	return float64(len(q)) - envelopeUpperBound(q, c)
}

// LBRooted leaks root-space results from an exported bound without declaring
// the contract.
//
//lbkeogh:lowerbound
func LBRooted(q, c []float64) float64 {
	return math.Sqrt(lbPAA(q, c)) // want `lower bound LBRooted calls math\.Sqrt without //lbkeogh:rootspace`
}

// LBRootedDocumented declares the same conversion as a documented API
// boundary.
//
//lbkeogh:lowerbound
//lbkeogh:rootspace
func LBRootedDocumented(q, c []float64) float64 {
	return math.Sqrt(lbPAA(q, c))
}

// lbRootedInternal is unexported, and still held to squared space: a pruning
// comparison pays no square root whoever calls it.
//
//lbkeogh:lowerbound
func lbRootedInternal(q, c []float64) float64 {
	return math.Sqrt(lbPAA(q, c)) // want `lower bound lbRootedInternal calls math\.Sqrt without //lbkeogh:rootspace`
}

// lbRootedNested hides the square root in a closure; still flagged.
//
//lbkeogh:lowerbound
func lbRootedNested(q, c []float64) float64 {
	f := func() float64 { return math.Sqrt(lbPAA(q, c)) } // want `lower bound lbRootedNested calls math\.Sqrt without //lbkeogh:rootspace`
	return f()
}

// lbRootedInternalDocumented declares the conversion on an unexported bound.
//
//lbkeogh:lowerbound
//lbkeogh:rootspace
func lbRootedInternalDocumented(q, c []float64) float64 {
	return math.Sqrt(lbPAA(q, c))
}

// lbSquared is the sanctioned shape: accumulate and compare squared.
//
//lbkeogh:lowerbound
func lbSquared(q, u, l []float64) float64 {
	acc := 0.0
	for i := range q {
		switch {
		case q[i] > u[i]:
			d := q[i] - u[i]
			acc += d * d
		case q[i] < l[i]:
			d := q[i] - l[i]
			acc += d * d
		}
	}
	return acc
}

// distance is not a lower bound; a square root is its job.
func distance(acc float64) float64 {
	return math.Sqrt(acc)
}

// lbDrifted feeds a non-bound helper into the result arithmetic.
//
//lbkeogh:lowerbound
func lbDrifted(q, c []float64) float64 {
	return lbPAA(q, c) - estimate(q, c) // want `lower bound lbDrifted calls unannotated lbmono_fixture\.estimate`
}

// lbMatchCount misuses the annotation on a non-float function.
//
//lbkeogh:lowerbound
func lbMatchCount(q, c []float64) int { // want `lbMatchCount is annotated //lbkeogh:lowerbound but returns no float`
	return len(q)
}

// bounder dispatches bounds through an interface, as the wedge kernels do.
type bounder interface {
	LowerBound(q, c []float64) float64
	Estimate(q, c []float64) float64
}

// lbDispatch calls an interface method named LowerBound: accepted — the
// concrete implementations carry their own annotations where they are
// defined.
//
//lbkeogh:lowerbound
func lbDispatch(b bounder, q, c []float64) float64 {
	return b.LowerBound(q, c)
}

// lbDispatchBad dispatches to an interface method that promises nothing.
//
//lbkeogh:lowerbound
func lbDispatchBad(b bounder, q, c []float64) float64 {
	return b.Estimate(q, c) // want `calls unannotated \(lbmono_fixture\.bounder\)\.Estimate`
}

// kernelED shows the annotation on a method.
type kernelED struct{}

// LowerBound composes an annotated stage: accepted.
//
//lbkeogh:lowerbound
func (kernelED) LowerBound(q, c []float64) float64 {
	return lbPAA(q, c)
}

var (
	_ = lbCascade
	_ = lbContaminated
	_ = lbContaminatedMathMax
	_ = lbMixedWithUpper
	_ = lbInvertedUpper
	_ = LBRooted
	_ = LBRootedDocumented
	_ = lbRootedInternal
	_ = lbRootedNested
	_ = lbRootedInternalDocumented
	_ = lbSquared
	_ = distance
	_ = lbDrifted
	_ = lbMatchCount
	_ = lbDispatch
	_ = lbDispatchBad
	_ = kernelED{}.LowerBound
)
