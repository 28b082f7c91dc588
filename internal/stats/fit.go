package stats

import (
	"errors"
	"math"
)

// ErrBadFit reports that a regression was requested on unusable data.
var ErrBadFit = errors.New("stats: regression needs at least two distinct positive points")

// PowerLawFit fits y = a * x^b by least squares in log-log space and returns
// the exponent b and the coefficient a.
//
// The paper claims an empirical per-comparison complexity of O(n^1.06); this
// fit is how the harness verifies the analogous claim on our data
// (cmd/benchrun -fig exponent).
func PowerLawFit(xs, ys []float64) (exponent, coeff float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, errors.New("stats: mismatched sample lengths")
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	slope, intercept, err := LinearFit(lx, ly)
	if err != nil {
		return 0, 0, err
	}
	return slope, math.Exp(intercept), nil
}

// LinearFit fits y = slope*x + intercept by ordinary least squares.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, ErrBadFit
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, ErrBadFit
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
