package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestNilCounterSafe(t *testing.T) {
	var c *Counter
	c.Add(10)
	c.Reset()
	if got := c.Steps(); got != 0 {
		t.Fatalf("nil counter Steps() = %d, want 0", got)
	}
}

func TestCounterAccumulates(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(4)
	if got := c.Steps(); got != 7 {
		t.Fatalf("Steps() = %d, want 7", got)
	}
	c.Reset()
	if got := c.Steps(); got != 0 {
		t.Fatalf("Steps() after Reset = %d, want 0", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	slope, intercept, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-3) > 1e-12 {
		t.Fatalf("fit = (%v, %v), want (2, 3)", slope, intercept)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := LinearFit([]float64{1}, []float64{2}); err == nil {
		t.Fatal("want error for single point")
	}
	if _, _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("want error for vertical data")
	}
	if _, _, err := LinearFit([]float64{1, 2, 3}, []float64{2, 3}); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
}

func TestPowerLawFitExact(t *testing.T) {
	// y = 3 * x^1.5
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	exp, coeff, err := PowerLawFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp-1.5) > 1e-9 || math.Abs(coeff-3) > 1e-9 {
		t.Fatalf("fit = (%v, %v), want (1.5, 3)", exp, coeff)
	}
}

func TestPowerLawFitIgnoresNonPositive(t *testing.T) {
	xs := []float64{-1, 0, 1, 2, 4}
	ys := []float64{5, 5, 2, 4, 8} // positive part is y = 2x
	exp, coeff, err := PowerLawFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp-1) > 1e-9 || math.Abs(coeff-2) > 1e-9 {
		t.Fatalf("fit = (%v, %v), want (1, 2)", exp, coeff)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty-slice Mean should be 0")
	}
}

// Property: recovering slope/intercept from noiseless lines is exact for any
// finite parameters.
func TestLinearFitProperty(t *testing.T) {
	f := func(slope, intercept float64) bool {
		if math.IsNaN(slope) || math.IsInf(slope, 0) ||
			math.IsNaN(intercept) || math.IsInf(intercept, 0) {
			return true
		}
		// Keep magnitudes sane to avoid float overflow in the check.
		if math.Abs(slope) > 1e6 || math.Abs(intercept) > 1e6 {
			return true
		}
		xs := []float64{0, 1, 2, 3, 5, 8}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = slope*x + intercept
		}
		gs, gi, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		scale := math.Max(1, math.Max(math.Abs(slope), math.Abs(intercept)))
		return math.Abs(gs-slope) < 1e-6*scale && math.Abs(gi-intercept) < 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterConcurrentAdd(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Steps(); got != 80000 {
		t.Fatalf("concurrent Steps() = %d, want 80000", got)
	}
}
