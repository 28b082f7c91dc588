package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"testing"
)

// TestPinnedExperimentSteps pins the exact num_steps figures the efficiency
// experiments report — every curve of Efficiency under ED (brute, fft,
// early-abandon, wedge) and DTW (brute, brute-R, early-abandon, wedge),
// EmpiricalExponent's steps per comparison and ProbeIntervalSensitivity's —
// at sizes small enough to run in well under a second. The shape tests
// beside it check what the curves mean; this one fails on any change to how
// a step is counted or charged, so a refactor of the accounting must leave
// every figure bit-identical.
func TestPinnedExperimentSteps(t *testing.T) {
	var got []string
	add := func(name string, v float64) {
		got = append(got, name+" = "+strconv.FormatFloat(v, 'g', -1, 64))
	}
	for _, dtw := range []bool{false, true} {
		curves, err := Efficiency(EfficiencyConfig{
			Workload: ProjectilePoints, UseDTW: dtw, R: 3,
			Sizes: []int{32, 256}, N: 64, Queries: 2, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range curves {
			for i, m := range c.Sizes {
				add(fmt.Sprintf("efficiency dtw=%v %s m=%d", dtw, c.Label, m), c.Ratio[i])
			}
		}
	}
	exp, err := EmpiricalExponent(ExponentConfig{Lengths: []int{16, 32, 64}, M: 200, Queries: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range exp.Lengths {
		add(fmt.Sprintf("exponent n=%d", n), exp.Steps[i])
	}
	probe, err := ProbeIntervalSensitivity(7, 300, 64, 2, []int{3, 5, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, iv := range probe.Intervals {
		add(fmt.Sprintf("probe intervals=%d", iv), probe.Steps[i])
	}

	want := []string{
		"efficiency dtw=false brute m=32 = 1",
		"efficiency dtw=false brute m=256 = 1",
		"efficiency dtw=false fft m=32 = 0.2183380126953125",
		"efficiency dtw=false fft m=256 = 0.1169590950012207",
		"efficiency dtw=false early-abandon m=32 = 0.2201690673828125",
		"efficiency dtw=false early-abandon m=256 = 0.059087276458740234",
		"efficiency dtw=false wedge m=32 = 0.25800323486328125",
		"efficiency dtw=false wedge m=256 = 0.03929567337036133",
		"efficiency dtw=true brute m=32 = 1",
		"efficiency dtw=true brute m=256 = 1",
		"efficiency dtw=true brute-R m=32 = 0.1064453125",
		"efficiency dtw=true brute-R m=256 = 0.1064453125",
		"efficiency dtw=true early-abandon m=32 = 0.02143186330795288",
		"efficiency dtw=true early-abandon m=256 = 0.006877481937408447",
		"efficiency dtw=true wedge m=32 = 0.02442944049835205",
		"efficiency dtw=true wedge m=256 = 0.006326615810394287",
		"exponent n=16 = 28.7375",
		"exponent n=32 = 59.35",
		"exponent n=64 = 197.2575",
		"probe intervals=3 = 186.71166666666667",
		"probe intervals=5 = 182.13",
		"probe intervals=10 = 177.825",
		"probe intervals=20 = 178.075",
	}
	if !slices.Equal(got, want) {
		for i := range max(len(got), len(want)) {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Errorf("row %d: got %q, want %q", i, g, w)
			}
		}
	}
}
