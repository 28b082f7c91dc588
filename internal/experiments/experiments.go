// Package experiments implements the paper's evaluation harness: one
// function per figure/table of Section 5, shared by cmd/benchrun, the
// root-level benchmarks and the regression tests.
//
// Efficiency is measured exactly as in the paper (Section 5.3): the number
// of real-value subtractions ("num_steps") per comparison of two shapes,
// normalized by the brute-force cost. The brute-force denominator is
// analytic — n² steps per Euclidean comparison (n rotations × n steps) and
// n·cells(n,R) for DTW — because brute force performs exactly that many
// steps by construction; the competing strategies are measured by running
// them. The wedge strategy's O(n²) set-up cost and the dynamic-K probing
// overhead are charged to it, as the paper does.
package experiments

import (
	"fmt"
	"math"

	"lbkeogh/internal/classify"
	"lbkeogh/internal/core"
	"lbkeogh/internal/index"
	"lbkeogh/internal/lightcurve"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/synth"
	"lbkeogh/internal/wedge"
)

// Workload names the dataset generators of Section 5.3.
type Workload string

const (
	// ProjectilePoints is the homogeneous dataset (Figures 19–20; the paper
	// uses 16,000 objects of length 251).
	ProjectilePoints Workload = "projectile-points"
	// Heterogeneous is the mixed dataset (Figure 21; 5,844 × 1,024).
	Heterogeneous Workload = "heterogeneous"
	// LightCurves is the star-light-curve dataset (Figures 22–23; 954).
	LightCurves Workload = "light-curves"
)

// LightCurveNoise is the photometric noise level of the light-curve
// workload. High noise makes every rotation of a curve look alike, which
// inflates wedge areas and flattens the wedge strategy's advantage — the
// paper's curves are smooth, so the default models good photometry.
var LightCurveNoise = 0.05

// generate returns m+extra series of length n from the workload.
func generate(w Workload, seed int64, m, n int) ([][]float64, error) {
	switch w {
	case ProjectilePoints:
		return synth.ProjectilePoints(seed, m, n), nil
	case Heterogeneous:
		return synth.Heterogeneous(seed, m, n), nil
	case LightCurves:
		series, _ := lightcurve.Dataset(seed, m, n, LightCurveNoise)
		return series, nil
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q", w)
	}
}

// dtwCells returns the exact number of DP cells a banded DTW of length n and
// radius R computes: sum over rows of the clamped band width.
func dtwCells(n, R int) int64 {
	if R < 0 || R > n-1 {
		R = n - 1
	}
	var cells int64
	for i := 0; i < n; i++ {
		lo, hi := i-R, i+R
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		cells += int64(hi - lo + 1)
	}
	return cells
}

// Curve is one strategy's efficiency curve: the steps-per-comparison ratio
// against brute force at each database size.
type Curve struct {
	Label string
	Sizes []int
	Ratio []float64
}

// EfficiencyConfig parametrizes Figures 19–23.
type EfficiencyConfig struct {
	Workload Workload
	// UseDTW selects the DTW variant of the figure (Figures 20/23); false
	// selects Euclidean (Figures 19/21-left/22).
	UseDTW bool
	// R is the Sakoe-Chiba radius for DTW figures (the paper learns ≈ a few
	// percent of n; Figure 20's baseline line uses R = 5).
	R int
	// Sizes are the database sizes m to sweep.
	Sizes []int
	// N is the series length.
	N int
	// Queries is the number of query repetitions to average (paper: 50).
	Queries int
	// Seed drives the data generator and query choice.
	Seed int64
}

// Efficiency reproduces one of the efficiency figures: the steps ratio of
// each strategy versus brute force, as a function of database size.
//
// Euclidean figures return curves: brute, fft, early-abandon, wedge
// (Figure 19/21-left/22). DTW figures return: brute (unconstrained),
// brute-R (banded, no abandoning), early-abandon, wedge (Figure 20/21-right/23).
func Efficiency(cfg EfficiencyConfig) ([]Curve, error) {
	if len(cfg.Sizes) == 0 || cfg.N < 8 || cfg.Queries < 1 {
		return nil, fmt.Errorf("experiments: bad config %+v", cfg)
	}
	maxM := 0
	for _, m := range cfg.Sizes {
		if m > maxM {
			maxM = m
		}
	}
	all, err := generate(cfg.Workload, cfg.Seed, maxM+cfg.Queries, cfg.N)
	if err != nil {
		return nil, err
	}
	queries := all[maxM : maxM+cfg.Queries]
	pool := all[:maxM]

	n := cfg.N
	var labels []string
	if cfg.UseDTW {
		labels = []string{"brute", "brute-R", "early-abandon", "wedge"}
	} else {
		labels = []string{"brute", "fft", "early-abandon", "wedge"}
	}
	curves := make([]Curve, len(labels))
	for i, l := range labels {
		curves[i] = Curve{Label: l, Sizes: cfg.Sizes, Ratio: make([]float64, len(cfg.Sizes))}
	}

	for si, m := range cfg.Sizes {
		db := pool[:m]
		// Analytic brute-force denominators.
		var brutePer float64
		if cfg.UseDTW {
			brutePer = float64(n) * float64(dtwCells(n, -1)) // all rotations × full matrix
		} else {
			brutePer = float64(n) * float64(n)
		}
		comparisons := float64(m) * float64(cfg.Queries)

		perStrategy := map[string]float64{"brute": brutePer * comparisons}
		if cfg.UseDTW {
			perStrategy["brute-R"] = float64(n) * float64(dtwCells(n, cfg.R)) * comparisons
		}

		measured := []struct {
			label    string
			strategy core.Strategy
		}{
			{"early-abandon", core.EarlyAbandon},
			{"wedge", core.Wedge},
		}
		if !cfg.UseDTW {
			measured = append(measured, struct {
				label    string
				strategy core.Strategy
			}{"fft", core.FFTFilter})
		}
		for _, ms := range measured {
			var cnt stats.Counter
			for _, q := range queries {
				var kern wedge.Kernel = wedge.ED{}
				if cfg.UseDTW {
					kern = wedge.DTW{R: cfg.R}
				}
				// The rotation set's O(n²) set-up cost is charged only to the
				// wedge strategy, as in the paper; baselines use the plain
				// rotation loop which needs no set-up.
				var setup stats.Counter
				rs := core.NewRotationSet(q, core.DefaultOptions(), &setup)
				if ms.strategy == core.Wedge {
					cnt.Add(setup.Steps())
				}
				s := core.NewSearcher(rs, kern, ms.strategy, core.SearcherConfig{})
				s.Scan(db, &cnt)
			}
			perStrategy[ms.label] = float64(cnt.Steps())
		}

		for i, l := range labels {
			curves[i].Ratio[si] = perStrategy[l] / (brutePer * comparisons)
		}
	}
	return curves, nil
}

// DiskConfig parametrizes Figure 24.
type DiskConfig struct {
	Workload Workload
	// Dims sweeps the retained dimensionalities (paper: 4, 8, 16, 32).
	Dims []int
	// M is the database size; N the series length.
	M, N int
	// R is the DTW band for the DTW curve.
	R int
	// Queries is the number of query repetitions to average.
	Queries int
	Seed    int64
}

// DiskCurve is the fraction of objects fetched from disk per dimensionality.
type DiskCurve struct {
	Label    string
	Dims     []int
	Fraction []float64
}

// DiskAccesses reproduces Figure 24: the fraction of database objects that
// must be retrieved from disk to answer an exact 1-NN query, for the
// Euclidean (VP-tree over Fourier magnitudes) and DTW (PAA envelope bounds)
// index paths, across dimensionalities.
func DiskAccesses(cfg DiskConfig) ([]DiskCurve, error) {
	if len(cfg.Dims) == 0 || cfg.M < 2 || cfg.Queries < 1 {
		return nil, fmt.Errorf("experiments: bad config %+v", cfg)
	}
	all, err := generate(cfg.Workload, cfg.Seed, cfg.M+cfg.Queries, cfg.N)
	if err != nil {
		return nil, err
	}
	db := all[:cfg.M]
	queries := all[cfg.M : cfg.M+cfg.Queries]

	ed := DiskCurve{Label: "wedge-euclidean", Dims: cfg.Dims, Fraction: make([]float64, len(cfg.Dims))}
	dtw := DiskCurve{Label: "wedge-dtw", Dims: cfg.Dims, Fraction: make([]float64, len(cfg.Dims))}
	for di, D := range cfg.Dims {
		ix := index.Build(db, D)
		fetches := func(search func()) int64 {
			ix.Stats().Reset()
			search()
			return ix.Stats().Counts().IndexFetches
		}
		var edReads, dtwReads int64
		for _, q := range queries {
			rs := core.NewRotationSet(q, core.DefaultOptions(), nil)
			edReads += fetches(func() { ix.SearchED(rs, nil) })
			dtwReads += fetches(func() { ix.SearchDTW(rs, cfg.R, 0, nil) })
		}
		ed.Fraction[di] = float64(edReads) / float64(cfg.M*cfg.Queries)
		dtw.Fraction[di] = float64(dtwReads) / float64(cfg.M*cfg.Queries)
	}
	return []DiskCurve{ed, dtw}, nil
}

// ExponentConfig parametrizes the empirical-complexity experiment (the
// paper's O(n^1.06) claim, Sections 1 and 2.3).
type ExponentConfig struct {
	Lengths []int
	M       int
	Queries int
	Seed    int64
}

// ExponentResult reports the fitted power law steps ≈ a·n^b for the wedge
// strategy's per-comparison cost.
type ExponentResult struct {
	Lengths  []int
	Steps    []float64 // measured steps per comparison at each n
	Exponent float64
	Coeff    float64
}

// EmpiricalExponent measures the wedge strategy's per-comparison num_steps
// as a function of series length n on projectile-point data and fits a
// power law in log-log space.
func EmpiricalExponent(cfg ExponentConfig) (*ExponentResult, error) {
	if len(cfg.Lengths) < 2 || cfg.M < 2 || cfg.Queries < 1 {
		return nil, fmt.Errorf("experiments: bad config %+v", cfg)
	}
	res := &ExponentResult{Lengths: cfg.Lengths}
	for _, n := range cfg.Lengths {
		all := synth.ProjectilePoints(cfg.Seed, cfg.M+cfg.Queries, n)
		db := all[:cfg.M]
		var cnt stats.Counter
		for _, q := range all[cfg.M:] {
			rs := core.NewRotationSet(q, core.DefaultOptions(), &cnt)
			s := core.NewSearcher(rs, wedge.ED{}, core.Wedge, core.SearcherConfig{})
			s.Scan(db, &cnt)
		}
		res.Steps = append(res.Steps, float64(cnt.Steps())/float64(cfg.M*cfg.Queries))
	}
	xs := make([]float64, len(cfg.Lengths))
	for i, n := range cfg.Lengths {
		xs[i] = float64(n)
	}
	exp, coeff, err := stats.PowerLawFit(xs, res.Steps)
	if err != nil {
		return nil, err
	}
	res.Exponent, res.Coeff = exp, coeff
	return res, nil
}

// Table8Row is one row of the classification table.
type Table8Row struct {
	Name         string
	Classes      int
	Instances    int
	PaperSize    int
	EuclideanErr float64
	DTWErr       float64
	BestR        int
	PaperEuclErr float64
	PaperDTWErr  float64
	PaperR       int
}

// paperTable8 records the paper's reported numbers for EXPERIMENTS.md
// comparison (Table 8).
var paperTable8 = map[string]struct {
	ed, dtw float64
	r       int
}{
	"Face":           {3.839, 3.170, 3},
	"Swedish Leaves": {13.33, 10.84, 2},
	"Chicken":        {19.96, 19.96, 1},
	"MixedBag":       {4.375, 4.375, 1},
	"OSU Leaves":     {33.71, 15.61, 2},
	"Diatoms":        {27.53, 27.53, 1},
	"Aircraft":       {0.95, 0.0, 3},
	"Fish":           {11.43, 9.71, 1},
	"Light-Curve":    {14.15, 11.43, 3},
	"Yoga":           {4.70, 4.85, 1},
}

// Table8 reproduces the classification experiment for the named dataset:
// leave-one-out 1-NN error under rotation-invariant Euclidean distance and
// under DTW with the warping radius learned on a held-out split.
func Table8(name string, sizeScale float64) (*Table8Row, error) {
	d, err := synth.Table8Dataset(name, sizeScale)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	edErr, _ := classify.LeaveOneOut(d.Series, d.Labels, wedge.ED{}, opts)
	// Learn R on the training half only, then evaluate LOO on everything
	// with the chosen R (the paper's protocol).
	trS, trL, _, _ := classify.Split(d.Series, d.Labels)
	bestR, _ := classify.BestWarpingWindow(trS, trL, []int{1, 2, 3, 4}, opts)
	dtwErr, _ := classify.LeaveOneOut(d.Series, d.Labels, wedge.DTW{R: bestR}, opts)
	row := &Table8Row{
		Name:         name,
		Classes:      d.NumClasses,
		Instances:    len(d.Series),
		PaperSize:    synth.Table8PaperSize(name),
		EuclideanErr: 100 * edErr,
		DTWErr:       100 * dtwErr,
		BestR:        bestR,
	}
	if p, ok := paperTable8[name]; ok {
		row.PaperEuclErr, row.PaperDTWErr, row.PaperR = p.ed, p.dtw, p.r
	}
	return row, nil
}

// GeometricSizes returns the size sweep used on the figures' x axes: the
// paper's {32, 64, 125, 250, 500, 1000, 2000, 4000, 8000, 16000} clipped to
// maxM.
func GeometricSizes(maxM int) []int {
	base := []int{32, 64, 125, 250, 500, 1000, 2000, 4000, 8000, 16000}
	var out []int
	for _, m := range base {
		if m <= maxM {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		out = []int{maxM}
	}
	return out
}

// SpeedupAtLargestM summarizes a curve set: the wedge strategy's speedup
// factor over brute force at the largest database size.
func SpeedupAtLargestM(curves []Curve) float64 {
	for _, c := range curves {
		if c.Label == "wedge" && len(c.Ratio) > 0 {
			r := c.Ratio[len(c.Ratio)-1]
			if r <= 0 {
				return math.Inf(1)
			}
			return 1 / r
		}
	}
	return 0
}
