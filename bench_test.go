package lbkeogh

// One benchmark per table/figure of the paper's evaluation (Section 5),
// plus ablations for the design decisions DESIGN.md calls out. These run at
// reduced scale so `go test -bench=.` finishes in minutes; cmd/benchrun
// performs the full parameter sweeps and prints the figures' series.
//
// Figure mapping:
//   BenchmarkFigure19*  — projectile points, Euclidean (steps vs brute force)
//   BenchmarkFigure20*  — projectile points, DTW
//   BenchmarkFigure21*  — heterogeneous dataset, ED + DTW
//   BenchmarkFigure22*  — light curves, Euclidean
//   BenchmarkFigure23*  — light curves, DTW
//   BenchmarkFigure24*  — disk accesses through the compressed index
//   BenchmarkTable8*    — 1-NN classification
//   BenchmarkAblation*  — dynamic K, wedge clustering, early abandoning,
//                         index wedge count
//   BenchmarkKernel*    — raw distance kernels and bounds

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"lbkeogh/internal/classify"
	"lbkeogh/internal/core"
	"lbkeogh/internal/dist"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/fourier"
	"lbkeogh/internal/index"
	"lbkeogh/internal/lightcurve"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/synth"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// benchData caches the generated workloads across benchmarks.
var benchData struct {
	once      sync.Once
	projDB    [][]float64 // 512 × 251
	projQuery []float64
	hetDB     [][]float64 // 256 × 256
	hetQuery  []float64
	lcDB      [][]float64 // 256 × 256
	lcQuery   []float64
}

func loadBenchData() {
	benchData.once.Do(func() {
		proj := synth.ProjectilePoints(2006, 513, 251)
		benchData.projDB, benchData.projQuery = proj[:512], proj[512]
		het := synth.Heterogeneous(2007, 257, 256)
		benchData.hetDB, benchData.hetQuery = het[:256], het[256]
		lc, _ := lightcurve.Dataset(2008, 257, 256, 0.15)
		benchData.lcDB, benchData.lcQuery = lc[:256], lc[256]
	})
}

// benchScanStats runs one full database scan per iteration with the given
// strategy/kernel and reports steps-per-comparison as a custom metric.
func benchScanStats(b *testing.B, db [][]float64, query []float64, kern wedge.Kernel, strat core.Strategy) {
	b.Helper()
	loadBenchData()
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := core.NewRotationSet(query, core.DefaultOptions(), nil)
		s := core.NewSearcher(rs, kern, strat, core.SearcherConfig{})
		res := s.Scan(db, nil)
		if res.Index < 0 {
			b.Fatal("scan found nothing")
		}
		steps += rs.SetupSteps + s.Steps()
	}
	b.ReportMetric(float64(steps)/float64(b.N)/float64(len(db)), "steps/comparison")
}

// --- Figure 19: projectile points, Euclidean -------------------------------

func BenchmarkFigure19Wedge(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.projDB, benchData.projQuery, wedge.ED{}, core.Wedge)
}

func BenchmarkFigure19EarlyAbandon(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.projDB, benchData.projQuery, wedge.ED{}, core.EarlyAbandon)
}

func BenchmarkFigure19FFT(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.projDB, benchData.projQuery, wedge.ED{}, core.FFTFilter)
}

func BenchmarkFigure19BruteForce(b *testing.B) {
	loadBenchData()
	// Brute force over 512×251 rotations is slow; shrink the database so a
	// single iteration stays sub-second. The steps metric is still per
	// comparison and thus comparable.
	benchScanStats(b, benchData.projDB[:64], benchData.projQuery, wedge.ED{}, core.BruteForce)
}

// --- Figure 20: projectile points, DTW --------------------------------------

func BenchmarkFigure20Wedge(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.projDB, benchData.projQuery, wedge.DTW{R: 5}, core.Wedge)
}

func BenchmarkFigure20EarlyAbandon(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.projDB, benchData.projQuery, wedge.DTW{R: 5}, core.EarlyAbandon)
}

func BenchmarkFigure20BruteForceBandR(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.projDB[:32], benchData.projQuery, wedge.DTW{R: 5}, core.BruteForce)
}

// --- Figure 21: heterogeneous dataset ---------------------------------------

func BenchmarkFigure21EuclideanWedge(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.hetDB, benchData.hetQuery, wedge.ED{}, core.Wedge)
}

func BenchmarkFigure21DTWWedge(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.hetDB, benchData.hetQuery, wedge.DTW{R: 5}, core.Wedge)
}

// --- Figures 22–23: light curves --------------------------------------------

func BenchmarkFigure22EuclideanWedge(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.lcDB, benchData.lcQuery, wedge.ED{}, core.Wedge)
}

func BenchmarkFigure22EuclideanEarlyAbandon(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.lcDB, benchData.lcQuery, wedge.ED{}, core.EarlyAbandon)
}

func BenchmarkFigure23DTWWedge(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.lcDB, benchData.lcQuery, wedge.DTW{R: 5}, core.Wedge)
}

func BenchmarkFigure23DTWEarlyAbandon(b *testing.B) {
	loadBenchData()
	benchScanStats(b, benchData.lcDB, benchData.lcQuery, wedge.DTW{R: 5}, core.EarlyAbandon)
}

// --- Figure 24: disk accesses -----------------------------------------------

func benchIndexSearch(b *testing.B, dtw bool, dims int) {
	b.Helper()
	loadBenchData()
	ix := index.Build(benchData.projDB, dims)
	rs := core.NewRotationSet(benchData.projQuery, core.DefaultOptions(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dtw {
			ix.SearchDTW(rs, 5, 0, nil)
		} else {
			ix.SearchED(rs, nil)
		}
	}
	reads := ix.Stats().Counts().IndexFetches
	b.ReportMetric(float64(reads)/float64(b.N)/float64(len(benchData.projDB)), "fetched-fraction")
}

func BenchmarkFigure24EuclideanD8(b *testing.B)  { benchIndexSearch(b, false, 8) }
func BenchmarkFigure24EuclideanD32(b *testing.B) { benchIndexSearch(b, false, 32) }
func BenchmarkFigure24DTWD8(b *testing.B)        { benchIndexSearch(b, true, 8) }
func BenchmarkFigure24DTWD32(b *testing.B)       { benchIndexSearch(b, true, 32) }

// --- Table 8: classification -------------------------------------------------

func BenchmarkTable8Classification(b *testing.B) {
	d, err := synth.Table8Dataset("MixedBag", 0.4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errRate, _ := classify.LeaveOneOut(d.Series, d.Labels, wedge.ED{}, core.DefaultOptions())
		if errRate > 1 {
			b.Fatal("impossible error rate")
		}
	}
}

// --- Ablations ----------------------------------------------------------------

// Dynamic K against a sweep of pinned wedge-set sizes (design decision 3),
// on the figures' 512 projectile points, on scan-ed's shape (16 000 of them)
// and on scan-dtw's (4 096 heterogeneous shapes under DTW(5)): the sweep
// shows where the cheapest K sits at each size and how close the controller
// comes to it without being told. Four held-out queries per case — one
// query's cheapest K says little about the next one's.
func BenchmarkAblationDynamicK(b *testing.B) {
	const queries = 4
	for _, tc := range []struct {
		name   string
		family func(seed int64, m, n int) [][]float64
		m, n   int
		kernel wedge.Kernel
	}{
		{"ed-m512", synth.ProjectilePoints, 512, 251, wedge.ED{}},
		{"ed-m16000", synth.ProjectilePoints, 16000, 251, wedge.ED{}},
		{"dtw5-m4096", synth.Heterogeneous, 4096, 256, wedge.DTW{R: 5}},
	} {
		var db [][]float64 // generated by the first sub-benchmark that runs
		for _, fixedK := range []int{0, 1, 2, 4, 8, 16, 32, tc.n} {
			name := "dynamic"
			if fixedK > 0 {
				name = fmt.Sprintf("K%d", fixedK)
			}
			b.Run(tc.name+"/"+name, func(b *testing.B) {
				if db == nil {
					db = tc.family(2006, tc.m+queries, tc.n)
					b.ResetTimer()
				}
				var steps int64
				for i := 0; i < b.N; i++ {
					for _, query := range db[tc.m:] {
						rs := core.NewRotationSet(query, core.DefaultOptions(), nil)
						s := core.NewSearcher(rs, tc.kernel, core.Wedge, core.SearcherConfig{FixedK: fixedK})
						s.Scan(db[:tc.m], nil)
						steps += rs.SetupSteps + s.Steps()
					}
				}
				b.ReportMetric(float64(steps)/float64(b.N)/float64(queries*tc.m), "steps/comparison")
			})
		}
	}
}

// Dendrogram-derived wedges vs naive contiguous-rotation grouping (design
// decision 5): clustering by actual series similarity is what makes wedges
// tight.
func BenchmarkAblationClusteredWedges(b *testing.B) {
	loadBenchData()
	db, query := benchData.projDB, benchData.projQuery
	n := len(query)
	rotations := make([][]float64, n)
	for i := range rotations {
		rotations[i] = ts.Rotate(query, i)
	}
	builds := map[string]func() *wedge.Tree{
		"clustered": func() *wedge.Tree {
			return wedge.Build(rotations, func(i, j int) float64 {
				return dist.Euclidean(rotations[i], rotations[j], nil)
			}, nil)
		},
		"contiguous": func() *wedge.Tree {
			return wedge.Build(rotations, func(i, j int) float64 {
				d := i - j
				if d < 0 {
					d = -d
				}
				if n-d < d {
					d = n - d
				}
				return float64(d) // circular index distance: adjacent shifts merge first
			}, nil)
		},
	}
	for name, build := range builds {
		b.Run(name, func(b *testing.B) {
			tree := build()
			var steps int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var cnt stats.Tally
				bsf := math.Inf(1)
				for _, x := range db {
					res := tree.Search(x, wedge.ED{}, 8, bsf, wedge.LIFO, &cnt)
					if res.BestMember >= 0 && res.Dist < bsf {
						bsf = res.Dist
					}
				}
				steps += cnt.Steps()
			}
			b.ReportMetric(float64(steps)/float64(b.N)/float64(len(db)), "steps/comparison")
		})
	}
}

// Early abandoning on/off inside the Euclidean kernel (design decision 6).
func BenchmarkAblationEarlyAbandon(b *testing.B) {
	loadBenchData()
	db, query := benchData.projDB, benchData.projQuery
	b.Run("on", func(b *testing.B) {
		benchScanStats(b, db, query, wedge.ED{}, core.EarlyAbandon)
	})
	b.Run("off", func(b *testing.B) {
		benchScanStats(b, db[:64], query, wedge.ED{}, core.BruteForce)
	})
}

// --- Extensions: mining, streaming, parallel scan -----------------------------

func BenchmarkMiningClosestPair(b *testing.B) {
	loadBenchData()
	db := benchData.projDB[:64]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClosestPair(db, Euclidean()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamFilter(b *testing.B) {
	loadBenchData()
	patterns := benchData.projDB[:16]
	rng := ts.NewRand(99)
	streamVals := ts.RandomSeries(rng, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewMonitor(patterns, Euclidean(), 1.0)
		if err != nil {
			b.Fatal(err)
		}
		m.PushAll(streamVals)
	}
}

func BenchmarkParallelScan(b *testing.B) {
	loadBenchData()
	db, query := benchData.projDB, benchData.projQuery
	rs := core.NewRotationSet(query, core.DefaultOptions(), nil)
	for _, workers := range []int{1, 2, 4} {
		b.Run("workers"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ScanParallel(rs, wedge.ED{}, core.Wedge, core.SearcherConfig{}, db, workers, nil)
			}
		})
	}
}

// --- Raw kernels ---------------------------------------------------------------

func BenchmarkKernelEuclidean(b *testing.B) {
	rng := ts.NewRand(1)
	x := ts.RandomWalk(rng, 251)
	y := ts.RandomWalk(rng, 251)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.Euclidean(x, y, nil)
	}
}

func BenchmarkKernelDTWBanded(b *testing.B) {
	rng := ts.NewRand(2)
	x := ts.RandomWalk(rng, 251)
	y := ts.RandomWalk(rng, 251)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.DTW(x, y, 5, nil)
	}
}

func BenchmarkKernelLBKeogh(b *testing.B) {
	rng := ts.NewRand(3)
	set := [][]float64{ts.RandomWalk(rng, 251), ts.RandomWalk(rng, 251), ts.RandomWalk(rng, 251)}
	env := envelope.New(set...)
	q := ts.RandomWalk(rng, 251)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		envelope.LBKeogh(q, env, -1, nil)
	}
}

func BenchmarkKernelFFTMagnitudes(b *testing.B) {
	rng := ts.NewRand(4)
	x := ts.RandomWalk(rng, 251)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fourier.Magnitudes(x, 32)
	}
}

// A query's set-up cost (Section 4.1): rotation views, circulant profiles,
// distance matrix, NN-chain and node envelopes. n251 is the size every
// repo-benchmark workload builds per op.
func BenchmarkKernelRotationSetBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		opts core.Options
	}{
		{"n251", 251, core.DefaultOptions()},
		{"n251_mirror", 251, core.Options{Mirror: true, MaxShift: -1}},
		{"n1024", 1024, core.DefaultOptions()},
	} {
		b.Run(c.name, func(b *testing.B) {
			x := ts.RandomWalk(ts.NewRand(5), c.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.NewRotationSet(x, c.opts, nil)
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
