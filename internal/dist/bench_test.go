package dist

// The kernel rungs of the benchmark ladder (ROADMAP item 2a) as testing.B:
// ns per DP cell of the banded kernels at the series lengths the repo's
// workloads use, for the paper's narrow band and a 10 % band.

import (
	"fmt"
	"testing"

	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
)

var benchSink float64

// benchBanded times kernel over random-walk pairs of every n × R rung and
// reports ns/cell from the kernel's own step count (one step per cell).
func benchBanded(b *testing.B, kernel func(q, c []float64, R int, cnt *stats.Tally) float64) {
	for _, n := range []int{64, 251, 256, 1024} {
		for _, R := range []int{5, n / 10} {
			b.Run(fmt.Sprintf("n=%d/R=%d", n, R), func(b *testing.B) {
				rng := ts.NewRand(int64(n))
				q, c := ts.RandomWalk(rng, n), ts.RandomWalk(rng, n)
				var cnt stats.Tally
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink += kernel(q, c, R, &cnt)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cnt.Steps()), "ns/cell")
			})
		}
	}
}

func BenchmarkDTWBanded(b *testing.B) {
	benchBanded(b, DTW)
}

func BenchmarkLCSS(b *testing.B) {
	benchBanded(b, func(q, c []float64, R int, cnt *stats.Tally) float64 {
		return float64(LCSS(q, c, R, 0.5, cnt))
	})
}
