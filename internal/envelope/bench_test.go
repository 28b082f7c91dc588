package envelope

// The envelope-widening rung of the benchmark ladder (ROADMAP item 2a): ns
// per series element of ExpandDTW on a wedge of eight random walks, at the
// series lengths the repo's workloads use, for the paper's narrow band and a
// 10 % band.

import (
	"fmt"
	"testing"

	"lbkeogh/internal/ts"
)

var benchSink int

func BenchmarkExpandDTW(b *testing.B) {
	for _, n := range []int{64, 251, 256, 1024} {
		for _, R := range []int{5, n / 10} {
			b.Run(fmt.Sprintf("n=%d/R=%d", n, R), func(b *testing.B) {
				rng := ts.NewRand(int64(n))
				members := make([][]float64, 8)
				for i := range members {
					members[i] = ts.RandomWalk(rng, n)
				}
				env := New(members...)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink += env.ExpandDTW(R).Len()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
			})
		}
	}
}
