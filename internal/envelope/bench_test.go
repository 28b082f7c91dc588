package envelope

// The envelope-widening rung of the benchmark ladder (ROADMAP item 2a): ns
// per series element of ExpandDTW on a wedge of eight random walks, at the
// series lengths the repo's workloads use, for the paper's narrow band and a
// 10 % band.

import (
	"fmt"
	"testing"

	"lbkeogh/internal/stats"
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

// abandonAt is the mean number of positions a recorded scan-ed bound call
// reads before it abandons.
const abandonAt = 26

// BenchmarkLBKeoghAbandoning is LB_Keogh's own rung: a bound call that
// abandons after abandonAt positions, as most calls of a wedge walk do,
// beside calls that read the whole row. There are 64 wedges, each around
// four noisy copies (σ = 0.3) of one z-normalised random walk, n = 251, and
// 512 rows, eight more noisy copies of each walk, so that a row crosses its
// wedge's sides as a database row crosses a tight wedge of the query's
// rotations. The calls run through 4096 (row, own wedge) pairs in random
// order, too many for a branch predictor to learn; each pair's row leaves the
// wedge at position abandonAt, and an abandoning call's threshold is the root
// of its bound over the positions before, so it stops exactly there. ns/call
// beside ns/position shows what a call costs beyond the positions it reads.
func BenchmarkLBKeoghAbandoning(b *testing.B) {
	const n, walks, copies, pairs = 251, 64, 8, 4096
	rng := ts.NewRand(251)
	noisy := func(base []float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = base[i] + 0.3*rng.NormFloat64()
		}
		return s
	}
	envs, rows := make([]Envelope, walks), make([][]float64, walks*copies)
	for w := range envs {
		base := ts.ZNorm(ts.RandomWalk(rng, n))
		envs[w] = New(noisy(base), noisy(base), noisy(base), noisy(base))
		for c := 0; c < copies; c++ {
			rows[w*copies+c] = noisy(base)
		}
	}
	type pair struct {
		q     []float64
		e     Envelope
		short float64
	}
	ps := make([]pair, 0, pairs)
	for len(ps) < pairs {
		row := rng.Intn(len(rows))
		q, e, k := rows[row], envs[row/copies], abandonAt-1
		if e.L[k] <= q[k] && q[k] <= e.U[k] {
			continue
		}
		short, _ := LBKeogh(q[:k], Envelope{U: e.U[:k], L: e.L[:k]}, -1, nil)
		ps = append(ps, pair{q, e, short})
	}
	for _, c := range []struct {
		name string
		r    func(p pair) float64
	}{
		{"abandoning", func(p pair) float64 { return p.short }},
		{"full-row", func(pair) float64 { return -1 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var steps stats.Tally
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &ps[i%pairs]
				lb, _ := LBKeogh(p.q, p.e, c.r(*p), &steps)
				benchFloat += lb
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(b.N), "ns/call")
			b.ReportMetric(ns/float64(steps.Steps()), "ns/position")
			b.ReportMetric(float64(steps.Steps())/float64(b.N), "positions/call")
		})
	}
}

var benchFloat float64
