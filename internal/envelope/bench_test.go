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

// BenchmarkLBKeoghAbandoning is LB_Keogh's own rung: bound calls that abandon
// after 1, 2, 4 and abandonAt positions, beside calls that read the whole
// row. In a scan-ed trace most calls abandon within a few positions (30 %
// within 2, half within 8), and those are the calls where a test once per
// block of four reads the most positions past the abandon. There are 64
// wedges, each around four noisy copies (σ = 0.3) of one z-normalised random
// walk, n = 251, and 512 rows, eight more noisy copies of each walk, so that
// a row crosses its wedge's sides as a database row crosses a tight wedge of
// the query's rotations. The calls run through 4096 (row, own wedge) pairs
// in random order, too many for a branch predictor to learn; for an abandon
// point k each pair's row leaves the wedge at position k, and the threshold
// is the root of its bound over the positions before, so the call stops
// exactly there. ns/call beside ns/position shows what a call costs beyond
// the positions it reads.
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
		q []float64
		e Envelope
		r float64
	}
	// pairsAt draws the pairs of a call that abandons after k positions, or
	// reads the whole row (r < 0) for k = 0.
	pairsAt := func(k int) []pair {
		ps := make([]pair, 0, pairs)
		for len(ps) < pairs {
			row := rng.Intn(len(rows))
			q, e := rows[row], envs[row/copies]
			if k == 0 {
				ps = append(ps, pair{q, e, -1})
				continue
			}
			if e.L[k-1] <= q[k-1] && q[k-1] <= e.U[k-1] {
				continue
			}
			r, _ := LBKeogh(q[:k-1], Envelope{U: e.U[:k-1], L: e.L[:k-1]}, -1, nil)
			// Squaring the root can round below the bound it came from, and
			// then the call stops a position early: draw again.
			var steps stats.Tally
			if _, a := LBKeogh(q, e, r, &steps); !a || steps.Steps() != int64(k) {
				continue
			}
			ps = append(ps, pair{q, e, r})
		}
		return ps
	}
	for _, k := range []int{1, 2, 4, abandonAt, 0} {
		name := fmt.Sprintf("abandon-at-%d", k)
		if k == 0 {
			name = "full-row"
		}
		ps := pairsAt(k)
		b.Run(name, func(b *testing.B) {
			var steps stats.Tally
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &ps[i%pairs]
				lb, _ := LBKeogh(p.q, p.e, p.r, &steps)
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
