package wedge

import (
	"math"
	"testing"

	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
)

func buildStatsTree(t *testing.T, m, n int) *Tree {
	t.Helper()
	rng := ts.NewRand(11)
	members := make([][]float64, m)
	for i := range members {
		s := make([]float64, n)
		for j := range s {
			s[j] = rng.Float64()*2 - 1
		}
		members[i] = s
	}
	var tally stats.Tally
	return Build(members, func(i, j int) float64 {
		var acc float64
		for k := range members[i] {
			d := members[i][k] - members[j][k]
			acc += d * d
		}
		return math.Sqrt(acc)
	}, &tally)
}

func TestTreeStats(t *testing.T) {
	if st := buildStatsTree(t, 40, 32).Stats(); st.MaxDepth < 1 {
		t.Errorf("MaxDepth = %d, want >= 1", st.MaxDepth)
	}
}

func TestTreeStatsSingleMember(t *testing.T) {
	if st := buildStatsTree(t, 1, 8).Stats(); st.MaxDepth != 0 {
		t.Errorf("single-member stats = %+v", st)
	}
}
