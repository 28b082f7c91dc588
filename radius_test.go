package lbkeogh

import (
	"fmt"
	"testing"

	"lbkeogh/internal/synth"
	"lbkeogh/internal/ts"
)

// TestUnconstrainedRadiusMatchesBruteForce holds the warped measures at a
// negative radius (the documented unconstrained path) and at n-1 to brute
// force, on the flat scan and on the streaming Monitor. A negative radius
// once left every wedge unwidened, so LB_Keogh was no lower bound and the
// wedge scan returned worse rows than brute force.
func TestUnconstrainedRadiusMatchesBruteForce(t *testing.T) {
	const n = 32
	rows := synth.Heterogeneous(7, 72, n)
	db := make([]Series, 64)
	for i := range db {
		db[i] = rows[i]
	}
	queries := rows[len(db):]
	for _, m := range []Measure{DTW(-1), DTW(n - 1), LCSS(-1, 0.5), LCSS(n-1, 0.5)} {
		m := m
		t.Run(fmt.Sprintf("%s/%d", m.Name(), m.kern.Radius()), func(t *testing.T) {
			for qi, s := range queries {
				wq, err := NewQuery(s, m)
				if err != nil {
					t.Fatal(err)
				}
				bq, err := NewQuery(s, m, WithStrategy(BruteForceSearch))
				if err != nil {
					t.Fatal(err)
				}
				got, err := wq.Search(db)
				if err != nil {
					t.Fatal(err)
				}
				want, err := bq.Search(db)
				if err != nil {
					t.Fatal(err)
				}
				if got.Index != want.Index || got.Dist != want.Dist { //lint:ignore floateq both strategies return the one exact kernel value
					t.Fatalf("query %d: wedge row %d at %v, brute force row %d at %v", qi, got.Index, got.Dist, want.Index, want.Dist)
				}
			}

			patterns := queries[:4]
			rng := ts.NewRand(11)
			var stream []float64
			for _, p := range patterns {
				stream = append(stream, ts.RandomSeries(rng, 13)...)
				stream = append(stream, ts.AddNoise(rng, p, 0.2)...)
			}
			threshold := 0.6
			if m.Name() == "dtw" {
				threshold = 3
			}
			mon, err := NewMonitor(patterns, m, threshold)
			if err != nil {
				t.Fatal(err)
			}
			got := map[[2]int]float64{}
			for _, h := range mon.PushAll(stream) {
				got[[2]int{h.End, h.Pattern}] = h.Dist
			}
			want := map[[2]int]float64{}
			for end := n - 1; end < len(stream); end++ {
				for pi, p := range patterns {
					if d, _ := m.kern.Distance(stream[end-n+1:end+1], p, -1, nil); d < threshold {
						want[[2]int{end, pi}] = d
					}
				}
			}
			if len(want) == 0 {
				t.Fatal("no window matches: the stream does not exercise the monitor")
			}
			if len(got) != len(want) {
				t.Fatalf("monitor reported %d matches, brute force %d", len(got), len(want))
			}
			for k, d := range want {
				if g, ok := got[k]; !ok || g != d { //lint:ignore floateq the monitor reports the one exact kernel value
					t.Fatalf("window ending %d, pattern %d: monitor %v (reported %t), brute force %v", k[0], k[1], g, ok, d)
				}
			}
		})
	}
}
