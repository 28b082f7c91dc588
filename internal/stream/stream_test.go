package stream

import (
	"math"
	"sort"
	"testing"

	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// bruteFilter replays the stream with a plain sliding window and exhaustive
// pattern comparison — the reference the monitor must match exactly.
func bruteFilter(values []float64, patterns [][]float64, kern wedge.Kernel, threshold float64) []Match {
	n := len(patterns[0])
	var out []Match
	for end := n - 1; end < len(values); end++ {
		w := values[end-n+1 : end+1]
		for p, pat := range patterns {
			d, _ := kern.Distance(w, pat, -1, nil)
			if d < threshold {
				out = append(out, Match{End: end, Pattern: p, Dist: d})
			}
		}
	}
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].End != ms[b].End {
			return ms[a].End < ms[b].End
		}
		return ms[a].Pattern < ms[b].Pattern
	})
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	sortMatches(a)
	sortMatches(b)
	for i := range a {
		if a[i].End != b[i].End || a[i].Pattern != b[i].Pattern ||
			math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

func testStream(seed int64, length int, patterns [][]float64) []float64 {
	rng := ts.NewRand(seed)
	stream := ts.RandomSeries(rng, length)
	// Embed each pattern once, with mild noise.
	for p, pat := range patterns {
		at := (p + 1) * length / (len(patterns) + 2)
		for i, v := range pat {
			stream[at+i] = v + 0.05*rng.NormFloat64()
		}
	}
	return stream
}

func makePatterns(seed int64, k, n int) [][]float64 {
	rng := ts.NewRand(seed)
	out := make([][]float64, k)
	for i := range out {
		out[i] = ts.RandomWalk(rng, n)
	}
	return out
}

func TestMonitorMatchesBruteED(t *testing.T) {
	patterns := makePatterns(1, 4, 32)
	stream := testStream(2, 400, patterns)
	m, err := NewMonitor(patterns, wedge.ED{}, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	got := m.PushAll(stream)
	want := bruteFilter(stream, patterns, wedge.ED{}, 2.0)
	if len(want) == 0 {
		t.Fatal("test stream should contain matches")
	}
	if !matchesEqual(got, want) {
		t.Fatalf("monitor %d matches != brute %d matches", len(got), len(want))
	}
}

func TestMonitorMatchesBruteDTW(t *testing.T) {
	patterns := makePatterns(3, 3, 24)
	stream := testStream(4, 300, patterns)
	kern := wedge.DTW{R: 2}
	m, err := NewMonitor(patterns, kern, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	got := m.PushAll(stream)
	want := bruteFilter(stream, patterns, kern, 1.5)
	if !matchesEqual(got, want) {
		t.Fatalf("DTW monitor %d matches != brute %d matches", len(got), len(want))
	}
}

func TestMonitorFindsEmbeddedPatterns(t *testing.T) {
	patterns := makePatterns(5, 3, 32)
	stream := testStream(6, 500, patterns)
	m, err := NewMonitor(patterns, wedge.ED{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, match := range m.PushAll(stream) {
		found[match.Pattern] = true
	}
	for p := range patterns {
		if !found[p] {
			t.Fatalf("embedded pattern %d never fired", p)
		}
	}
}

func TestMonitorNoMatchesBeforeWindowFills(t *testing.T) {
	patterns := makePatterns(7, 2, 16)
	m, err := NewMonitor(patterns, wedge.ED{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if got := m.Push(patterns[0][i%16]); got != nil {
			t.Fatalf("match before window filled at %d: %v", i, got)
		}
	}
}

func TestMonitorSavesStepsOverBrute(t *testing.T) {
	patterns := makePatterns(8, 16, 64)
	rng := ts.NewRand(9)
	stream := ts.RandomSeries(rng, 2000) // pure noise: everything prunes
	m, err := NewMonitor(patterns, wedge.ED{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m.PushAll(stream)
	windows := int64(2000 - 63)
	brutePerWindow := int64(16 * 64) // full comparison per pattern
	if m.Steps() >= windows*brutePerWindow/4 {
		t.Fatalf("wedge filtering saved too little: %d steps vs brute %d",
			m.Steps(), windows*brutePerWindow)
	}
}

func TestMonitorValidation(t *testing.T) {
	good := makePatterns(10, 2, 8)
	if _, err := NewMonitor(nil, wedge.ED{}, 1); err == nil {
		t.Fatal("want error for empty pattern set")
	}
	if _, err := NewMonitor([][]float64{{1}}, wedge.ED{}, 1); err == nil {
		t.Fatal("want error for 1-sample patterns")
	}
	if _, err := NewMonitor([][]float64{good[0], good[1][:4]}, wedge.ED{}, 1); err == nil {
		t.Fatal("want error for ragged patterns")
	}
	if _, err := NewMonitor(good, wedge.ED{}, 0); err == nil {
		t.Fatal("want error for non-positive threshold")
	}
	m, err := NewMonitor(good, wedge.ED{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.WindowLen() != 8 {
		t.Fatalf("WindowLen = %d", m.WindowLen())
	}
}

// Once the window is full, a Push that matches nothing allocates nothing:
// the window and the wedge walk's stack live on the Monitor.
func TestMonitorPushDoesNotAllocate(t *testing.T) {
	patterns := makePatterns(10, 8, 32)
	for _, kern := range []wedge.Kernel{wedge.ED{}, wedge.DTW{R: 3}} {
		m, err := NewMonitor(patterns, kern, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		stream := ts.RandomSeries(ts.NewRand(11), 256)
		m.PushAll(stream[:64])
		i := 64
		allocs := testing.AllocsPerRun(100, func() {
			if got := m.Push(stream[i%len(stream)]); got != nil {
				t.Fatalf("unexpected match %v", got)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%T: %v allocations per non-matching Push, want 0", kern, allocs)
		}
	}
}
