// Package stream holds black-box tests of the root package's streaming
// Monitor (stream.go): matches against a brute-force sliding window, the
// steps wedge filtering saves, validation, allocations per Push and the
// pinned record of one seeded stream. The package has no non-test code.
package stream

import (
	"math"
	"sort"
	"testing"

	"lbkeogh"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// bruteFilter replays the stream with a plain sliding window and exhaustive
// pattern comparison under kern, the kernel the Measure under test wraps —
// the reference the monitor must match exactly.
func bruteFilter(values []float64, patterns []lbkeogh.Series, kern wedge.Kernel, threshold float64) []lbkeogh.StreamMatch {
	n := len(patterns[0])
	var out []lbkeogh.StreamMatch
	for end := n - 1; end < len(values); end++ {
		w := values[end-n+1 : end+1]
		for p, pat := range patterns {
			d, _ := kern.Distance(w, pat, -1, nil)
			if d < threshold {
				out = append(out, lbkeogh.StreamMatch{End: end, Pattern: p, Dist: d})
			}
		}
	}
	return out
}

func sortMatches(ms []lbkeogh.StreamMatch) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].End != ms[b].End {
			return ms[a].End < ms[b].End
		}
		return ms[a].Pattern < ms[b].Pattern
	})
}

func matchesEqual(a, b []lbkeogh.StreamMatch) bool {
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

// testStream is seeded noise with each pattern embedded once, with mild
// noise of its own.
func testStream(seed int64, length int, patterns []lbkeogh.Series) []float64 {
	rng := ts.NewRand(seed)
	stream := ts.RandomSeries(rng, length)
	for p, pat := range patterns {
		at := (p + 1) * length / (len(patterns) + 2)
		for i, v := range pat {
			stream[at+i] = v + 0.05*rng.NormFloat64()
		}
	}
	return stream
}

func makePatterns(seed int64, k, n int) []lbkeogh.Series {
	rng := ts.NewRand(seed)
	out := make([]lbkeogh.Series, k)
	for i := range out {
		out[i] = ts.RandomWalk(rng, n)
	}
	return out
}

func TestMonitorMatchesBruteED(t *testing.T) {
	patterns := makePatterns(1, 4, 32)
	stream := testStream(2, 400, patterns)
	m, err := lbkeogh.NewMonitor(patterns, lbkeogh.Euclidean(), 2.0)
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
	m, err := lbkeogh.NewMonitor(patterns, lbkeogh.DTW(2), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	got := m.PushAll(stream)
	want := bruteFilter(stream, patterns, wedge.DTW{R: 2}, 1.5)
	if !matchesEqual(got, want) {
		t.Fatalf("DTW monitor %d matches != brute %d matches", len(got), len(want))
	}
}

func TestMonitorFindsEmbeddedPatterns(t *testing.T) {
	patterns := makePatterns(5, 3, 32)
	stream := testStream(6, 500, patterns)
	m, err := lbkeogh.NewMonitor(patterns, lbkeogh.Euclidean(), 1.0)
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
	m, err := lbkeogh.NewMonitor(patterns, lbkeogh.Euclidean(), 100)
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
	stream := ts.RandomSeries(ts.NewRand(9), 2000) // pure noise: everything prunes
	m, err := lbkeogh.NewMonitor(patterns, lbkeogh.Euclidean(), 0.5)
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
	if _, err := lbkeogh.NewMonitor(nil, lbkeogh.Euclidean(), 1); err == nil {
		t.Fatal("want error for empty pattern set")
	}
	if _, err := lbkeogh.NewMonitor([]lbkeogh.Series{{1}}, lbkeogh.Euclidean(), 1); err == nil {
		t.Fatal("want error for 1-sample patterns")
	}
	if _, err := lbkeogh.NewMonitor([]lbkeogh.Series{good[0], good[1][:4]}, lbkeogh.Euclidean(), 1); err == nil {
		t.Fatal("want error for ragged patterns")
	}
	if _, err := lbkeogh.NewMonitor(good, lbkeogh.Euclidean(), 0); err == nil {
		t.Fatal("want error for non-positive threshold")
	}
	m, err := lbkeogh.NewMonitor(good, lbkeogh.Euclidean(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.WindowLen() != 8 {
		t.Fatalf("WindowLen = %d", m.WindowLen())
	}
}

// monitorAfter returns a monitor over patterns whose window has been filled
// with seeded noise, and the noise that follows.
func monitorAfter(t *testing.T, patterns []lbkeogh.Series, m lbkeogh.Measure) (*lbkeogh.Monitor, []float64) {
	t.Helper()
	mon, err := lbkeogh.NewMonitor(patterns, m, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	stream := ts.RandomSeries(ts.NewRand(11), 256)
	mon.PushAll(stream[:64])
	return mon, stream
}

// Once the window is full, a Push that matches nothing allocates nothing:
// the window and the wedge walk's stack live on the Monitor.
func TestMonitorPushDoesNotAllocate(t *testing.T) {
	patterns := makePatterns(10, 8, 32)
	for _, m := range []lbkeogh.Measure{lbkeogh.Euclidean(), lbkeogh.DTW(3)} {
		mon, stream := monitorAfter(t, patterns, m)
		i := 64
		allocs := testing.AllocsPerRun(100, func() {
			if got := mon.Push(stream[i%len(stream)]); got != nil {
				t.Fatalf("unexpected match %v", got)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per non-matching Push, want 0", m.Name(), allocs)
		}
	}
}

// A Push that matches one pattern allocates its result and nothing else:
// one object, the match slice.
func TestMonitorPushAllocatesOnlyItsMatches(t *testing.T) {
	patterns := makePatterns(10, 8, 32)
	// Pattern 5 is constant, far from the walks and the noise: a window of
	// 7s matches it and nothing else.
	for i := range patterns[5] {
		patterns[5][i] = 7
	}
	for _, m := range []lbkeogh.Measure{lbkeogh.Euclidean(), lbkeogh.DTW(3)} {
		mon, _ := monitorAfter(t, patterns, m)
		mon.PushAll(patterns[5])
		allocs := testing.AllocsPerRun(100, func() {
			if got := mon.Push(7); len(got) != 1 || got[0].Pattern != 5 {
				t.Fatalf("a window of 7s matched %v, want pattern 5 alone", got)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: %v allocations per Push matching one pattern, want 1", m.Name(), allocs)
		}
	}
}
