package core

import (
	"math"
	"os"
	"sync"
	"testing"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/explain"
	"lbkeogh/internal/obs/trace"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// guardWorkload is a fixed scan shared by the tracing-overhead benchmarks so
// both sides measure identical work.
var guardWorkload struct {
	once sync.Once
	rs   *RotationSet
	db   [][]float64
}

func guardSetup() (*RotationSet, [][]float64) {
	guardWorkload.once.Do(func() {
		rng := ts.NewRand(11)
		q := ts.RandomWalk(rng, 64)
		guardWorkload.rs = NewRotationSet(q, DefaultOptions(), nil)
		guardWorkload.db = make([][]float64, 32)
		for i := range guardWorkload.db {
			guardWorkload.db[i] = ts.RandomWalk(rng, 64)
		}
	})
	return guardWorkload.rs, guardWorkload.db
}

// scanDirect is the untraced baseline: matchSeries with no recorder plumbing
// at all, on the tree MatchSeries reads before its first comparison.
func scanDirect(b *testing.B) {
	rs, db := guardSetup()
	s := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{})
	s.walkTree(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.matchSeries(db[i%len(db)], -1)
	}
}

// scanNilRecorder is the production entry point with tracing disabled: one
// nil check per comparison, nothing else.
func scanNilRecorder(b *testing.B) {
	rs, db := guardSetup()
	s := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{})
	s.SetRecorder(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MatchSeries(db[i%len(db)], -1, nil)
	}
}

// scanNilExplain is the production entry point with BOTH diagnostics hooks
// explicitly disabled: the explain nil check plus the recorder nil check,
// exactly what every steady-state comparison pays.
func scanNilExplain(b *testing.B) {
	rs, db := guardSetup()
	s := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{})
	s.SetRecorder(nil)
	s.SetExplain(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MatchSeries(db[i%len(db)], -1, nil)
	}
}

// scanSampled is the production entry point with a shared bound sampler at
// shapeserver's default interval: one full waterfall measurement per 512
// comparisons, one atomic add for each of the rest.
func scanSampled(b *testing.B) {
	rs, db := guardSetup()
	s := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{})
	s.SetExplain(explain.NewRecorder(512))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MatchSeries(db[i%len(db)], -1, nil)
	}
}

// scanSaturated is the production entry point with a recorder whose span
// buffer is already full — what all but the first 511 comparisons of a
// traced scan see. It must cost what a nil recorder costs.
func scanSaturated(b *testing.B) {
	rs, db := guardSetup()
	s := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{})
	rec := trace.NewRecorder("bench", 1)
	rec.Begin(trace.StageSearch, -1)
	s.SetRecorder(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MatchSeries(db[i%len(db)], -1, nil)
	}
}

func BenchmarkMatchSeriesUntraced(b *testing.B)    { scanDirect(b) }
func BenchmarkMatchSeriesNilRecorder(b *testing.B) { scanNilRecorder(b) }
func BenchmarkMatchSeriesNilExplain(b *testing.B)  { scanNilExplain(b) }
func BenchmarkMatchSeriesSampled(b *testing.B)     { scanSampled(b) }
func BenchmarkMatchSeriesSaturated(b *testing.B)   { scanSaturated(b) }

// tracedBatch is how many comparisons BenchmarkMatchSeriesTraced records
// into one recorder: well inside its span cap, so every comparison it times
// records its span rather than taking the saturated path.
const tracedBatch = 128

// BenchmarkMatchSeriesTraced shows the cost of span recording when it is on,
// recorder construction included, for comparison; it is not subject to the
// 2% guard.
func BenchmarkMatchSeriesTraced(b *testing.B) {
	rs, db := guardSetup()
	s := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%tracedBatch == 0 {
			s.SetRecorder(trace.NewRecorder("bench", trace.SpanCap))
		}
		s.MatchSeries(db[i%len(db)], -1, nil)
	}
}

// TestMatchSeriesDoesNotAllocate holds the comparison to its scratch: once a
// scan has found its best-so-far, MatchSeries allocates nothing: not the
// H-Merge stack, not a step tally escaping through the Kernel interface, and
// not a frontier cut — not even the first time the dynamic-K controller puts
// a rung on trial or moves to it, because NewSearcher cut the whole ladder.
func TestMatchSeriesDoesNotAllocate(t *testing.T) {
	rs, db := guardSetup()
	for _, kernel := range []wedge.Kernel{wedge.ED{}, wedge.DTW{R: 5}, wedge.LCSS{Delta: 5, Eps: 0.5}} {
		s := NewSearcher(rs, kernel, Wedge, SearcherConfig{Obs: new(obs.SearchStats)})
		best := s.Scan(db, nil).Dist
		visits := s.obs.Counts().WedgeNodeVisits
		usedK := make([]bool, rs.Members()+1)
		rescan := func() {
			for _, x := range db {
				usedK[s.dyn.K()] = true
				s.MatchSeries(x, best, nil)
			}
		}
		rescan() // grows the H-Merge stack to its high-water mark
		clear(usedK)
		if allocs := testing.AllocsPerRun(10, rescan); allocs != 0 {
			t.Errorf("%s: %v allocations per %d-comparison scan, want 0", kernel.Name(), allocs, len(db))
		}
		distinct := 0
		for _, used := range usedK {
			if used {
				distinct++
			}
		}
		if distinct < 2 {
			t.Errorf("%s: the measured rescans ran at one K; the test must cross a change of K", kernel.Name())
		}
		if s.obs.Counts().WedgeNodeVisits == visits {
			t.Errorf("%s: the rescans never descended a wedge; the test measures nothing", kernel.Name())
		}
	}
}

// TestNilRecorderOverheadGuard asserts the issue's performance criterion:
// with no recorder attached, MatchSeries must stay within 2% of the direct
// untraced path. Wall-clock comparisons are noisy under shared CI machines,
// so the guard runs only when LBKEOGH_PERF_GUARD is set (it is part of the
// documented local gate, not the default test run).
func TestNilRecorderOverheadGuard(t *testing.T) {
	if os.Getenv("LBKEOGH_PERF_GUARD") == "" {
		t.Skip("set LBKEOGH_PERF_GUARD=1 to run the tracing-overhead guard")
	}
	best := func(f func(b *testing.B)) float64 {
		lo := math.Inf(1)
		for i := 0; i < 5; i++ {
			r := testing.Benchmark(f)
			if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < lo {
				lo = ns
			}
		}
		return lo
	}
	// Warm all paths once so none pays first-touch costs.
	testing.Benchmark(scanDirect)
	testing.Benchmark(scanNilRecorder)
	testing.Benchmark(scanNilExplain)
	testing.Benchmark(scanSaturated)
	direct := best(scanDirect)
	nilRec := best(scanNilRecorder)
	ratio := nilRec / direct
	t.Logf("untraced %.0f ns/op, nil-recorder %.0f ns/op, ratio %.4f", direct, nilRec, ratio)
	if ratio > 1.02 {
		t.Errorf("nil-recorder path is %.2f%% slower than untraced search, budget is 2%%",
			(ratio-1)*100)
	}
	// The explain hook rides the same dispatch: with sampling disabled it must
	// stay one nil check, inside the same 2% budget.
	nilExp := best(scanNilExplain)
	ratio = nilExp / direct
	t.Logf("untraced %.0f ns/op, nil-explain %.0f ns/op, ratio %.4f", direct, nilExp, ratio)
	if ratio > 1.02 {
		t.Errorf("disabled-explain path is %.2f%% slower than untraced search, budget is 2%%",
			(ratio-1)*100)
	}
	// A recorder with no room left is as good as none.
	saturated := best(scanSaturated)
	ratio = saturated / direct
	t.Logf("untraced %.0f ns/op, saturated-recorder %.0f ns/op, ratio %.4f", direct, saturated, ratio)
	if ratio > 1.02 {
		t.Errorf("saturated-recorder path is %.2f%% slower than untraced search, budget is 2%%",
			(ratio-1)*100)
	}
}
