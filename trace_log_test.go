package lbkeogh

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/trace"
)

// traceDistances attaches tlog to a query and finishes n+1 traces through
// it: the query's build and n distances.
func traceDistances(t *testing.T, tlog *TraceLog, n int) {
	t.Helper()
	db := SyntheticProjectilePoints(5, 2, 16)
	q, err := NewQuery(db[0], Euclidean(), WithTraceLog(tlog))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := q.Distance(db[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// The options' edge values: a sample rate of 0, below 0 or NaN keeps only
// slow traces; a slow threshold of 0 or below disables slow capture; no
// option samples a quarter of the traces and captures those of 50 ms or more.
func TestTraceOptionEdgeValues(t *testing.T) {
	const n = 40
	for _, rate := range []float64{0, -1, math.NaN()} {
		tlog := NewTraceLog(WithSampleRate(rate), WithSlowThreshold(time.Nanosecond))
		traceDistances(t, tlog, n)
		finished, sampled := tlog.Totals()
		if finished != n+1 || sampled != 0 || len(tlog.Recent()) != 0 {
			t.Errorf("rate %v: %d finished, %d sampled, %d in the sampled ring; want %d, 0, 0",
				rate, finished, sampled, len(tlog.Recent()), n+1)
		}
		if got := len(tlog.Slow()); got != 32 {
			t.Errorf("rate %v: %d slow traces kept, want the ring's 32", rate, got)
		}
	}
	for _, d := range []time.Duration{0, -1, -time.Second} {
		tlog := NewTraceLog(WithSampleRate(1), WithSlowThreshold(d))
		traceDistances(t, tlog, n)
		if th := tlog.SlowThreshold(); th > 0 {
			t.Errorf("threshold %v: effective threshold %v, want slow capture off", d, th)
		}
		if got := len(tlog.Slow()); got != 0 {
			t.Errorf("threshold %v: %d slow traces kept, want 0", d, got)
		}
		if _, sampled := tlog.Totals(); sampled != n+1 {
			t.Errorf("threshold %v: %d traces sampled at rate 1, want %d", d, sampled, n+1)
		}
	}

	plain, quarter := NewTraceLog(), NewTraceLog(WithSampleRate(0.25))
	if th := plain.SlowThreshold(); th != 50*time.Millisecond {
		t.Errorf("default slow threshold %v, want 50ms", th)
	}
	const many = 400
	traceDistances(t, plain, many)
	traceDistances(t, quarter, many)
	// One fixed-seed sampler: the default draws the very traces 0.25 does.
	_, got := plain.Totals()
	if _, want := quarter.Totals(); got != want || got < 48 || got > 152 {
		t.Errorf("default sampling kept %d of %d traces, rate 0.25 kept %d", got, many+1, want)
	}
}

// One log shared by two queries, one of which never searched: no query's
// prefix carries the log's stage-latency family.
func TestStageLatenciesAreReportedOnce(t *testing.T) {
	db := SyntheticProjectilePoints(6, 24, 32)
	tlog := NewTraceLog(WithSampleRate(1))
	a, err := NewQuery(db[0], Euclidean(), WithTraceLog(tlog))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewQuery(db[1], Euclidean(), WithTraceLog(tlog))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Search(db[2:]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteMetrics(&buf, "a", a.Stats())
	WriteMetrics(&buf, "b", b.Stats())
	if body := buf.String(); strings.Contains(body, "_stage_latency_seconds") {
		t.Errorf("a query prefix carries the log's stage latencies:\n%s", body)
	}
	buf.Reset()
	tlog.WriteMetrics(&buf, "lbkeogh_trace")
	body := buf.String()
	if got := strings.Count(body, "# TYPE "); got != 1 || !strings.Contains(body, "# TYPE lbkeogh_trace_stage_latency_seconds histogram") {
		t.Errorf("the log wrote %d families, want its one stage family:\n%s", got, body)
	}
	want := fmt.Sprintf("lbkeogh_trace_stage_latency_seconds_count{stage=\"comparison\"} %d\n", a.Stats().Comparisons)
	if !strings.Contains(body, want) {
		t.Errorf("the log's comparison latencies are not the one searching query's %d comparisons:\n%s", a.Stats().Comparisons, body)
	}
}

// finishSpans finishes one trace of the given root-level spans, each dur ns
// long, in l and returns what finish returned.
func finishSpans(l *TraceLog, stage trace.Stage, durs ...int64) int64 {
	rec := l.startTrace("search")
	for _, d := range durs {
		rec.Emit(stage, -1, 0, d)
	}
	return l.finish(rec, obs.Counts{})
}

func TestNilLogIsNoop(t *testing.T) {
	var l *TraceLog
	if l.startTrace("x") != nil {
		t.Error("nil log must start nil recorders")
	}
	if id := l.finish(trace.NewRecorder("x", 1), obs.Counts{}); id != 0 {
		t.Errorf("nil log finished a trace as %d", id)
	}
	if l.Recent() != nil || l.Slow() != nil || l.StageLatencies() != nil {
		t.Error("nil log accessors must return nil")
	}
	if finished, sampled := l.Totals(); finished != 0 || sampled != 0 {
		t.Errorf("nil Totals = (%d, %d), want (0, 0)", finished, sampled)
	}
	if th := l.SlowThreshold(); th != 0 {
		t.Errorf("nil SlowThreshold = %v, want 0", th)
	}
	var buf bytes.Buffer
	if l.WriteMetrics(&buf, "x"); buf.Len() != 0 {
		t.Errorf("nil log wrote metrics:\n%s", buf.String())
	}
	if err := l.WriteChromeTrace(&buf, 1); err == nil {
		t.Error("nil log found a trace")
	}
}

func TestLogSlowCaptureBypassesSampling(t *testing.T) {
	// Negative sample rate: nothing sampled; 1ns threshold: everything slow.
	l := NewTraceLog(WithSampleRate(-1), WithSlowThreshold(1))
	for i := 0; i < 5; i++ {
		rec := l.startTrace("search")
		id := rec.Begin(trace.StageSearch, -1)
		rec.End(id)
		if l.finish(rec, obs.Counts{}) == 0 {
			t.Fatal("slow trace was not retained")
		}
	}
	if got := len(l.Slow()); got != 5 {
		t.Errorf("slow ring has %d traces, want 5", got)
	}
	if got := len(l.Recent()); got != 0 {
		t.Errorf("sampled ring has %d traces, want 0", got)
	}
	finished, sampled := l.Totals()
	if finished != 5 || sampled != 0 {
		t.Errorf("Totals = (%d, %d), want (5, 0)", finished, sampled)
	}
}

func TestLogRingEviction(t *testing.T) {
	l := NewTraceLog(WithSampleRate(1), WithSlowThreshold(-1))
	const n = sampledRingCap + 6
	for i := 0; i < n; i++ {
		finishSpans(l, trace.StageSearch, 1)
	}
	got := l.Recent()
	if len(got) != sampledRingCap {
		t.Fatalf("ring has %d traces, want %d", len(got), sampledRingCap)
	}
	for i, tr := range got {
		if want := int64(n - sampledRingCap + 1 + i); tr.ID != want {
			t.Errorf("ring[%d].ID = %d, want %d (oldest first)", i, tr.ID, want)
		}
		if tr.Slow {
			t.Errorf("trace %d marked slow with slow capture disabled", tr.ID)
		}
	}
	if err := l.WriteChromeTrace(io.Discard, n); err != nil {
		t.Errorf("a retained trace: %v", err)
	}
	if err := l.WriteChromeTrace(io.Discard, n-sampledRingCap); err == nil {
		t.Error("an evicted trace was found")
	}
}

func TestLogSamplingRate(t *testing.T) {
	l := NewTraceLog(WithSampleRate(0.25), WithSlowThreshold(-1))
	const n = 2000
	for i := 0; i < n; i++ {
		finishSpans(l, trace.StageSearch, 1)
	}
	_, sampled := l.Totals()
	// Binomial(2000, 0.25): mean 500, sd ~19. Accept ±6 sd.
	if sampled < 380 || sampled > 620 {
		t.Errorf("sampled %d of %d at rate 0.25, want ~500", sampled, n)
	}
}

func TestLogFeedsHistogramsForUnretainedTraces(t *testing.T) {
	l := NewTraceLog(WithSampleRate(-1), WithSlowThreshold(-1)) // retain nothing
	if id := finishSpans(l, trace.StageSearch, 1); id != 0 {
		t.Fatalf("finish = %d, want 0 (not retained)", id)
	}
	if lats := l.StageLatencies(); len(lats) != 1 || lats[0].Stage != "search" || lats[0].Count != 1 {
		t.Errorf("stage latencies %+v, want one search observation (histograms see every trace)", lats)
	}
}

func TestStageLatenciesSnapshotAndQuantile(t *testing.T) {
	l := NewTraceLog()
	if l.StageLatencies() != nil {
		t.Error("a fresh log's stage latencies must be empty")
	}
	fetches := make([]int64, 0, 100)
	for i := 0; i < 50; i++ {
		fetches = append(fetches, 1)
	}
	for i := 0; i < 50; i++ {
		fetches = append(fetches, 1000)
	}
	finishSpans(l, trace.StageFetch, fetches...)
	finishSpans(l, trace.StageComparison, 7)
	snap := l.StageLatencies()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d stages, want 2", len(snap))
	}
	// The snapshot walks the enum, not the order of observation.
	if snap[0].Stage != "comparison" || snap[1].Stage != "fetch" {
		t.Fatalf("snapshot order = %s, %s", snap[0].Stage, snap[1].Stage)
	}
	k := snap[1]
	if k.Count != 100 || k.SumNS != 50*1+50*1000 {
		t.Errorf("fetch count/sum = %d/%d, want 100/%d", k.Count, k.SumNS, 50+50*1000)
	}
	if k.P50NS != 1 {
		t.Errorf("p50 = %d, want 1", k.P50NS)
	}
	if k.P90NS != 1024 || k.P99NS != 1024 {
		t.Errorf("p90/p99 = %d/%d, want 1024/1024 (bucket resolution)", k.P90NS, k.P99NS)
	}

	// Three samples: nearest rank puts p50 on the middle one (rank 2), the
	// same bucket ops.RED reports for the same data; flooring q·count would
	// land on the smallest.
	l = NewTraceLog()
	finishSpans(l, trace.StageFetch, 1, 100, 10000)
	if p50 := l.StageLatencies()[0].P50NS; p50 != 128 {
		t.Errorf("3-sample p50 = %d, want 128 (the middle sample's bucket)", p50)
	}

	var overflow obs.Histogram
	overflow.Observe(1 << 62)
	if got := obs.BucketQuantile(overflow.Buckets(), 0.5); got != -1 {
		t.Errorf("overflow quantile = %d, want -1", got)
	}
	var empty obs.Histogram
	if got := obs.BucketQuantile(empty.Buckets(), 0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

func sampleTrace() loggedTrace {
	return loggedTrace{
		TraceSummary{
			ID:       7,
			Label:    "search",
			Start:    time.Unix(0, 0),
			Duration: 100_000,
			Slow:     true,
			Stats:    obs.SnapshotOf(obs.Counts{Comparisons: 2, Rotations: 10, FullDistEvals: 10}),
		},
		[]trace.Span{
			{Parent: -1, Stage: trace.StageVPProbe, Ref: -1, Start: 0, Dur: 50_000},
			{Parent: 0, Stage: trace.StageFetch, Ref: 3, Start: 1_000, Dur: 1_000},
			{Parent: 0, Stage: trace.StageComparison, Ref: 3, Start: 2_000, Dur: 10_000, Attrs: obs.Counts{Comparisons: 1}},
		},
	}
}

func TestWriteChrome(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChrome(&buf, []loggedTrace{sampleTrace()}); err != nil {
		t.Fatal(err)
	}
	var f chromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 4 { // root + 3 spans
		t.Fatalf("got %d events, want 4", len(f.TraceEvents))
	}
	root := f.TraceEvents[0]
	if root.Name != "search#7" || root.Ph != "X" || root.Dur != 100 { // 100_000ns = 100µs
		t.Errorf("root event = %+v", root)
	}
	if root.Args["trace_id"] != float64(7) || root.Args["dropped_spans"] != float64(0) || root.Args["counts"] == nil {
		t.Errorf("root args = %v, want the trace id, its counts and its drops", root.Args)
	}
	comp := f.TraceEvents[3]
	if comp.Name != "comparison" || comp.Ts != 2 || comp.Dur != 10 {
		t.Errorf("comparison event = %+v", comp)
	}
	if comp.Args["ref"] != float64(3) || comp.Args["counts"] == nil {
		t.Errorf("comparison args = %v, want its ref and its counts", comp.Args)
	}
	probe := f.TraceEvents[1]
	if probe.Args["ref"] != nil || probe.Args["counts"] != nil {
		t.Errorf("vp_probe args = %v, want no ref (-1) and no counts (zero)", probe.Args)
	}
	fetch := f.TraceEvents[2]
	if fetch.Name != "fetch" || fetch.Args["span"] != float64(1) || fetch.Args["parent"] != float64(0) {
		t.Errorf("fetch event = %+v, want span 1 under parent 0", fetch)
	}
}

func TestWriteChromeTracks(t *testing.T) {
	a, b := sampleTrace(), sampleTrace()
	b.ID = 8
	var buf bytes.Buffer
	if err := writeChrome(&buf, []loggedTrace{a, b}); err != nil {
		t.Fatal(err)
	}
	var f chromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(f.TraceEvents))
	}
	if f.TraceEvents[0].Name != "search#7" || f.TraceEvents[4].Name != "search#8" {
		t.Errorf("root names = %q, %q, want a #id suffix", f.TraceEvents[0].Name, f.TraceEvents[4].Name)
	}
	tids := map[int64]bool{}
	for _, e := range f.TraceEvents {
		tids[e.Tid] = true
	}
	if len(tids) != 2 {
		t.Errorf("got %d distinct tids, want 2 (one track per trace)", len(tids))
	}
}

// TestRetainedTracesOwnTheirSpans runs traced queries concurrently on one
// log that retains every trace (run under -race, as make race-concurrency
// does): a retained trace holds exactly its spans (cap == len), and none of
// them changes after its operation returned, although the finished
// operations' recorders are reused by the next ones.
func TestRetainedTracesOwnTheirSpans(t *testing.T) {
	const workers, ops = 4, 12 // 48 traces: none leaves the 64-trace ring
	l := NewTraceLog(WithSampleRate(1), WithSlowThreshold(0))
	db := demoDB(8, 24, 32)
	seen := make([]map[int64][]trace.Span, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- w }()
			seen[w] = map[int64][]trace.Span{}
			q, err := NewQuery(db[w], Euclidean(), WithTraceLog(l))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < ops; i++ {
				if i%2 == 0 {
					_, _, err = q.Distance(db[i])
				} else {
					_, err = q.SearchTopK(db, 1+i%3)
				}
				if err != nil {
					t.Error(err)
					return
				}
				id := q.LastTraceID()
				for _, tr := range l.retained() {
					if tr.ID == id {
						if cap(tr.spans) != len(tr.spans) {
							t.Errorf("trace %d keeps %d spans in a buffer of %d", id, len(tr.spans), cap(tr.spans))
						}
						seen[w][id] = slices.Clone(tr.spans)
					}
				}
				if seen[w][id] == nil {
					t.Errorf("worker %d op %d: trace %d not retained", w, i, id)
				}
			}
		}(w)
	}
	for range workers {
		<-done
	}
	var checked int
	for _, tr := range l.retained() {
		for _, s := range seen {
			if want, ok := s[tr.ID]; ok {
				checked++
				if !slices.Equal(tr.spans, want) {
					t.Fatalf("trace %d (%s) changed after its operation returned", tr.ID, tr.Label)
				}
			}
		}
	}
	if checked != workers*ops {
		t.Fatalf("checked %d retained traces, want %d", checked, workers*ops)
	}
}

// BenchmarkTracedDistance prices one traced one-comparison Distance on a log
// that retains every trace, as a server tracing every request does: its
// B/op is the recorder's buffer when each operation allocates one, and the
// retained copy of its two spans when recorders are reused.
func BenchmarkTracedDistance(b *testing.B) {
	db := demoDB(8, 2, 64)
	q, err := NewQuery(db[0], Euclidean(), WithTraceLog(NewTraceLog(WithSampleRate(1))))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := q.Distance(db[1]); err != nil {
			b.Fatal(err)
		}
	}
}
