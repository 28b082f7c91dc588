package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"lbkeogh/internal/obs"
)

func TestRecorderNesting(t *testing.T) {
	r := NewRecorder("search", 16)
	root := r.Begin(StageSearch, -1)
	probe := r.Begin(StageVPProbe, -1)
	r.Emit(StageFetch, 3, r.Now(), 0)
	r.End(probe)
	comp2 := r.Begin(StageComparison, 4)
	r.EndAttrs(comp2, obs.Counts{Comparisons: 1})
	r.End(root)

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[root].Parent != -1 {
		t.Errorf("root parent = %d, want -1", spans[root].Parent)
	}
	if spans[probe].Parent != int32(root) {
		t.Errorf("probe parent = %d, want %d", spans[probe].Parent, root)
	}
	if spans[2].Stage != StageFetch || spans[2].Parent != int32(probe) {
		t.Errorf("emitted span = %+v, want fetch under probe %d", spans[2], probe)
	}
	if spans[comp2].Parent != int32(root) {
		t.Errorf("comparison parent = %d, want %d (stack must have popped)", spans[comp2].Parent, root)
	}
	if spans[comp2].Attrs.Comparisons != 1 {
		t.Errorf("EndAttrs did not attach attributes: %+v", spans[comp2].Attrs)
	}
	if spans[comp2].Ref != 4 {
		t.Errorf("ref = %d, want 4", spans[comp2].Ref)
	}
}

func TestRecorderUnwindsMismatchedEnds(t *testing.T) {
	r := NewRecorder("x", 8)
	outer := r.Begin(StageSearch, -1)
	r.Begin(StageComparison, 0) // never explicitly ended
	r.End(outer)                // must unwind past the open comparison
	if next := r.Begin(StageComparison, 1); r.Spans()[next].Parent != -1 {
		t.Errorf("after unwinding, new span parent = %d, want -1", r.Spans()[next].Parent)
	}
}

func TestRecorderDropCounting(t *testing.T) {
	r := NewRecorder("x", 2)
	a := r.Begin(StageSearch, -1)
	b := r.Begin(StageComparison, 0)
	c := r.Begin(StageComparison, 1) // over capacity
	if c != -1 {
		t.Fatalf("saturated Begin = %d, want -1", c)
	}
	r.Emit(StageFetch, 0, 0, 1) // also dropped
	r.End(c)                    // no-op, must not panic
	r.End(b)
	r.End(a)
	if got := r.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	if len(r.Spans()) != 2 {
		t.Errorf("got %d spans, want 2", len(r.Spans()))
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	if id := r.Begin(StageSearch, -1); id != -1 {
		t.Fatalf("nil Begin = %d, want -1", id)
	}
	r.End(-1)
	r.EndAttrs(0, obs.Counts{})
	r.Emit(StageFetch, 0, 0, 1)
	r.Drop()
	if r.Full() {
		t.Error("a nil recorder is absent, not full")
	}
	if r.Now() != 0 || r.Dropped() != 0 || r.Spans() != nil || r.Label() != "" {
		t.Error("nil recorder accessors must return zero values")
	}
}

func TestNilLogIsNoop(t *testing.T) {
	var l *Log
	if l.StartTrace("x") != nil {
		t.Error("nil log must start nil recorders")
	}
	l.Finish(nil, obs.Counts{})
	if l.Recent() != nil || l.Slow() != nil || l.Latencies() != nil {
		t.Error("nil log accessors must return nil")
	}
	if th := l.SlowThreshold(); th != 0 {
		t.Errorf("nil SlowThreshold = %v, want 0", th)
	}
}

func TestLogSlowCaptureBypassesSampling(t *testing.T) {
	// Negative sample rate: nothing sampled; 1ns threshold: everything slow.
	l := NewLog(Config{SampleRate: -1, SlowThreshold: 1})
	for i := 0; i < 5; i++ {
		rec := l.StartTrace("search")
		id := rec.Begin(StageSearch, -1)
		rec.End(id)
		if l.Finish(rec, obs.Counts{}) == 0 {
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
	l := NewLog(Config{SampleRate: 1, SlowThreshold: -1})
	const n = Capacity + 6
	for i := 0; i < n; i++ {
		rec := l.StartTrace("search")
		rec.End(rec.Begin(StageSearch, -1))
		l.Finish(rec, obs.Counts{})
	}
	got := l.Recent()
	if len(got) != Capacity {
		t.Fatalf("ring has %d traces, want %d", len(got), Capacity)
	}
	for i, tr := range got {
		if want := int64(n - Capacity + 1 + i); tr.ID != want {
			t.Errorf("ring[%d].ID = %d, want %d (oldest first)", i, tr.ID, want)
		}
		if tr.Slow {
			t.Errorf("trace %d marked slow with slow capture disabled", tr.ID)
		}
	}
	if _, ok := l.Get(n); !ok {
		t.Error("Get must find a retained trace")
	}
	if _, ok := l.Get(n - Capacity); ok {
		t.Error("Get must miss an evicted trace")
	}
}

func TestLogSamplingRate(t *testing.T) {
	l := NewLog(Config{SampleRate: 0.25, SlowThreshold: -1})
	const n = 2000
	for i := 0; i < n; i++ {
		rec := l.StartTrace("search")
		rec.End(rec.Begin(StageSearch, -1))
		l.Finish(rec, obs.Counts{})
	}
	_, sampled := l.Totals()
	// Binomial(2000, 0.25): mean 500, sd ~19. Accept ±6 sd.
	if sampled < 380 || sampled > 620 {
		t.Errorf("sampled %d of %d at rate 0.25, want ~500", sampled, n)
	}
}

func TestLogFeedsHistogramsForUnretainedTraces(t *testing.T) {
	l := NewLog(Config{SampleRate: -1, SlowThreshold: -1}) // retain nothing
	rec := l.StartTrace("search")
	rec.End(rec.Begin(StageSearch, -1))
	if id := l.Finish(rec, obs.Counts{}); id != 0 {
		t.Fatalf("Finish = %d, want 0 (not retained)", id)
	}
	if got := l.Latencies().Histogram(StageSearch).Count(); got != 1 {
		t.Errorf("search histogram count = %d, want 1 (histograms see every trace)", got)
	}
}

func TestStageLatenciesSnapshotAndQuantile(t *testing.T) {
	var lat StageLatencies
	for i := 0; i < 50; i++ {
		lat.Observe(StageFetch, 1)
	}
	for i := 0; i < 50; i++ {
		lat.Observe(StageFetch, 1000)
	}
	lat.Observe(StageComparison, 7)
	snap := lat.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d stages, want 2", len(snap))
	}
	// Snapshot walks the enum, not the order of observation.
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
	lat.Reset()
	if lat.Snapshot() != nil {
		t.Error("snapshot after Reset must be empty")
	}

	// Three samples: nearest rank puts p50 on the middle one (rank 2), the
	// same bucket ops.RED reports for the same data; flooring q·count would
	// land on the smallest.
	for _, ns := range []int64{1, 100, 10000} {
		lat.Observe(StageFetch, ns)
	}
	if p50 := lat.Snapshot()[0].P50NS; p50 != 128 {
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
	var nilLat *StageLatencies
	nilLat.Observe(StageFetch, 1)
	if nilLat.Snapshot() != nil || nilLat.Histogram(StageFetch) != nil {
		t.Error("nil StageLatencies must be a no-op sink")
	}
}

func TestStageNames(t *testing.T) {
	seen := map[string]Stage{}
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "" || name == "unknown" {
			t.Errorf("stage %d has no name", s)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("stages %d and %d share the name %q", prev, s, name)
		}
		seen[name] = s
	}
	if NumStages.String() != "unknown" {
		t.Error("out-of-range stage must print unknown")
	}
}

func sampleTrace() Trace {
	return Trace{
		ID:    7,
		Label: "search",
		Wall:  time.Unix(0, 0),
		DurNS: 100_000,
		Slow:  true,
		Attrs: obs.Counts{Comparisons: 2, Rotations: 10, FullDistEvals: 10},
		Spans: []Span{
			{Parent: -1, Stage: StageVPProbe, Ref: -1, Start: 0, Dur: 50_000},
			{Parent: 0, Stage: StageFetch, Ref: 3, Start: 1_000, Dur: 1_000},
			{Parent: 0, Stage: StageComparison, Ref: 3, Start: 2_000, Dur: 10_000, Attrs: obs.Counts{Comparisons: 1}},
		},
	}
}

func TestWriteChrome(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []Trace{sampleTrace()}); err != nil {
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
	if err := WriteChrome(&buf, []Trace{a, b}); err != nil {
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
