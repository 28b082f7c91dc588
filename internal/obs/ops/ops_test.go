package ops

import (
	"bytes"
	"context"
	"log/slog"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestREDIsCumulative(t *testing.T) {
	var r RED
	r.Observe(200, 10*time.Millisecond)
	r.Observe(504, 20*time.Millisecond)
	r.Observe(429, time.Millisecond)
	snap := r.Snapshot()
	want := map[string]int64{"ok": 1, "client": 0, "rejected": 1, "timeout": 1, "server": 0}
	if snap.Requests != 3 || len(snap.Classes) != len(want) {
		t.Fatalf("snapshot %+v, want 3 requests over every class", snap)
	}
	for class, n := range want {
		if snap.Classes[class] != n {
			t.Errorf("class %q = %d, want %d", class, snap.Classes[class], n)
		}
	}
	if h := r.Histogram(); h.Count() != 3 || h.Sum() != int64(31*time.Millisecond) {
		t.Errorf("histogram count %d sum %d, want 3 and %d", h.Count(), h.Sum(), int64(31*time.Millisecond))
	}
}

func TestREDQuantilesAreBucketResolution(t *testing.T) {
	var r RED
	// 90 fast requests, 10 slow: p50 in the fast bucket, p99 in the slow.
	for i := 0; i < 90; i++ {
		r.Observe(200, 1000*time.Nanosecond) // bucket bound 1024
	}
	for i := 0; i < 10; i++ {
		r.Observe(200, time.Duration(1<<20-1)*time.Nanosecond) // ~1ms, bound 2^20
	}
	snap := r.Snapshot()
	if snap.P50NS != 1024 {
		t.Errorf("p50 = %d, want 1024", snap.P50NS)
	}
	if snap.P99NS != 1<<20 {
		t.Errorf("p99 = %d, want %d", snap.P99NS, int64(1)<<20)
	}
}

func TestErrorClass(t *testing.T) {
	for status, want := range map[int]string{
		200: "ok", 302: "ok", 400: "client", 404: "client",
		429: "rejected", 504: "timeout", 500: "server", 503: "server",
	} {
		if got := ErrorClass(status); got != want {
			t.Errorf("ErrorClass(%d) = %q, want %q", status, got, want)
		}
	}
}

func TestNilSinksAreNoOps(t *testing.T) {
	var r *RED
	r.Observe(200, time.Second)
	if s := r.Snapshot(); s.Requests != 0 {
		t.Error("nil RED snapshot not empty")
	}
	if h := r.Histogram(); h.Count() != 0 {
		t.Error("nil RED histogram not empty")
	}
}

func TestRuntimeMetricsExposition(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE lbkeogh_runtime_goroutines gauge",
		"# TYPE lbkeogh_runtime_heap_bytes gauge",
		"# TYPE lbkeogh_runtime_gc_cycles_total counter",
		"# TYPE lbkeogh_runtime_gc_pause_seconds histogram",
		"lbkeogh_runtime_gc_pause_seconds_sum NaN",
		"lbkeogh_runtime_sched_latency_seconds_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime exposition is missing %q\n%s", want, out)
		}
	}
}

// TestRuntimeHistogramsWriteEveryBucket holds each runtime histogram to the
// runtime's own layout: one _bucket line per runtime/metrics bucket, empty or
// not, so the le set cannot change between scrapes.
func TestRuntimeHistogramsWriteEveryBucket(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeMetrics(&buf)
	out := buf.String()
	histograms := 0
	for _, rs := range runtimeSamples {
		if rs.kind != "histogram" {
			continue
		}
		sample := []metrics.Sample{{Name: rs.metric}}
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindFloat64Histogram {
			continue
		}
		histograms++
		want := len(sample[0].Value.Float64Histogram().Counts)
		if got := strings.Count(out, rs.name+"_bucket{"); got != want {
			t.Errorf("%s: %d _bucket lines, runtime/metrics reports %d buckets", rs.name, got, want)
		}
	}
	if histograms == 0 {
		t.Fatal("no runtime histogram was read; the test checks nothing")
	}
}

func TestIDSourceIsUniqueAndConcurrent(t *testing.T) {
	src := NewIDSource()
	const n = 200
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				ids <- src.Next()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[string]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}

func TestLoggerContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != Discard() {
		t.Error("background context does not yield the discard logger")
	}
	var buf bytes.Buffer
	l := NewLogger(&buf, "json", "info")
	ctx := WithLogger(context.Background(), l.With("request_id", "r-1"))
	FromContext(ctx).Info("hello", "k", "v")
	line := buf.String()
	for _, want := range []string{`"msg":"hello"`, `"request_id":"r-1"`, `"k":"v"`} {
		if !strings.Contains(line, want) {
			t.Errorf("log line %q is missing %s", line, want)
		}
	}
	// Debug is filtered at info level; text format and level parsing work.
	buf.Reset()
	l.Debug("dropped")
	if buf.Len() != 0 {
		t.Errorf("debug line emitted at info level: %q", buf.String())
	}
	if ParseLevel("debug") != slog.LevelDebug || ParseLevel("WARN") != slog.LevelWarn ||
		ParseLevel("bogus") != slog.LevelInfo {
		t.Error("ParseLevel mapping wrong")
	}
}

// TestREDConcurrentHammer drives one RED record from 8 writers while a
// reader snapshots — the package-level half of the -race coverage (the
// serving layer repeats it through /metrics).
func TestREDConcurrentHammer(t *testing.T) {
	r := &RED{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe(200+g, time.Duration(i)*time.Microsecond)
			}
		}(g)
	}
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	reader.Wait()
	if snap := r.Snapshot(); snap.Requests != 8*500 || r.Histogram().Count() != 8*500 {
		t.Errorf("hammer recorded %d requests, %d durations, want %d", snap.Requests, r.Histogram().Count(), 8*500)
	}
}
