package ops

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"lbkeogh/internal/obs"
)

// fakeClock drives a WindowConfig deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testWindow(slots int, slotDur time.Duration) (*fakeClock, WindowConfig) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	return clk, WindowConfig{Slots: slots, SlotDur: slotDur, now: clk.now}
}

func TestREDWindowRollsObservationsOut(t *testing.T) {
	clk, cfg := testWindow(4, time.Second)
	r := NewRED(cfg)
	r.Observe(200, 10*time.Millisecond, 0)
	r.Observe(504, 20*time.Millisecond, 0)
	snap := r.Snapshot()
	if snap.Requests != 2 || snap.Classes["ok"] != 1 || snap.Classes["timeout"] != 1 {
		t.Fatalf("fresh window: %+v", snap)
	}
	if snap.Window != 4*time.Second {
		t.Fatalf("window = %v, want 4s", snap.Window)
	}
	if want := 2.0 / 4.0; snap.RatePerSec != want {
		t.Errorf("rate = %v, want %v", snap.RatePerSec, want)
	}
	// Advance past the window: everything rolls out.
	clk.advance(5 * time.Second)
	if snap := r.Snapshot(); snap.Requests != 0 {
		t.Fatalf("after expiry: %+v", snap)
	}
	// New observations land in a recycled slot, untainted by the old epoch.
	r.Observe(200, time.Millisecond, 0)
	if snap := r.Snapshot(); snap.Requests != 1 || snap.Classes["ok"] != 1 {
		t.Fatalf("after recycle: %+v", snap)
	}
}

func TestREDQuantilesAreBucketResolution(t *testing.T) {
	_, cfg := testWindow(8, time.Second)
	r := NewRED(cfg)
	// 90 fast requests, 10 slow: p50/p90 in the fast bucket, p99 in the slow.
	for i := 0; i < 90; i++ {
		r.Observe(200, 1000*time.Nanosecond, 0) // bucket bound 1024
	}
	for i := 0; i < 10; i++ {
		r.Observe(200, time.Duration(1<<20-1)*time.Nanosecond, 0) // ~1ms, bound 2^20
	}
	snap := r.Snapshot()
	if snap.P50NS != 1024 || snap.P90NS != 1024 {
		t.Errorf("p50/p90 = %d/%d, want 1024/1024", snap.P50NS, snap.P90NS)
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

func TestExemplarTracksMostRecentTraceAndExpires(t *testing.T) {
	clk, cfg := testWindow(4, time.Second)
	r := NewRED(cfg)
	r.Observe(200, 1000*time.Nanosecond, 7)
	r.Observe(200, 1001*time.Nanosecond, 9) // same bucket: replaces trace 7
	snap := r.Snapshot()
	if len(snap.Exemplars) != 1 {
		t.Fatalf("exemplars = %+v, want exactly one", snap.Exemplars)
	}
	ex := snap.Exemplars[0]
	if ex.TraceID != 9 || ex.UpperBoundNS != 1024 {
		t.Fatalf("exemplar = %+v, want trace 9 on bound 1024", ex)
	}
	// Untraced observations never clobber an exemplar...
	r.Observe(200, 1002*time.Nanosecond, 0)
	if snap := r.Snapshot(); len(snap.Exemplars) != 1 || snap.Exemplars[0].TraceID != 9 {
		t.Fatalf("untraced observation clobbered the exemplar: %+v", snap.Exemplars)
	}
	// ...but a stale exemplar (older than the window) stops being reported.
	clk.advance(10 * time.Second)
	if snap := r.Snapshot(); len(snap.Exemplars) != 0 {
		t.Fatalf("stale exemplar still reported: %+v", snap.Exemplars)
	}
}

func TestSLOBurnRates(t *testing.T) {
	_, cfg := testWindow(10, time.Second)
	r := NewRED(cfg)
	// 90 within-objective requests, 8 slow, 2 server errors (also slow).
	for i := 0; i < 90; i++ {
		r.Observe(200, time.Millisecond, 0)
	}
	for i := 0; i < 8; i++ {
		r.Observe(200, time.Second, 0)
	}
	r.Observe(500, time.Second, 0)
	r.Observe(504, time.Second, 0)
	slo := SLO{LatencyObjective: 250 * time.Millisecond, LatencyTarget: 0.99, ErrorTarget: 0.999}
	b := slo.Burn(r.Snapshot())
	if b.LatencyBadFraction < 0.0999 || b.LatencyBadFraction > 0.1001 {
		t.Errorf("latency bad fraction = %v, want ~0.10", b.LatencyBadFraction)
	}
	if got, want := b.LatencyBurnRate, 0.10/0.01; got < want*0.999 || got > want*1.001 {
		t.Errorf("latency burn = %v, want ~%v", got, want)
	}
	if b.ErrorBadFraction != 0.02 {
		t.Errorf("error bad fraction = %v, want 0.02", b.ErrorBadFraction)
	}
	if got, want := b.ErrorBurnRate, 0.02/0.001; got < want*0.999 || got > want*1.001 {
		t.Errorf("error burn = %v, want ~%v", got, want)
	}
	// Empty window: burn is zero, not NaN.
	if b := slo.Burn(NewRED(cfg).Snapshot()); b != (Burn{}) {
		t.Errorf("empty-window burn = %+v, want zero", b)
	}
}

func TestPruneWindow(t *testing.T) {
	clk, cfg := testWindow(4, time.Second)
	p := NewPruneWindow(cfg)
	p.Observe(obs.Counts{Rotations: 100, FullDistEvals: 10, FFTRejectedMembers: 30, KChanges: 2},
		[]int64{40, 20})
	p.Observe(obs.Counts{Rotations: 100, FullDistEvals: 10}, nil)
	snap := p.Snapshot()
	if snap.Counts.Rotations != 200 {
		t.Fatalf("rotations = %d, want 200", snap.Counts.Rotations)
	}
	if snap.PruneRate != 0.9 {
		t.Errorf("prune rate = %v, want 0.9", snap.PruneRate)
	}
	if snap.FFTRejectRate != 0.15 {
		t.Errorf("fft reject rate = %v, want 0.15", snap.FFTRejectRate)
	}
	if len(snap.LevelFraction) != 2 || snap.LevelFraction[0] != 0.2 || snap.LevelFraction[1] != 0.1 {
		t.Errorf("level fractions = %v, want [0.2 0.1]", snap.LevelFraction)
	}
	if snap.KChanges != 2 {
		t.Errorf("k changes = %d, want 2", snap.KChanges)
	}
	clk.advance(10 * time.Second)
	if snap := p.Snapshot(); snap.Counts.Rotations != 0 || snap.PruneRate != 0 {
		t.Fatalf("window did not expire: %+v", snap)
	}
}

func TestNilSinksAreNoOps(t *testing.T) {
	var r *RED
	var p *PruneWindow
	r.Observe(200, time.Second, 1)
	p.Observe(obs.Counts{Rotations: 1}, nil)
	if s := r.Snapshot(); s.Requests != 0 {
		t.Error("nil RED snapshot not empty")
	}
	if s := p.Snapshot(); s.Counts != (obs.Counts{}) {
		t.Error("nil PruneWindow snapshot not empty")
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

// TestREDConcurrentHammer drives one RED window from 8 writers while a
// reader snapshots — the package-level half of the -race coverage (the
// serving layer repeats it through /metrics).
func TestREDConcurrentHammer(t *testing.T) {
	r := NewRED(WindowConfig{Slots: 4, SlotDur: 10 * time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe(200+g, time.Duration(i)*time.Microsecond, int64(i%3))
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
	if snap := r.Snapshot(); snap.Requests == 0 {
		t.Error("hammer left an empty window")
	}
}
