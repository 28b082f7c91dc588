package lbkeogh

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/ops"
	"lbkeogh/internal/obs/trace"
)

// TraceOption customizes NewTraceLog.
type TraceOption func(*TraceLog)

// WithSampleRate sets the probability a completed trace is retained in the
// sampled ring (default 0.25; >= 1 keeps everything; 0, below 0 or NaN keeps
// only slow traces). Sampling never affects slow-query capture or the
// latency histograms, which see every traced query.
func WithSampleRate(rate float64) TraceOption {
	return func(t *TraceLog) { t.sampleRate = rate }
}

// WithSlowThreshold sets the duration at or above which a query trace is
// always captured, bypassing sampling (default 50ms; d <= 0 disables slow
// capture).
func WithSlowThreshold(d time.Duration) TraceOption {
	return func(t *TraceLog) { t.slowThreshold = d }
}

// The ring sizes of every TraceLog.
const (
	sampledRingCap = 64
	slowRingCap    = 32
)

// TraceLog collects query-lifecycle traces: per-stage latency histograms
// over every traced query, a bounded ring of sampled traces, and a separate
// ring of slow queries. Attach one to queries with WithTraceLog — a query's
// index searches are traced there too; one log may serve many queries,
// concurrent ones included, since each records into its own trace.Recorder
// and only finished traces enter the log. A nil *TraceLog is a valid no-op
// everywhere.
//
// Recording and retention are separate decisions. Every traced operation
// records its spans (the recording cost is the point of opting in);
// retention is decided when it finishes, when its duration is known:
//
//   - a trace whose duration reaches the slow threshold is always retained
//     in the slow ring (32 traces, oldest evicted first);
//   - independently, it is retained in the sampled ring (64 traces) with the
//     sample rate's probability, drawn from a fixed-seed splitmix64 so runs
//     are reproducible.
//
// Deciding at completion rather than at start is what makes slow-query
// capture reliable: a start-time sampling decision would drop exactly the
// outlier you wanted to keep. Every finished trace — retained or not —
// feeds the per-stage latency histograms (StageLatencies, WriteMetrics), so
// they see the full population, not the sample. They are the log's own, not
// any query's: SearchStats carries no wall-clock data.
//
// A retained trace is exported in the Chrome trace-event format, one track
// per trace (WriteChromeTrace, WriteChromeTraces, ServeHTTP): load it at
// ui.perfetto.dev or chrome://tracing. Every span event carries its index and
// its parent's in its args, so the same file also feeds jq-style analysis.
type TraceLog struct {
	sampleRate    float64
	slowThreshold time.Duration
	lat           [trace.NumStages]obs.Histogram // span durations in ns, lock-free

	// free holds the recorders of finished operations for the next ones to
	// reuse: a retained trace keeps a copy of its spans, never the buffer.
	free sync.Pool

	mu       sync.Mutex
	sampled  traceRing
	slow     traceRing
	lastID   int64
	finished int64  // traces finished
	kept     int64  // traces retained in the sampled ring
	rng      uint64 // splitmix64 state, fixed at creation so runs are reproducible
}

// NewTraceLog returns a trace log with the given options.
func NewTraceLog(opts ...TraceOption) *TraceLog {
	t := &TraceLog{
		sampleRate:    0.25,
		slowThreshold: 50 * time.Millisecond,
		sampled:       traceRing{traces: make([]loggedTrace, 0, sampledRingCap)},
		slow:          traceRing{traces: make([]loggedTrace, 0, slowRingCap)},
		rng:           0x9e3779b97f4a7c15,
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// loggedTrace is one retained trace: its summary and its spans.
type loggedTrace struct {
	TraceSummary
	spans []trace.Span
}

// traceRing keeps the newest traces up to its capacity.
type traceRing struct {
	traces []loggedTrace
	next   int // once full, the oldest trace: the next to be overwritten
}

func (r *traceRing) add(tr loggedTrace) {
	if len(r.traces) < cap(r.traces) {
		r.traces = append(r.traces, tr)
		return
	}
	r.traces[r.next] = tr
	r.next = (r.next + 1) % len(r.traces)
}

// inOrder copies the ring, oldest first.
func (r *traceRing) inOrder() []loggedTrace {
	return append(slices.Clone(r.traces[r.next:]), r.traces[:r.next]...)
}

// startTrace returns an empty recorder for one operation, a finished
// operation's when one is free; a nil log returns a nil recorder, the no-op
// path.
func (t *TraceLog) startTrace(label string) *trace.Recorder {
	if t == nil {
		return nil
	}
	if r, _ := t.free.Get().(*trace.Recorder); r != nil {
		r.Reset(label)
		return r
	}
	return trace.NewRecorder(label, trace.SpanCap)
}

// splitmix64 advances the sampling RNG (Steele et al.; good enough for
// retention sampling and allocation-free).
func (t *TraceLog) splitmix64() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// finish completes the trace of r, which startTrace returned: every span's
// duration feeds the stage histograms, then the trace is retained in the
// slow ring and/or the sampled ring, as a copy of exactly its spans, and r
// is free for the next operation — its caller must not touch it again.
// attrs are the whole-trace counter deltas. It returns the trace ID when the
// trace was retained anywhere, 0 otherwise (and on a nil log or recorder).
func (t *TraceLog) finish(r *trace.Recorder, attrs obs.Counts) int64 {
	if t == nil || r == nil {
		return 0
	}
	defer t.free.Put(r)
	dur := r.Now()
	spans := r.Spans()
	for _, sp := range spans {
		t.lat[sp.Stage].Observe(max(sp.Dur, 0))
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished++
	slow := t.slowThreshold > 0 && dur >= int64(t.slowThreshold)
	sampled := t.sampleRate >= 1 ||
		(t.sampleRate > 0 && float64(t.splitmix64()>>11)/(1<<53) < t.sampleRate)
	if !slow && !sampled {
		return 0
	}
	t.lastID++
	tr := loggedTrace{TraceSummary{
		ID:           t.lastID,
		Label:        r.Label(),
		Start:        r.Anchor(),
		Duration:     time.Duration(dur),
		Slow:         slow,
		Spans:        len(spans),
		DroppedSpans: r.Dropped(),
		Stats:        obs.SnapshotOf(attrs),
	}, append(make([]trace.Span, 0, len(spans)), spans...)}
	if sampled {
		t.kept++
		t.sampled.add(tr)
	}
	if slow {
		t.slow.add(tr)
	}
	return tr.ID
}

// TraceSummary describes one retained query trace.
type TraceSummary struct {
	// ID identifies the trace within its log (stable across ring eviction).
	ID int64 `json:"id"`
	// Label names the traced operation (e.g. "search", "index_search_ed").
	Label string `json:"label"`
	// Start is the wall-clock time the trace began.
	Start time.Time `json:"start"`
	// Duration is the traced operation's total wall time.
	Duration time.Duration `json:"duration"`
	// Slow reports whether the trace met the slow-query threshold.
	Slow bool `json:"slow"`
	// Spans is the number of recorded spans; DroppedSpans how many the span
	// cap discarded.
	Spans        int   `json:"spans"`
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
	// Stats holds the counter deltas attributable to this query alone; its
	// outcome buckets reconcile exactly like cumulative SearchStats.
	Stats SearchStats `json:"stats"`
}

// summaries summarizes one ring, oldest first.
func (t *TraceLog) summaries(r *traceRing) []TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSummary, 0, len(r.traces))
	for _, tr := range r.inOrder() {
		out = append(out, tr.TraceSummary)
	}
	return out
}

// Recent summarizes the retained sampled traces, oldest first.
func (t *TraceLog) Recent() []TraceSummary {
	if t == nil {
		return nil
	}
	return t.summaries(&t.sampled)
}

// Slow summarizes the retained slow traces, oldest first.
func (t *TraceLog) Slow() []TraceSummary {
	if t == nil {
		return nil
	}
	return t.summaries(&t.slow)
}

// Totals reports how many traces have finished and how many the sampled
// ring retained since the log was created.
func (t *TraceLog) Totals() (finished, sampled int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finished, t.kept
}

// SlowThreshold reports the slow-capture threshold (<= 0: slow capture is
// off).
func (t *TraceLog) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.slowThreshold
}

// StageLatency is one pipeline stage's latency summary: exact observation
// count and nanosecond sum, the non-empty power-of-two buckets, and
// bucket-resolution quantiles (the bucket upper bound each quantile falls
// in; -1 means the overflow bucket).
type StageLatency struct {
	Stage   string            `json:"stage"`
	Count   int64             `json:"count"`
	SumNS   int64             `json:"sum_ns"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
	P50NS   int64             `json:"p50_ns"`
	P90NS   int64             `json:"p90_ns"`
	P99NS   int64             `json:"p99_ns"`
}

// StageLatencies summarizes the per-stage latency histograms across every
// traced query (sampled away or not), in stage order, stages with at least
// one observation only.
func (t *TraceLog) StageLatencies() []StageLatency {
	if t == nil {
		return nil
	}
	var out []StageLatency
	for s := trace.Stage(0); s < trace.NumStages; s++ {
		h := &t.lat[s]
		if h.Count() == 0 {
			continue
		}
		buckets := h.Buckets()
		out = append(out, StageLatency{
			Stage:   s.String(),
			Count:   h.Count(),
			SumNS:   h.Sum(),
			Buckets: buckets,
			P50NS:   obs.BucketQuantile(buckets, 0.50),
			P90NS:   obs.BucketQuantile(buckets, 0.90),
			P99NS:   obs.BucketQuantile(buckets, 0.99),
		})
	}
	return out
}

// WriteMetrics renders the per-stage latency histograms in Prometheus text
// exposition format as one `<prefix>_stage_latency_seconds` family, a
// stage label per series; it writes nothing before the first traced
// operation, or on a nil log. A serving process passes it to HandleObs
// after its stats writer.
func (t *TraceLog) WriteMetrics(w io.Writer, prefix string) {
	writeStageLatencies(w, prefix, t.StageLatencies())
}

func writeStageLatencies(w io.Writer, prefix string, lats []StageLatency) {
	if len(lats) == 0 {
		return
	}
	name := prefix + "_stage_latency_seconds"
	ops.WriteFamily(w, name, "histogram", "Per-stage query latency in seconds.")
	for _, sl := range lats {
		ops.WriteDurationHistogram(w, name, fmt.Sprintf("stage=%q", sl.Stage), sl.Buckets, sl.SumNS)
	}
}

// retained returns every retained trace, sampled then slow, each once.
func (t *TraceLog) retained() []loggedTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	traces := t.sampled.inOrder()
	for _, tr := range t.slow.inOrder() {
		if !slices.ContainsFunc(traces, func(s loggedTrace) bool { return s.ID == tr.ID }) {
			traces = append(traces, tr)
		}
	}
	return traces
}

// WriteChromeTrace writes the identified trace in Chrome trace-event JSON —
// load the output at ui.perfetto.dev or chrome://tracing to see the span
// waterfall. Every span event's args carry its index and its parent's, for
// jq-style analysis of the same file. The trace must still be retained in a
// ring.
func (t *TraceLog) WriteChromeTrace(w io.Writer, id int64) error {
	for _, tr := range t.retained() {
		if tr.ID == id {
			return writeChrome(w, []loggedTrace{tr})
		}
	}
	return fmt.Errorf("lbkeogh: trace %d not retained", id)
}

// WriteChromeTraces writes every retained trace (sampled then slow, minus
// duplicates) into one Chrome trace-event file, one track per trace.
func (t *TraceLog) WriteChromeTraces(w io.Writer) error { return writeChrome(w, t.retained()) }

// chromeEvent is one Chrome trace-event "complete" (ph "X") record.
// Timestamps and durations are microseconds, as the format requires; span
// nesting is implied by interval containment within one pid/tid, which is
// exactly how the recorder's parentage was derived, so Perfetto and
// chrome://tracing render the recorder's span tree.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTraceFile is the JSON-object form of the trace-event format.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// writeChrome renders traces one track (tid) per trace. Each trace is a root
// event named label#id, whose args carry the trace ID, its counts and its
// dropped-span count, followed by one event per span in recording order; a
// span's args carry its index in the trace and its parent's (-1 directly
// under the root), so the tree is recoverable without reading interval
// containment.
func writeChrome(w io.Writer, traces []loggedTrace) error {
	var events []chromeEvent
	for _, tr := range traces {
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s#%d", tr.Label, tr.ID), Ph: "X",
			Ts: 0, Dur: float64(tr.Duration) / 1e3, Pid: 1, Tid: tr.ID,
			Args: map[string]any{"trace_id": tr.ID, "counts": tr.Stats.Counts, "dropped_spans": tr.DroppedSpans},
		})
		for i, sp := range tr.spans {
			args := map[string]any{"span": i, "parent": sp.Parent}
			if sp.Ref >= 0 {
				args["ref"] = sp.Ref
			}
			if sp.Attrs != (obs.Counts{}) {
				args["counts"] = sp.Attrs
			}
			events = append(events, chromeEvent{
				Name: sp.Stage.String(), Ph: "X",
				Ts: float64(sp.Start) / 1e3, Dur: float64(sp.Dur) / 1e3,
				Pid: 1, Tid: tr.ID, Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(chromeTraceFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// ServeHTTP serves the log; mount it at /debug/lbkeogh. A bare GET answers
// JSON: {"finished", "sampled", "slow_threshold_ns", "recent", "slow"}, the
// last two the retained traces' summaries, oldest first. ?format=chrome
// downloads every retained trace as one Chrome trace-event file, and
// &trace=<id> narrows it to that trace (404 once the rings have evicted it).
// A nil log answers 404: tracing is off.
func (t *TraceLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if t == nil {
		http.Error(w, "tracing is off", http.StatusNotFound)
		return
	}
	switch r.URL.Query().Get("format") {
	case "":
		finished, sampled := t.Totals()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Finished        int64          `json:"finished"`
			Sampled         int64          `json:"sampled"`
			SlowThresholdNS int64          `json:"slow_threshold_ns"`
			Recent          []TraceSummary `json:"recent"`
			Slow            []TraceSummary `json:"slow"`
		}{finished, sampled, int64(t.SlowThreshold()), t.Recent(), t.Slow()})
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		idStr := r.URL.Query().Get("trace")
		if idStr == "" {
			t.WriteChromeTraces(w)
			return
		}
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		// Only an evicted trace fails before the first byte is written.
		if err := t.WriteChromeTrace(w, id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
		}
	default:
		http.Error(w, "format must be chrome", http.StatusBadRequest)
	}
}
