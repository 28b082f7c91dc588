package lbkeogh

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/trace"
)

// TraceOption customizes NewTraceLog.
type TraceOption func(*trace.Config)

// WithSampleRate sets the probability a completed trace is retained in the
// sampled ring (default 0.25; >= 1 keeps everything; <= 0 keeps only slow
// traces). Sampling never affects slow-query capture or the latency
// histograms, which see every traced query.
func WithSampleRate(rate float64) TraceOption {
	return func(c *trace.Config) {
		if rate <= 0 {
			rate = -1 // the log's "slow traces only" sentinel
		}
		c.SampleRate = rate
	}
}

// WithSlowThreshold sets the duration at or above which a query trace is
// always captured, bypassing sampling (default 50ms; d < 0 disables slow
// capture).
func WithSlowThreshold(d time.Duration) TraceOption {
	return func(c *trace.Config) {
		if d == 0 {
			d = -1
		}
		c.SlowThreshold = d
	}
}

// TraceLog collects query-lifecycle traces: per-stage latency histograms
// over every traced query, a bounded ring of sampled traces, and a separate
// ring of slow queries (always captured at or above the slow threshold —
// retention is decided when the query finishes, so outliers cannot be
// sampled away). Attach one to queries with WithTraceLog — a query's index
// searches are traced there too; one log may serve many queries. A nil
// *TraceLog is a valid no-op everywhere.
type TraceLog struct {
	log *trace.Log
}

// NewTraceLog returns a trace log with the given options.
func NewTraceLog(opts ...TraceOption) *TraceLog {
	var cfg trace.Config
	for _, o := range opts {
		o(&cfg)
	}
	return &TraceLog{log: trace.NewLog(cfg)}
}

// inner returns the internal log (nil-safe).
func (t *TraceLog) inner() *trace.Log {
	if t == nil {
		return nil
	}
	return t.log
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

func summarize(tr trace.Trace) TraceSummary {
	return TraceSummary{
		ID:           tr.ID,
		Label:        tr.Label,
		Start:        tr.Wall,
		Duration:     time.Duration(tr.DurNS),
		Slow:         tr.Slow,
		Spans:        len(tr.Spans),
		DroppedSpans: tr.Dropped,
		Stats:        obs.SnapshotOf(tr.Attrs),
	}
}

func summarizeAll(trs []trace.Trace) []TraceSummary {
	out := make([]TraceSummary, len(trs))
	for i, tr := range trs {
		out[i] = summarize(tr)
	}
	return out
}

// Recent summarizes the retained sampled traces, oldest first.
func (t *TraceLog) Recent() []TraceSummary { return summarizeAll(t.inner().Recent()) }

// Slow summarizes the retained slow traces, oldest first.
func (t *TraceLog) Slow() []TraceSummary { return summarizeAll(t.inner().Slow()) }

// Totals reports how many traces have finished and how many the sampled
// ring retained since the log was created.
func (t *TraceLog) Totals() (finished, sampled int64) { return t.inner().Totals() }

// SlowThreshold reports the effective slow-capture threshold.
func (t *TraceLog) SlowThreshold() time.Duration { return t.inner().SlowThreshold() }

// StageLatencies summarizes the per-stage latency histograms across every
// traced query (sampled away or not), in stage order, stages with at least
// one observation only.
func (t *TraceLog) StageLatencies() []StageLatency {
	return t.inner().Latencies().Snapshot()
}

// WriteChromeTrace writes the identified trace in Chrome trace-event JSON —
// load the output at ui.perfetto.dev or chrome://tracing to see the span
// waterfall. Every span event's args carry its index and its parent's, for
// jq-style analysis of the same file. The trace must still be retained in a
// ring.
func (t *TraceLog) WriteChromeTrace(w io.Writer, id int64) error {
	tr, ok := t.inner().Get(id)
	if !ok {
		return fmt.Errorf("lbkeogh: trace %d not retained", id)
	}
	return trace.WriteChrome(w, []trace.Trace{tr})
}

// WriteChromeTraces writes every retained trace (sampled then slow, minus
// duplicates) into one Chrome trace-event file, one track per trace.
func (t *TraceLog) WriteChromeTraces(w io.Writer) error {
	l := t.inner()
	traces := l.Recent()
	seen := make(map[int64]bool, len(traces))
	for _, tr := range traces {
		seen[tr.ID] = true
	}
	for _, tr := range l.Slow() {
		if !seen[tr.ID] {
			traces = append(traces, tr)
		}
	}
	return trace.WriteChrome(w, traces)
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
