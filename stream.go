package lbkeogh

import (
	"lbkeogh/internal/stream"
)

// StreamMatch reports one pattern firing on a monitored stream.
type StreamMatch struct {
	// End is the stream index of the last value of the matching window.
	End int
	// Pattern indexes the pattern slice given to NewMonitor.
	Pattern int
	// Dist is the exact distance between the window and the pattern.
	Dist float64
}

// Monitor filters a live stream against a fixed set of query patterns using
// the same hierarchical-wedge lower bounds as search — the "Atomic Wedgie"
// application (reference [40] of the paper). It reports exactly the matches
// a brute-force sliding-window scan would, typically at a small fraction of
// the cost.
type Monitor struct {
	m    *stream.Monitor
	tlog *TraceLog
}

// NewMonitor compiles the patterns (equal length n) for streaming threshold
// filtering under measure m. A window matches when its distance to a pattern
// is strictly below threshold. Streaming filtering compares raw windows: for
// amplitude-invariant matching, z-normalize patterns and feed a z-normalized
// stream.
func NewMonitor(patterns []Series, m Measure, threshold float64) (*Monitor, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	inner, err := stream.NewMonitor(patterns, m.kern, threshold)
	if err != nil {
		return nil, err
	}
	return &Monitor{m: inner}, nil
}

// WindowLen returns the pattern/window length.
func (mo *Monitor) WindowLen() int { return mo.m.WindowLen() }

// Steps reports cumulative filtering cost in the paper's num_steps metric.
func (mo *Monitor) Steps() int64 { return mo.m.Steps() }

// Stats returns a snapshot of the monitor's instrumentation record: each
// full window is one comparison, and every pattern in it was either
// wedge-pruned, abandoned early, or fully evaluated. When a TraceLog is
// attached, the snapshot additionally carries the monitor_filter latency
// summary.
func (mo *Monitor) Stats() SearchStats {
	s := mo.m.Stats().Snapshot()
	s.StageLatencies = mo.tlog.inner().Latencies().Snapshot()
	return s
}

// SetTraceLog attaches a TraceLog whose monitor_filter stage histogram
// receives the wall duration of every full-window filter pass (nil
// detaches). Not safe to call concurrently with Push.
func (mo *Monitor) SetTraceLog(t *TraceLog) {
	mo.tlog = t
	mo.m.SetTraceLog(t.inner())
}

// ResetStats zeroes the instrumentation record.
func (mo *Monitor) ResetStats() { mo.m.Stats().Reset() }

// Push consumes one stream value and returns any patterns matching the
// window ending at it.
func (mo *Monitor) Push(v float64) []StreamMatch {
	return convertMatches(mo.m.Push(v))
}

// PushAll consumes a batch of values.
func (mo *Monitor) PushAll(values []float64) []StreamMatch {
	return convertMatches(mo.m.PushAll(values))
}

func convertMatches(in []stream.Match) []StreamMatch {
	if len(in) == 0 {
		return nil
	}
	out := make([]StreamMatch, len(in))
	for i, m := range in {
		out[i] = StreamMatch{End: m.End, Pattern: m.Pattern, Dist: m.Dist}
	}
	return out
}
