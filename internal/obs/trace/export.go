package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"lbkeogh/internal/obs"
)

// chromeEvent is one Chrome trace-event "complete" (ph "X") record.
// Timestamps and durations are microseconds, as the format requires; span
// nesting is implied by interval containment within one pid/tid, which is
// exactly how the recorder's parentage was derived, so Perfetto and
// chrome://tracing render the same tree the dashboard does.
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

// spanArgs converts span i's position in its trace and its metadata to
// trace-event args.
func spanArgs(i int, sp Span) map[string]any {
	args := map[string]any{"span": i, "parent": sp.Parent}
	if sp.Ref >= 0 {
		args["ref"] = sp.Ref
	}
	if sp.Attrs != (obs.Counts{}) {
		args["counts"] = sp.Attrs
	}
	return args
}

// WriteChrome renders traces in Chrome trace-event JSON — loadable by
// Perfetto (ui.perfetto.dev) and chrome://tracing — one track (tid) per
// trace. Each trace is a root event named label#id, whose args carry the
// trace ID, its counts and its dropped-span count, followed by one event per
// span in recording order; a span's args carry its index in the trace and
// its parent's (-1 directly under the root), so the tree is recoverable
// without reading interval containment.
func WriteChrome(w io.Writer, traces []Trace) error {
	var events []chromeEvent
	for _, tr := range traces {
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s#%d", tr.Label, tr.ID), Ph: "X",
			Ts: 0, Dur: float64(tr.DurNS) / 1e3, Pid: 1, Tid: tr.ID,
			Args: map[string]any{"trace_id": tr.ID, "counts": tr.Attrs, "dropped_spans": tr.Dropped},
		})
		for i, sp := range tr.Spans {
			events = append(events, chromeEvent{
				Name: sp.Stage.String(), Ph: "X",
				Ts: float64(sp.Start) / 1e3, Dur: float64(sp.Dur) / 1e3,
				Pid: 1, Tid: tr.ID, Args: spanArgs(i, sp),
			})
		}
	}
	return json.NewEncoder(w).Encode(chromeTraceFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}
