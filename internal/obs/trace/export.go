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

// spanArgs converts a span's metadata to trace-event args (nil when empty).
func spanArgs(sp Span) map[string]any {
	args := map[string]any{}
	if sp.Ref >= 0 {
		args["ref"] = sp.Ref
	}
	if sp.Attrs != (obs.Counts{}) {
		args["counts"] = sp.Attrs
	}
	if len(sp.VisitsByLevel) > 0 {
		args["visits_by_level"] = sp.VisitsByLevel
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// WriteChrome renders the trace in Chrome trace-event JSON — loadable by
// Perfetto (ui.perfetto.dev) and chrome://tracing.
func WriteChrome(w io.Writer, tr Trace) error {
	events := make([]chromeEvent, 0, len(tr.Spans)+1)
	rootArgs := map[string]any{"trace_id": tr.ID, "counts": tr.Attrs}
	if tr.Dropped > 0 {
		rootArgs["dropped_spans"] = tr.Dropped
	}
	events = append(events, chromeEvent{
		Name: tr.Label, Ph: "X", Ts: 0, Dur: float64(tr.DurNS) / 1e3,
		Pid: 1, Tid: tr.ID, Args: rootArgs,
	})
	for _, sp := range tr.Spans {
		events = append(events, chromeEvent{
			Name: sp.Stage.String(),
			Ph:   "X",
			Ts:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.Dur) / 1e3,
			Pid:  1,
			Tid:  tr.ID,
			Args: spanArgs(sp),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTraceFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// jsonlSpan is one span line of the JSONL export: flat, self-describing,
// one JSON object per line, suitable for jq/duckdb post-processing.
type jsonlSpan struct {
	TraceID int64      `json:"trace_id"`
	Label   string     `json:"label"`
	Span    int        `json:"span"`
	Parent  int32      `json:"parent"`
	Stage   string     `json:"stage"`
	Ref     int32      `json:"ref"`
	StartNS int64      `json:"start_ns"`
	DurNS   int64      `json:"dur_ns"`
	Attrs   obs.Counts `json:"attrs,omitempty"`
	Visits  []int64    `json:"visits_by_level,omitempty"`
}

// WriteJSONL renders every span of the trace as one JSON object per line,
// preceded by a header line describing the trace itself.
func WriteJSONL(w io.Writer, tr Trace) error {
	enc := json.NewEncoder(w)
	header := struct {
		TraceID int64      `json:"trace_id"`
		Label   string     `json:"label"`
		DurNS   int64      `json:"dur_ns"`
		Slow    bool       `json:"slow"`
		Spans   int        `json:"spans"`
		Dropped int64      `json:"dropped,omitempty"`
		Attrs   obs.Counts `json:"attrs"`
	}{tr.ID, tr.Label, tr.DurNS, tr.Slow, len(tr.Spans), tr.Dropped, tr.Attrs}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for i, sp := range tr.Spans {
		if err := enc.Encode(jsonlSpan{
			TraceID: tr.ID, Label: tr.Label, Span: i, Parent: sp.Parent,
			Stage: sp.Stage.String(), Ref: sp.Ref, StartNS: sp.Start, DurNS: sp.Dur,
			Attrs: sp.Attrs, Visits: sp.VisitsByLevel,
		}); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeAll renders several traces into one trace-event file, one tid
// per trace so they stack as separate tracks.
func WriteChromeAll(w io.Writer, traces []Trace) error {
	var events []chromeEvent
	for _, tr := range traces {
		rootArgs := map[string]any{"trace_id": tr.ID, "counts": tr.Attrs}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s#%d", tr.Label, tr.ID), Ph: "X",
			Ts: 0, Dur: float64(tr.DurNS) / 1e3, Pid: 1, Tid: tr.ID, Args: rootArgs,
		})
		for _, sp := range tr.Spans {
			events = append(events, chromeEvent{
				Name: sp.Stage.String(), Ph: "X",
				Ts: float64(sp.Start) / 1e3, Dur: float64(sp.Dur) / 1e3,
				Pid: 1, Tid: tr.ID, Args: spanArgs(sp),
			})
		}
	}
	return json.NewEncoder(w).Encode(chromeTraceFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}
