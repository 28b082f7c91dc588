package trace

import (
	"time"

	"lbkeogh/internal/obs"
)

// SpanCap bounds the spans of one trace a traced query records. Beyond the
// cap spans are dropped (and counted), never reallocated — the recorder does
// all its allocation up front, and a TraceLog reuses its recorders.
const SpanCap = 512

// Recorder accumulates the spans of one trace. It is single-goroutine by
// design — a Query already is, and parallel scans record only their root
// span — and a nil *Recorder is a valid no-op sink everywhere: every method
// is nil-guarded so untraced hot paths pay one predictable branch, matching
// the *obs.SearchStats and *stats.Tally conventions.
//
// Spans are preallocated at construction; Begin/End push and pop an explicit
// open-span stack so nesting falls out of call order. Completed spans whose
// parent is still open index it via the stack.
type Recorder struct {
	anchor  time.Time // monotonic anchor; all offsets are time.Since(anchor)
	label   string
	spans   []Span
	stack   []int32 // indices of open spans
	dropped int64
}

// SpanID refers to an open span within its recorder. The zero value is not
// valid; use the return of Begin. A negative SpanID is the no-op reference
// returned by a nil or saturated recorder.
type SpanID int32

// NewRecorder returns a recorder with capacity for spanCap spans, anchored
// at time.Now (spanCap <= 0 selects SpanCap).
func NewRecorder(label string, spanCap int) *Recorder {
	if spanCap <= 0 {
		spanCap = SpanCap
	}
	return &Recorder{
		anchor: time.Now(),
		label:  label,
		spans:  make([]Span, 0, spanCap),
		stack:  make([]int32, 0, 8),
	}
}

// Reset empties the recorder for a new trace labelled label, anchored at
// time.Now, keeping its span buffer and capacity: the next trace's spans
// overwrite the last one's, so a caller keeping those copies them first.
func (r *Recorder) Reset(label string) {
	r.anchor, r.label = time.Now(), label
	r.spans, r.stack, r.dropped = r.spans[:0], r.stack[:0], 0
}

// Label returns the trace label given at construction (or the last Reset).
func (r *Recorder) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// Anchor returns the wall-clock time the trace began (the zero time on a
// nil recorder).
func (r *Recorder) Anchor() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.anchor
}

// Now returns nanoseconds since the trace anchor (0 on a nil recorder).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.anchor))
}

// Dropped reports how many spans were discarded because the buffer was full.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Full reports whether the span buffer is at its cap: nothing further can be
// recorded, so a caller may skip the work of producing spans altogether —
// clock reads, counter deltas — provided it reports what it skipped through
// Drop. A nil recorder is not full; it is absent.
func (r *Recorder) Full() bool {
	return r != nil && len(r.spans) == cap(r.spans)
}

// Drop counts one span the caller did not offer because the recorder is Full.
func (r *Recorder) Drop() {
	if r != nil {
		r.dropped++
	}
}

// push appends one span under the innermost open span. A trace at its cap
// drops the span and counts it: -1 comes back.
func (r *Recorder) push(stage Stage, ref int, start, dur int64) int32 {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, Span{Parent: parent, Stage: stage, Ref: int32(ref), Start: start, Dur: dur})
	return int32(len(r.spans) - 1)
}

// Begin opens a span of the given stage, nested under the innermost open
// span. It returns a no-op SpanID on a nil recorder or a dropped span.
func (r *Recorder) Begin(stage Stage, ref int) SpanID {
	if r == nil {
		return -1
	}
	id := r.push(stage, ref, r.Now(), 0)
	if id >= 0 {
		r.stack = append(r.stack, id)
	}
	return SpanID(id)
}

// End closes the span opened by Begin. Ending a no-op SpanID is a no-op.
func (r *Recorder) End(id SpanID) {
	r.EndAttrs(id, obs.Counts{})
}

// EndAttrs is End with counter-delta attributes attached to the span.
func (r *Recorder) EndAttrs(id SpanID, attrs obs.Counts) {
	if r == nil || id < 0 {
		return
	}
	sp := &r.spans[id]
	sp.Dur = r.Now() - sp.Start
	sp.Attrs = attrs
	// Pop the open stack down to (and including) this span; mismatched End
	// order unwinds rather than corrupting parentage.
	for n := len(r.stack); n > 0; n-- {
		top := r.stack[n-1]
		r.stack = r.stack[:n-1]
		if top == int32(id) {
			break
		}
	}
}

// Emit records an already-timed span (start and dur in anchor nanoseconds)
// as a child of the innermost open span.
func (r *Recorder) Emit(stage Stage, ref int, start, dur int64) {
	if r != nil {
		r.push(stage, ref, start, dur)
	}
}

// Spans returns the recorded spans (shared slice; callers must not mutate).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}
