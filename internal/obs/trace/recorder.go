package trace

import (
	"time"

	"lbkeogh/internal/obs"
)

// DefaultSpanCap bounds the spans of one trace unless the Log overrides it.
// Beyond the cap spans are dropped (and counted), never reallocated — the
// recorder does all its allocation up front.
const DefaultSpanCap = 512

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
// at time.Now (spanCap <= 0 selects DefaultSpanCap). Logs normally construct
// recorders via StartTrace; NewRecorder exists for tests and for tracing
// outside any log.
func NewRecorder(label string, spanCap int) *Recorder {
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	return &Recorder{
		anchor: time.Now(),
		label:  label,
		spans:  make([]Span, 0, spanCap),
		stack:  make([]int32, 0, 8),
	}
}

// Label returns the trace label given at construction.
func (r *Recorder) Label() string {
	if r == nil {
		return ""
	}
	return r.label
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
// clock reads, arena staging, counter deltas — provided it reports what it
// skipped through Drop. A nil recorder is not full; it is absent.
func (r *Recorder) Full() bool {
	return r != nil && len(r.spans) == cap(r.spans)
}

// Drop counts one span the caller did not offer because the recorder is Full.
func (r *Recorder) Drop() {
	if r != nil {
		r.dropped++
	}
}

// Begin opens a span of the given stage, nested under the innermost open
// span. It returns a no-op SpanID on a nil or saturated recorder.
func (r *Recorder) Begin(stage Stage, ref int) SpanID {
	if r == nil {
		return -1
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, Span{
		Parent: parent,
		Stage:  stage,
		Ref:    int32(ref),
		Start:  r.Now(),
	})
	r.stack = append(r.stack, id)
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
	if r == nil {
		return
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, Span{Parent: parent, Stage: stage, Ref: int32(ref), Start: start, Dur: dur})
}

// Spans returns the recorded spans (shared slice; callers must not mutate).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// FlushArena copies the arena's completed spans into the recorder as
// descendants of the given span, reconstructing nesting by interval
// containment (an arena records a flat span list to stay allocation-free in
// the hot path). The arena's per-level visit counts are attached to its
// H-Merge span, if any. The arena is reset for reuse.
func (r *Recorder) FlushArena(a *Arena, under SpanID) {
	if r == nil || a == nil || a.n == 0 {
		if a != nil {
			a.reset()
		}
		return
	}
	r.dropped += a.dropped
	// Arena spans are completed in End order, so a span's enclosing spans
	// complete after it. Walk in arena order; for each span the parent is
	// the latest already-flushed arena span that contains it — but since
	// containers flush later, scan the remaining (unflushed) spans instead:
	// the tightest container wins. n is small (<= arenaCap), O(n²) is fine.
	base := int32(under)
	var idx [arenaCap]int32
	// First pass: append spans, remembering their recorder indices.
	for i := 0; i < a.n; i++ {
		if len(r.spans) == cap(r.spans) {
			r.dropped++
			idx[i] = -1
			continue
		}
		sp := a.spans[i]
		sp.Parent = base
		if sp.Stage == StageHMerge {
			sp.VisitsByLevel = a.visitsByLevel()
		}
		idx[i] = int32(len(r.spans))
		r.spans = append(r.spans, sp)
	}
	// Second pass: tighten parentage by containment among the arena spans.
	for i := 0; i < a.n; i++ {
		if idx[i] < 0 {
			continue
		}
		bestDur := int64(-1)
		for j := 0; j < a.n; j++ {
			if i == j || idx[j] < 0 {
				continue
			}
			if !a.spans[j].contains(a.spans[i]) {
				continue
			}
			// Identical intervals would parent each other; break the tie
			// towards the earlier span so nesting stays acyclic.
			if a.spans[j].Start == a.spans[i].Start && a.spans[j].Dur == a.spans[i].Dur && j > i {
				continue
			}
			if bestDur < 0 || a.spans[j].Dur < bestDur {
				bestDur = a.spans[j].Dur
				r.spans[idx[i]].Parent = idx[j]
			}
		}
	}
	a.reset()
}
