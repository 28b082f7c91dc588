package trace

import (
	"time"

	"lbkeogh/internal/obs"
)

// arenaCap bounds the spans one arena (one comparison) can hold. A wedge
// search emits one envelope span, one H-Merge span and one kernel span per
// surviving leaf, so the cap keeps the waterfall informative for typical
// comparisons while bounding the worst case; overflow is counted.
const arenaCap = 24

// Arena is the goroutine-confined scratch buffer for hot-path span
// recording, mirroring the stats.Tally pattern: the search hot loops write
// plain (non-atomic) spans into a stack-owned arena, and the owner flushes
// it into the trace Recorder once per comparison. An Arena must never be
// shared across goroutines or parked in a struct field; a nil *Arena — the
// untraced path — costs one predictable branch per call site.
type Arena struct {
	anchor  time.Time
	spans   [arenaCap]Span
	n       int
	dropped int64
	visits  [obs.MaxPruneLevels]int64
	visited bool
}

// Init arms the arena against the recorder's anchor. A nil recorder leaves
// the arena disarmed: every method returns immediately.
func (a *Arena) Init(r *Recorder) {
	if a == nil || r == nil {
		return
	}
	a.anchor = r.anchor
}

// armed reports whether Init saw a live recorder.
func (a *Arena) armed() bool { return a != nil && !a.anchor.IsZero() }

// Now returns nanoseconds since the trace anchor (0 when disarmed).
func (a *Arena) Now() int64 {
	if !a.armed() {
		return 0
	}
	return int64(time.Since(a.anchor))
}

// Emit records a completed span. Saturation drops the span and counts it.
func (a *Arena) Emit(stage Stage, ref int, start, dur int64) {
	if !a.armed() {
		return
	}
	if a.n == arenaCap {
		a.dropped++
		return
	}
	a.spans[a.n] = Span{Parent: -1, Stage: stage, Ref: int32(ref), Start: start, Dur: dur}
	a.n++
}

// Begin reserves a span slot opening now, so enclosing stages claim their
// slot before inner kernel spans can saturate the arena. Returns -1 when
// disarmed or full (End ignores it).
func (a *Arena) Begin(stage Stage, ref int) int {
	if !a.armed() {
		return -1
	}
	if a.n == arenaCap {
		a.dropped++
		return -1
	}
	a.spans[a.n] = Span{Parent: -1, Stage: stage, Ref: int32(ref), Start: a.Now()}
	a.n++
	return a.n - 1
}

// End closes a slot reserved by Begin.
func (a *Arena) End(slot int) {
	if slot < 0 || !a.armed() {
		return
	}
	a.spans[slot].Dur = a.Now() - a.spans[slot].Start
}

// Kernel records one exact kernel evaluation started at t0 (a prior Now
// call) against member ref.
func (a *Arena) Kernel(ref int, t0 int64) {
	a.Emit(StageKernel, ref, t0, a.Now()-t0)
}

// CountVisit charges one H-Merge internal-node visit at the given
// dendrogram level; the counts surface as the H-Merge span's VisitsByLevel.
func (a *Arena) CountVisit(level int) {
	if !a.armed() {
		return
	}
	a.visits[obs.PruneLevel(level)]++
	a.visited = true
}

// visitsByLevel returns the non-empty prefix of the visit counts (nil when
// nothing was recorded). Called at flush time, outside the hot path.
func (a *Arena) visitsByLevel() []int64 {
	if !a.visited {
		return nil
	}
	max := -1
	for i := range a.visits {
		if a.visits[i] != 0 {
			max = i
		}
	}
	out := make([]int64, max+1)
	copy(out, a.visits[:max+1])
	return out
}

// reset clears the arena for the next comparison (anchor retained).
func (a *Arena) reset() {
	a.n = 0
	a.dropped = 0
	if a.visited {
		a.visits = [obs.MaxPruneLevels]int64{}
		a.visited = false
	}
}
