package explain

import (
	"sync"
	"sync/atomic"
)

// Recorder is the shared, long-lived tightness sink: queries ask it whether
// to sample each comparison (every Nth across all queries feeding the
// recorder) and fold the measured waterfall samples into one aggregate. A
// nil *Recorder is a valid no-op sink — ShouldSample on nil costs one nil
// check and returns false, which is the entire disabled-path overhead.
type Recorder struct {
	every   int64
	seen    atomic.Int64
	sampled atomic.Int64

	mu  sync.Mutex
	agg Agg
}

// NewRecorder returns a recorder sampling every n-th comparison (n < 1 is
// clamped to 1, i.e. sample everything).
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{every: int64(n)}
}

// ShouldSample counts one comparison seen and reports whether it is the
// recorder's turn to sample it. Safe on a nil receiver (always false) and
// for concurrent use.
func (r *Recorder) ShouldSample() bool {
	if r == nil {
		return false
	}
	return r.seen.Add(1)%r.every == 0
}

// Observe folds one measured sample into the aggregate. Safe on a nil
// receiver (no-op).
func (r *Recorder) Observe(s Sample) {
	if r == nil {
		return
	}
	r.sampled.Add(1)
	r.mu.Lock()
	r.agg.Observe(s)
	r.mu.Unlock()
}

// RecorderSnapshot is a point-in-time copy of the recorder's aggregate.
type RecorderSnapshot struct {
	Seen        int64            `json:"seen"`
	Sampled     int64            `json:"sampled"`
	Interval    int64            `json:"interval"`
	Samples     int64            `json:"samples"`
	KernelKills int64            `json:"kernel_kills"`
	Survived    int64            `json:"survived"`
	Bounds      []BoundTightness `json:"bounds,omitempty"`
}

// Snapshot copies the aggregate out under the lock. Safe on a nil receiver
// (zero snapshot).
func (r *Recorder) Snapshot() RecorderSnapshot {
	if r == nil {
		return RecorderSnapshot{}
	}
	snap := RecorderSnapshot{
		Seen:     r.seen.Load(),
		Sampled:  r.sampled.Load(),
		Interval: r.every,
	}
	r.mu.Lock()
	snap.Samples = r.agg.Samples()
	snap.KernelKills = r.agg.KernelKills()
	snap.Survived = r.agg.Survived()
	snap.Bounds = r.agg.Summary()
	r.mu.Unlock()
	return snap
}
