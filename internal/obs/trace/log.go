package trace

import (
	"sync"
	"time"

	"lbkeogh/internal/obs"
)

// The ring sizes of every Log.
const (
	Capacity     = 64 // sampled traces kept
	SlowCapacity = 32 // slow traces kept
)

// Defaults for Config fields left zero.
const (
	DefaultSampleRate    = 0.25
	DefaultSlowThreshold = 50 * time.Millisecond
)

// Config tunes a Log. The zero value selects every default.
type Config struct {
	// SampleRate is the probability a completed trace is retained in the
	// ring (0: DefaultSampleRate; negative: keep nothing but slow traces;
	// >= 1: keep everything).
	SampleRate float64
	// SlowThreshold is the duration at or above which a trace is always
	// captured, bypassing sampling (0: DefaultSlowThreshold; negative:
	// disable slow capture).
	SlowThreshold time.Duration
}

// Trace is one completed, retained query trace.
type Trace struct {
	ID    int64     `json:"id"`
	Label string    `json:"label"`
	Wall  time.Time `json:"wall"` // wall-clock start, for display only
	DurNS int64     `json:"dur_ns"`
	Slow  bool      `json:"slow"`
	// Attrs are the whole-trace counter deltas (the root span's attributes).
	Attrs   obs.Counts `json:"attrs"`
	Spans   []Span     `json:"spans"`
	Dropped int64      `json:"dropped,omitempty"`
}

// Log owns the retention policy over completed traces: a bounded ring of
// probabilistically sampled traces, a separate bounded ring of slow traces
// (always captured once their duration reaches the threshold), and the
// always-on per-stage latency histograms, which observe every span of every
// finished trace whether or not the trace itself is retained.
//
// StartTrace/Finish are safe for concurrent use across queries; one
// Recorder remains single-goroutine. A nil *Log starts nil recorders, so
// "tracing off" needs no branching at call sites.
type Log struct {
	mu      sync.Mutex
	cfg     Config
	ring    []Trace // sampled traces, newest overwrite oldest
	ringPos int
	slow    []Trace // slow traces, ditto
	slowPos int
	nextID  int64
	total   int64  // traces finished
	kept    int64  // traces retained in the sampled ring
	rng     uint64 // splitmix64 state, fixed at creation so runs are reproducible

	lat StageLatencies
}

// NewLog returns a Log with the given configuration.
func NewLog(cfg Config) *Log {
	if cfg.SampleRate == 0 {
		cfg.SampleRate = DefaultSampleRate
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	return &Log{cfg: cfg, rng: 0x9e3779b97f4a7c15}
}

// Latencies exposes the per-stage latency histograms (nil-safe).
func (l *Log) Latencies() *StageLatencies {
	if l == nil {
		return nil
	}
	return &l.lat
}

// ObserveStage feeds one duration straight into the stage histograms — the
// path for histogram-only stages (disk reads, stream filter windows) that
// record no spans.
func (l *Log) ObserveStage(stage Stage, ns int64) {
	if l == nil {
		return
	}
	l.lat.Observe(stage, ns)
}

// StartTrace returns a fresh recorder for one query. A nil Log returns a
// nil Recorder — the no-op path.
func (l *Log) StartTrace(label string) *Recorder {
	if l == nil {
		return nil
	}
	return NewRecorder(label, SpanCap)
}

// splitmix64 advances the sampling RNG (Steele et al.; good enough for
// retention sampling and allocation-free).
func (l *Log) splitmix64() uint64 {
	l.rng += 0x9e3779b97f4a7c15
	z := l.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Finish completes the recorder's trace: every span's duration feeds the
// stage histograms, then the trace is retained in the slow ring (duration
// >= threshold) and/or the sampled ring (probability SampleRate). attrs are
// the whole-trace counter deltas. Finishing a nil recorder is a no-op.
// Returns the trace ID when the trace was retained anywhere, 0 otherwise.
func (l *Log) Finish(r *Recorder, attrs obs.Counts) int64 {
	if l == nil || r == nil {
		return 0
	}
	dur := r.Now()
	for _, sp := range r.spans {
		l.lat.Observe(sp.Stage, sp.Dur)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	isSlow := l.cfg.SlowThreshold > 0 && dur >= int64(l.cfg.SlowThreshold)
	sampled := l.cfg.SampleRate >= 1 ||
		(l.cfg.SampleRate > 0 && float64(l.splitmix64()>>11)/(1<<53) < l.cfg.SampleRate)
	if !isSlow && !sampled {
		return 0
	}
	l.nextID++
	tr := Trace{
		ID:      l.nextID,
		Label:   r.label,
		Wall:    r.anchor,
		DurNS:   dur,
		Slow:    isSlow,
		Attrs:   attrs,
		Spans:   r.spans,
		Dropped: r.dropped,
	}
	if sampled {
		l.kept++
		if len(l.ring) < Capacity {
			l.ring = append(l.ring, tr)
		} else {
			l.ring[l.ringPos] = tr
			l.ringPos = (l.ringPos + 1) % Capacity
		}
	}
	if isSlow {
		if len(l.slow) < SlowCapacity {
			l.slow = append(l.slow, tr)
		} else {
			l.slow[l.slowPos] = tr
			l.slowPos = (l.slowPos + 1) % SlowCapacity
		}
	}
	return tr.ID
}

// ringInOrder copies a ring oldest-first.
func ringInOrder(ring []Trace, pos, capacity int) []Trace {
	out := make([]Trace, 0, len(ring))
	if len(ring) < capacity {
		return append(out, ring...)
	}
	out = append(out, ring[pos:]...)
	return append(out, ring[:pos]...)
}

// Recent returns the retained sampled traces, oldest first.
func (l *Log) Recent() []Trace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return ringInOrder(l.ring, l.ringPos, Capacity)
}

// Slow returns the retained slow traces, oldest first.
func (l *Log) Slow() []Trace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return ringInOrder(l.slow, l.slowPos, SlowCapacity)
}

// Get returns the retained trace with the given ID (sampled or slow).
func (l *Log) Get(id int64) (Trace, bool) {
	if l == nil {
		return Trace{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.ring {
		if l.ring[i].ID == id {
			return l.ring[i], true
		}
	}
	for i := range l.slow {
		if l.slow[i].ID == id {
			return l.slow[i], true
		}
	}
	return Trace{}, false
}

// Totals reports how many traces finished and how many the sampled ring
// retained since the log was created.
func (l *Log) Totals() (finished, sampled int64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total, l.kept
}

// SlowThreshold reports the effective slow-capture threshold.
func (l *Log) SlowThreshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.cfg.SlowThreshold
}
