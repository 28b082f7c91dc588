package ops

import (
	"sync"
	"time"

	"lbkeogh/internal/obs"
)

// WindowConfig shapes a rolling aggregate: Slots ring slots of SlotDur each,
// so the window covers Slots*SlotDur trailing wall time. The zero value
// selects 60 slots of one second — a one-minute window that rolls smoothly.
type WindowConfig struct {
	Slots   int
	SlotDur time.Duration

	// now overrides the clock in tests.
	now func() time.Time
}

func (c WindowConfig) withDefaults() WindowConfig {
	if c.Slots <= 0 {
		c.Slots = 60
	}
	if c.SlotDur <= 0 {
		c.SlotDur = time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Window reports the wall time the configured window covers.
func (c WindowConfig) Window() time.Duration {
	c = c.withDefaults()
	return time.Duration(c.Slots) * c.SlotDur
}

// Error classes a request outcome falls into. "ok" is not an error; the
// server-attributable classes (rejected, timeout, server) count against the
// error budget, client mistakes do not.
const (
	classOK       = iota // 2xx/3xx
	classClient          // 4xx except 429
	classRejected        // 429: shed by admission control
	classTimeout         // 504: deadline expired
	classServer          // other 5xx
	numClasses
)

// classNames indexes the class constants for label emission.
var classNames = [numClasses]string{"ok", "client", "rejected", "timeout", "server"}

// ErrorClass buckets an HTTP status code into its error-class label.
func ErrorClass(status int) string { return classNames[classIndex(status)] }

// ClassNames returns the error-class label vocabulary in emission order, so
// layers that pre-create one counter per class (the serving telemetry) share
// this exact vocabulary.
func ClassNames() []string { return append([]string(nil), classNames[:]...) }

func classIndex(status int) int {
	switch {
	case status == 429:
		return classRejected
	case status == 504:
		return classTimeout
	case status >= 500:
		return classServer
	case status >= 400:
		return classClient
	default:
		return classOK
	}
}

// Exemplar is the most recent traced observation that landed in a latency
// bucket: enough to jump from a histogram tail straight to the captured
// trace (OpenMetrics exemplar semantics).
type Exemplar struct {
	TraceID int64
	DurNS   int64
	Wall    time.Time
}

// redSlot is one time slice of a RED window. epoch is the absolute slot
// number the slice currently holds; a stale slice is reset in place when its
// index comes around again.
type redSlot struct {
	epoch    int64
	requests int64
	classes  [numClasses]int64
	buckets  [obs.HistogramBuckets + 1]int64
}

// RED is a rolling-window request aggregate: rate, error-class counts, and a
// power-of-two duration histogram with bucket-resolution quantiles, over the
// trailing WindowConfig.Window(). Observations are O(1) under one mutex —
// this is per-request accounting, never per-comparison. A nil *RED is a
// no-op sink.
type RED struct {
	mu        sync.Mutex
	cfg       WindowConfig
	slots     []redSlot
	exemplars [obs.HistogramBuckets + 1]Exemplar
}

// NewRED returns a rolling request window.
func NewRED(cfg WindowConfig) *RED {
	cfg = cfg.withDefaults()
	r := &RED{cfg: cfg, slots: make([]redSlot, cfg.Slots)}
	for i := range r.slots {
		r.slots[i].epoch = -1
	}
	return r
}

// slot rotates the ring to the current wall time and returns the live slot.
// Callers hold r.mu.
func (r *RED) slot(now time.Time) *redSlot {
	epoch := now.UnixNano() / int64(r.cfg.SlotDur)
	s := &r.slots[int(epoch%int64(len(r.slots)))]
	if s.epoch != epoch {
		*s = redSlot{epoch: epoch}
	}
	return s
}

// Observe records one finished request. traceID links the observation to a
// retained trace (0 when the request was untraced or sampled away); a
// non-zero ID replaces the bucket's exemplar.
func (r *RED) Observe(status int, dur time.Duration, traceID int64) {
	if r == nil {
		return
	}
	ns := dur.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b := obs.BucketIndex(ns)
	r.mu.Lock()
	now := r.cfg.now()
	s := r.slot(now)
	s.requests++
	s.classes[classIndex(status)]++
	s.buckets[b]++
	if traceID != 0 {
		r.exemplars[b] = Exemplar{TraceID: traceID, DurNS: ns, Wall: now}
	}
	r.mu.Unlock()
}

// BucketExemplar pairs a histogram bucket (by upper bound, -1 for overflow)
// with its exemplar.
type BucketExemplar struct {
	UpperBoundNS int64
	Exemplar
}

// REDSnapshot is one merged view of a RED window.
type REDSnapshot struct {
	// Window is the wall time covered.
	Window time.Duration
	// Requests is the total observed inside the window; Classes splits it by
	// error class ("ok", "client", "rejected", "timeout", "server").
	Requests int64
	Classes  map[string]int64
	// RatePerSec is Requests spread over the window.
	RatePerSec float64
	// Buckets holds the non-cumulative per-bucket duration counts indexed
	// like obs.Histogram (bound obs.BucketBound(i), overflow last).
	Buckets [obs.HistogramBuckets + 1]int64
	// Bucket-resolution quantiles: the bucket upper bound (ns) the quantile
	// falls in, -1 for the overflow bucket, 0 when the window is empty.
	P50NS, P90NS, P99NS int64
	// Exemplars carries the still-fresh bucket exemplars (observed within
	// the window), ascending by bound.
	Exemplars []BucketExemplar
}

// Snapshot merges the live slots into one window view.
func (r *RED) Snapshot() REDSnapshot {
	out := REDSnapshot{Classes: map[string]int64{}}
	if r == nil {
		return out
	}
	r.mu.Lock()
	now := r.cfg.now()
	epoch := now.UnixNano() / int64(r.cfg.SlotDur)
	oldest := epoch - int64(len(r.slots)) + 1
	out.Window = r.cfg.Window()
	for i := range r.slots {
		s := &r.slots[i]
		if s.epoch < oldest {
			continue
		}
		out.Requests += s.requests
		for c := 0; c < numClasses; c++ {
			if s.classes[c] != 0 {
				out.Classes[classNames[c]] += s.classes[c]
			}
		}
		for b := range s.buckets {
			out.Buckets[b] += s.buckets[b]
		}
	}
	for b, ex := range r.exemplars {
		if ex.TraceID != 0 && now.Sub(ex.Wall) <= out.Window {
			out.Exemplars = append(out.Exemplars, BucketExemplar{UpperBoundNS: obs.BucketBound(b), Exemplar: ex})
		}
	}
	r.mu.Unlock()
	if out.Window > 0 {
		out.RatePerSec = float64(out.Requests) / out.Window.Seconds()
	}
	var buckets []obs.HistogramBucket
	for b, c := range out.Buckets {
		if c != 0 {
			buckets = append(buckets, obs.HistogramBucket{UpperBound: obs.BucketBound(b), Count: c})
		}
	}
	out.P50NS = obs.BucketQuantile(buckets, 0.50)
	out.P90NS = obs.BucketQuantile(buckets, 0.90)
	out.P99NS = obs.BucketQuantile(buckets, 0.99)
	return out
}

// ExemplarText indexes the snapshot's exemplars by histogram bucket, rendered
// by FormatExemplar for WriteDurationHistogram.
func (s REDSnapshot) ExemplarText() *[obs.HistogramBuckets + 1]string {
	var out [obs.HistogramBuckets + 1]string
	for _, ex := range s.Exemplars {
		i := obs.HistogramBuckets // bound -1: the overflow bucket
		if ex.UpperBoundNS >= 0 {
			i = obs.BucketIndex(ex.UpperBoundNS)
		}
		out[i] = FormatExemplar(ex.TraceID, ex.DurNS, ex.Wall)
	}
	return &out
}
