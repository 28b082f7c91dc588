package ops

import (
	"sync"
	"sync/atomic"
	"time"

	"lbkeogh/internal/obs"
)

// Error classes a request outcome falls into. "ok" is not an error; the
// server-attributable classes (rejected, timeout, server) are the ones an
// error budget counts, client mistakes are not.
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

// ClassNames returns the error-class label vocabulary in emission order.
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

// RED is one endpoint's request record since process start — rate, errors
// and duration: terminal outcomes by error class, their latencies in a
// power-of-two histogram, and per latency bucket the most recent traced
// request as an exemplar. Nothing rolls out; a scraper windows by
// differencing two scrapes. The zero value is ready to use, and a nil *RED is
// a no-op sink. This is per-request accounting, never per-comparison.
type RED struct {
	classes   [numClasses]atomic.Int64
	durations obs.Histogram

	mu        sync.Mutex // guards exemplars; only a traced request takes it
	exemplars [obs.HistogramBuckets + 1]Exemplar
}

// Observe records one finished request. traceID links the observation to a
// retained trace (0 when the request was untraced or sampled away); a
// non-zero ID replaces the bucket's exemplar.
func (r *RED) Observe(status int, dur time.Duration, traceID int64) {
	if r == nil {
		return
	}
	ns := max(dur.Nanoseconds(), 0)
	r.classes[classIndex(status)].Add(1)
	r.durations.Observe(ns)
	if traceID != 0 {
		ex := Exemplar{TraceID: traceID, DurNS: ns, Wall: time.Now()}
		r.mu.Lock()
		r.exemplars[obs.BucketIndex(ns)] = ex
		r.mu.Unlock()
	}
}

// Histogram returns the latency histogram (nanoseconds) Observe feeds.
func (r *RED) Histogram() *obs.Histogram {
	if r == nil {
		return nil
	}
	return &r.durations
}

// BucketExemplar pairs a histogram bucket (by upper bound, -1 for overflow)
// with its exemplar.
type BucketExemplar struct {
	UpperBoundNS int64
	Exemplar
}

// REDSnapshot is one read of a RED record.
type REDSnapshot struct {
	// Requests is the total observed; Classes splits it by error class
	// ("ok", "client", "rejected", "timeout", "server"; every class present).
	Requests int64
	Classes  map[string]int64
	// Bucket-resolution latency quantiles since process start: the bucket
	// upper bound (ns) the quantile falls in, -1 for the overflow bucket, 0
	// when nothing was observed.
	P50NS, P99NS int64
	// Exemplars carries each bucket's exemplar, ascending by bound.
	Exemplars []BucketExemplar
}

// Snapshot reads the record.
func (r *RED) Snapshot() REDSnapshot {
	out := REDSnapshot{Classes: map[string]int64{}}
	if r == nil {
		return out
	}
	for c := range r.classes {
		n := r.classes[c].Load()
		out.Classes[classNames[c]] = n
		out.Requests += n
	}
	buckets := r.durations.Buckets()
	out.P50NS = obs.BucketQuantile(buckets, 0.50)
	out.P99NS = obs.BucketQuantile(buckets, 0.99)
	r.mu.Lock()
	for b, ex := range r.exemplars {
		if ex.TraceID != 0 {
			out.Exemplars = append(out.Exemplars, BucketExemplar{UpperBoundNS: obs.BucketBound(b), Exemplar: ex})
		}
	}
	r.mu.Unlock()
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
