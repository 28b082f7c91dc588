package ops

import (
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

// RED is one endpoint's request record since process start — rate, errors
// and duration: terminal outcomes by error class and their latencies in a
// power-of-two histogram. Nothing rolls out; a scraper windows by
// differencing two scrapes. The zero value is ready to use, and a nil *RED is
// a no-op sink. This is per-request accounting, never per-comparison.
type RED struct {
	classes   [numClasses]atomic.Int64
	durations obs.Histogram
}

// Observe records one finished request.
func (r *RED) Observe(status int, dur time.Duration) {
	if r == nil {
		return
	}
	r.classes[classIndex(status)].Add(1)
	r.durations.Observe(max(dur.Nanoseconds(), 0))
}

// Histogram returns the latency histogram (nanoseconds) Observe feeds.
func (r *RED) Histogram() *obs.Histogram {
	if r == nil {
		return nil
	}
	return &r.durations
}

// REDSnapshot is one read of a RED record.
type REDSnapshot struct {
	// Requests is the total observed; Classes splits it by error class
	// ("ok", "client", "rejected", "timeout", "server"; every class present).
	Requests int64
	Classes  map[string]int64
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
	return out
}
