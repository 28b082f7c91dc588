package trace

import "lbkeogh/internal/obs"

// StageLatencies is a fixed set of per-stage latency histograms over the
// shared power-of-two buckets of internal/obs (nanosecond values: the 40
// finite buckets span 1ns..~9min). Observe is lock-free and concurrent-safe;
// a nil *StageLatencies is a no-op sink.
type StageLatencies struct {
	hist [NumStages]obs.Histogram
}

// Observe records one duration (in nanoseconds) for the given stage.
func (l *StageLatencies) Observe(stage Stage, ns int64) {
	if l == nil || stage >= NumStages {
		return
	}
	if ns < 0 {
		ns = 0
	}
	l.hist[stage].Observe(ns)
}

// Histogram exposes one stage's histogram (nil receiver yields nil).
func (l *StageLatencies) Histogram(stage Stage) *obs.Histogram {
	if l == nil || stage >= NumStages {
		return nil
	}
	return &l.hist[stage]
}

// Reset zeroes every stage histogram.
func (l *StageLatencies) Reset() {
	if l == nil {
		return
	}
	for i := range l.hist {
		l.hist[i].Reset()
	}
}

// Snapshot summarizes every stage with at least one observation, in stage
// order.
func (l *StageLatencies) Snapshot() []obs.StageLatency {
	if l == nil {
		return nil
	}
	var out []obs.StageLatency
	for s := Stage(0); s < NumStages; s++ {
		h := &l.hist[s]
		if h.Count() == 0 {
			continue
		}
		buckets := h.Buckets()
		out = append(out, obs.StageLatency{
			Stage:   s.String(),
			Count:   h.Count(),
			SumNS:   h.Sum(),
			Buckets: buckets,
			P50NS:   obs.BucketQuantile(buckets, 0.50),
			P90NS:   obs.BucketQuantile(buckets, 0.90),
			P99NS:   obs.BucketQuantile(buckets, 0.99),
		})
	}
	return out
}
