package ops

import (
	"io"
	"math"
	"runtime/metrics"
)

// The runtime/metrics samples exported as lbkeogh_runtime_* families. Kept
// to the handful an operator actually watches during an incident: memory
// pressure, GC stalls, goroutine growth, and scheduler queuing.
var runtimeSamples = []struct {
	metric string // runtime/metrics name
	name   string // exported family
	kind   string // gauge | counter | histogram
	help   string
}{
	{"/sched/goroutines:goroutines", "lbkeogh_runtime_goroutines", "gauge",
		"Live goroutines."},
	{"/memory/classes/heap/objects:bytes", "lbkeogh_runtime_heap_bytes", "gauge",
		"Bytes of live heap objects."},
	{"/memory/classes/total:bytes", "lbkeogh_runtime_total_bytes", "gauge",
		"All memory mapped by the Go runtime."},
	{"/gc/cycles/total:gc-cycles", "lbkeogh_runtime_gc_cycles_total", "counter",
		"Completed GC cycles."},
	{"/gc/pauses:seconds", "lbkeogh_runtime_gc_pause_seconds", "histogram",
		"Stop-the-world GC pause latencies."},
	{"/sched/latencies:seconds", "lbkeogh_runtime_sched_latency_seconds", "histogram",
		"Time goroutines spent runnable before running."},
}

// WriteRuntimeMetrics reads the curated runtime/metrics samples and writes
// them as lbkeogh_runtime_* families in text exposition format. Histograms
// carry _sum NaN: runtime/metrics float histograms have no exact sum, and
// NaN (the Prometheus client convention for these) keeps the family
// well-formed without inventing one. One metrics.Read per call — scrape
// cost, not request cost.
func WriteRuntimeMetrics(w io.Writer) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.metric
	}
	metrics.Read(samples)
	for i, rs := range runtimeSamples {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			v := samples[i].Value.Uint64()
			if rs.kind == "counter" {
				WriteCounter(w, rs.name, rs.help, int64(v))
			} else {
				WriteGaugeInt(w, rs.name, rs.help, int64(v))
			}
		case metrics.KindFloat64:
			WriteGaugeFloat(w, rs.name, rs.help, samples[i].Value.Float64())
		case metrics.KindFloat64Histogram:
			writeRuntimeHistogram(w, rs.name, rs.help, samples[i].Value.Float64Histogram())
		default:
			// Unsupported on this runtime version; skip the family entirely
			// rather than emit a header with no samples.
		}
	}
}

// writeRuntimeHistogram converts a runtime/metrics Float64Histogram to
// cumulative le-buckets, one per runtime bucket: those bounded above by +Inf
// fold into the overflow bucket, so the le set is the runtime's at every
// scrape.
func writeRuntimeHistogram(w io.Writer, name, help string, h *metrics.Float64Histogram) {
	WriteFamily(w, name, "histogram", help)
	// Buckets[i] .. Buckets[i+1] bound Counts[i]; the first boundary may be
	// -Inf and the last +Inf.
	buckets := make([]HistogramBucket, 0, len(h.Counts)+1)
	var overflow int64
	for i, c := range h.Counts {
		if upper := h.Buckets[i+1]; math.IsInf(upper, 1) {
			overflow += int64(c)
		} else {
			buckets = append(buckets, HistogramBucket{LE: FormatFloat(upper), Count: int64(c)})
		}
	}
	WriteHistogram(w, name, "", append(buckets, HistogramBucket{Count: overflow}), FormatFloat(math.NaN()))
}
