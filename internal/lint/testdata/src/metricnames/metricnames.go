// Package metricnames is the golden fixture for the metricnames analyzer:
// every metric name handed to the ops exposition helpers must be snake_case,
// carry the lbkeogh_/shapeserver_ namespace, end counters in _total, and keep
// base units (_seconds, _bytes) last.
package metricnames

import (
	"io"

	"lbkeogh/internal/obs/ops"
)

// Expose covers the exposition helpers, including the kind read from
// WriteFamily's literal argument.
func Expose(w io.Writer) {
	ops.WriteCounter(w, "shapeserver_good_total", "fine", 1)
	ops.WriteGaugeInt(w, "shapeserver_depth", "fine", 1)
	ops.WriteGaugeFloat(w, "lbkeogh_ratio", "fine", 0.5)
	ops.WriteFamily(w, "lbkeogh_hist_seconds", "histogram", "fine")
	ops.WriteHistogram(w, "lbkeogh_hist_seconds", "", nil, "0", false)

	ops.WriteCounter(w, "shapeserver_drops", "counter without the suffix", 1)   // want `counter "shapeserver_drops" must end in _total`
	ops.WriteGaugeInt(w, "shapeserver_depth_total", "gauge claiming _total", 1) // want `gauge "shapeserver_depth_total" must not end in _total`
	ops.WriteFamily(w, "lbkeogh_batch", "counter", "kind from the literal")     // want `counter "lbkeogh_batch" must end in _total`
	ops.WriteGaugeFloat(w, "lbkeogh_heap_kb", "scaled unit", 1)                 // want `use base units`
	ops.WriteFamily(w, "lbkeogh_wait_total", "histogram", "claiming _total")    // want `must not end in _total`
	ops.WriteCounter(w, "requests_total", "no namespace", 1)                    // want `lacks the lbkeogh_ or shapeserver_ namespace prefix`
	ops.WriteCounter(w, "lbkeogh_BadName_total", "camel case", 1)               // want `is not snake_case`
	ops.WriteCounter(w, "lbkeogh__doubled_total", "doubled underscore", 1)      // want `is not snake_case`
	ops.WriteFamily(w, "lbkeogh_seconds_wait", "histogram", "unit not last")    // want `buries the unit "seconds"`
	ops.WriteHistogram(w, "lbkeogh_wait_ms", "", nil, "0", false)               // want `use base units`
}

// Dynamic names are out of scope: only string literals are checked.
func Dynamic(w io.Writer, name string) {
	ops.WriteCounter(w, name, "dynamic name", 1)
}
