package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lbkeogh/internal/obs/ops"
)

// Captured at commit 0bf7dc8, before the bucket loop moved into
// ops.WriteHistogram. Only the _sum line moved since, when the family turned
// cumulative: it is now the exact sum of the observed durations rather than a
// window's, and every other line is the bytes the windowed histogram wrote.
const redHistogramGolden = `shapeserver_request_duration_seconds_bucket{endpoint="search",le="1e-09"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.001048576"} 5
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.002097152"} 5 # {trace_id="5"} 0.0015 1.7000000005e+09
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.008388608"} 7 # {trace_id="6"} 0.008 1.7000000005e+09
shapeserver_request_duration_seconds_bucket{endpoint="search",le="+Inf"} 8 # {trace_id="8"} 2199.023255552 1.7000000005e+09
shapeserver_request_duration_seconds_sum{endpoint="search"} 2199.043255553
shapeserver_request_duration_seconds_count{endpoint="search"} 8
`

// TestREDHistogramGolden renders the request-duration family the way
// telemetry.writeMetrics does: the endpoint's cumulative histogram, with the
// rolling window's exemplars attached.
func TestREDHistogramGolden(t *testing.T) {
	tel := newTelemetry(Config{})
	for _, d := range []time.Duration{1, 1e6, 1e6, 1e6, 1e6, 8e6, 8e6, 1 << 41} {
		tel.observeRequest("search", 200, d, 0)
	}
	var snap ops.REDSnapshot
	wall := time.Unix(1700000000, 500000000)
	snap.Exemplars = []ops.BucketExemplar{
		{UpperBoundNS: 1 << 21, Exemplar: ops.Exemplar{TraceID: 5, DurNS: 1500000, Wall: wall}},
		{UpperBoundNS: 1 << 23, Exemplar: ops.Exemplar{TraceID: 6, DurNS: 8000000, Wall: wall}},
		{UpperBoundNS: -1, Exemplar: ops.Exemplar{TraceID: 8, DurNS: 1 << 41, Wall: wall}},
	}
	var buf bytes.Buffer
	ops.WriteDurationHistogram(&buf, "shapeserver_request_duration_seconds",
		fmt.Sprintf("endpoint=%q", "search"), tel.durations["search"], snap.ExemplarText())
	if got := buf.String(); got != redHistogramGolden {
		t.Errorf("request histogram:\n%s\nwant:\n%s", got, redHistogramGolden)
	}
}
