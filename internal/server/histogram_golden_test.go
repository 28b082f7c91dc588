package server

import (
	"bytes"
	"testing"
	"time"

	"lbkeogh/internal/obs/ops"
)

// Captured at commit 0bf7dc8, before the bucket loop moved into
// ops.WriteHistogram.
const redHistogramGolden = `shapeserver_request_duration_seconds_bucket{endpoint="search",le="1e-09"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.001048576"} 5
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.002097152"} 5 # {trace_id="5"} 0.0015 1.7000000005e+09
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.008388608"} 7 # {trace_id="6"} 0.008 1.7000000005e+09
shapeserver_request_duration_seconds_bucket{endpoint="search",le="+Inf"} 8 # {trace_id="8"} 2199.023255552 1.7000000005e+09
shapeserver_request_duration_seconds_sum{endpoint="search"} 0.123456789
shapeserver_request_duration_seconds_count{endpoint="search"} 8
`

func TestREDHistogramGolden(t *testing.T) {
	var snap ops.REDSnapshot
	snap.Buckets[0] = 1
	snap.Buckets[20] = 4
	snap.Buckets[23] = 2
	snap.Buckets[len(snap.Buckets)-1] = 1
	snap.DurSumNS = 123456789
	wall := time.Unix(1700000000, 500000000)
	snap.Exemplars = []ops.BucketExemplar{
		{UpperBoundNS: 1 << 21, Exemplar: ops.Exemplar{TraceID: 5, DurNS: 1500000, Wall: wall}},
		{UpperBoundNS: 1 << 23, Exemplar: ops.Exemplar{TraceID: 6, DurNS: 8000000, Wall: wall}},
		{UpperBoundNS: -1, Exemplar: ops.Exemplar{TraceID: 8, DurNS: 1 << 41, Wall: wall}},
	}
	var buf bytes.Buffer
	writeREDHistogram(&buf, "shapeserver_request_duration_seconds", "search", snap)
	if got := buf.String(); got != redHistogramGolden {
		t.Errorf("writeREDHistogram:\n%s\nwant:\n%s", got, redHistogramGolden)
	}
}
