package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lbkeogh/internal/obs/ops"
)

// Captured at commit 0bf7dc8, before the bucket loop moved into
// ops.WriteHistogram. Two things moved since: the _sum line, when the family
// turned cumulative (it is the exact sum of the observed durations, not a
// window's), and the empty interior buckets, written since the family keeps
// one le set on every series. The OpenMetrics trace-ID suffixes three
// bucket lines carried are gone: the 0.0.4 format has no syntax for them.
// Every other line the windowed histogram wrote is still here, byte for byte.
const redHistogramGolden = `shapeserver_request_duration_seconds_bucket{endpoint="search",le="1e-09"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="2e-09"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="4e-09"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="8e-09"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="1.6e-08"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="3.2e-08"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="6.4e-08"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="1.28e-07"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="2.56e-07"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="5.12e-07"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="1.024e-06"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="2.048e-06"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="4.096e-06"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="8.192e-06"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="1.6384e-05"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="3.2768e-05"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="6.5536e-05"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.000131072"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.000262144"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.000524288"} 1
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.001048576"} 5
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.002097152"} 5
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.004194304"} 5
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.008388608"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.016777216"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.033554432"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.067108864"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.134217728"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.268435456"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="0.536870912"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="1.073741824"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="2.147483648"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="4.294967296"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="8.589934592"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="17.179869184"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="34.359738368"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="68.719476736"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="137.438953472"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="274.877906944"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="549.755813888"} 7
shapeserver_request_duration_seconds_bucket{endpoint="search",le="+Inf"} 8
shapeserver_request_duration_seconds_sum{endpoint="search"} 2199.043255553
shapeserver_request_duration_seconds_count{endpoint="search"} 8
`

// TestREDHistogramGolden renders the request-duration family the way
// telemetry.writeMetrics does: the endpoint's cumulative histogram.
func TestREDHistogramGolden(t *testing.T) {
	tel := newTelemetry(Config{})
	for _, d := range []time.Duration{1, 1e6, 1e6, 1e6, 1e6, 8e6, 8e6, 1 << 41} {
		tel.endpoints[epSearch].Observe(200, d)
	}
	var buf bytes.Buffer
	h := tel.endpoints[epSearch].Histogram()
	ops.WriteDurationHistogram(&buf, "shapeserver_request_duration_seconds",
		fmt.Sprintf("endpoint=%q", "search"), h.Buckets(), h.Sum())
	if got := buf.String(); got != redHistogramGolden {
		t.Errorf("request histogram:\n%s\nwant:\n%s", got, redHistogramGolden)
	}
}
