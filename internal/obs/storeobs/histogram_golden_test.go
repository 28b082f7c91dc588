package storeobs

import (
	"bytes"
	"testing"
	"time"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/ops"
)

// Captured at commit 0bf7dc8, before the bucket loop moved into
// ops.WriteHistogram; unchanged since it moved on into
// ops.WriteDurationHistogram, which the serving layer's request histogram
// shares.
const storeHistogramsGolden = `lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="1e-09"} 1
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="1.024e-06"} 3
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="4.096e-06"} 3 # {trace_id="3"} 3e-06 1.7000000002499998e+09
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.000131072"} 5 # {trace_id="4"} 7.0001e-05 1.7000000002499998e+09
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="+Inf"} 6 # {trace_id="5"} 35184.372088832 1.7000000002499998e+09
lbkeogh_store_fetch_duration_seconds_sum{temperature="cold"} 35184.372230734
lbkeogh_store_fetch_duration_seconds_count{temperature="cold"} 6
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="1e-09"} 1
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="1.024e-06"} 3
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.000131072"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="+Inf"} 6
lbkeogh_store_read_duration_seconds_sum{column="raw",temperature="warm"} 35184.372230734
lbkeogh_store_read_duration_seconds_count{column="raw",temperature="warm"} 6
`

func TestWriteHistogramGolden(t *testing.T) {
	var h obs.Histogram
	for _, v := range []int64{1, 900, 1000, 70000, 70001, 1 << 45} {
		h.Observe(v)
	}
	r := NewRecorder(Config{})
	wall := time.Unix(1700000000, 250000000)
	r.ex[tempCold][12] = fetchExemplar{traceID: 3, durNS: 3000, wall: wall}
	r.ex[tempCold][17] = fetchExemplar{traceID: 4, durNS: 70001, wall: wall}
	r.ex[tempCold][obs.HistogramBuckets] = fetchExemplar{traceID: 5, durNS: 1 << 45, wall: wall}
	var buf bytes.Buffer
	ops.WriteDurationHistogram(&buf, "lbkeogh_store_fetch_duration_seconds", `temperature="cold"`, &h, r.exemplars(tempCold))
	ops.WriteDurationHistogram(&buf, "lbkeogh_store_read_duration_seconds", `column="raw",temperature="warm"`, &h, nil)
	if got := buf.String(); got != storeHistogramsGolden {
		t.Errorf("WriteDurationHistogram:\n%s\nwant:\n%s", got, storeHistogramsGolden)
	}
}
