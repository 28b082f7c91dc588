package ops

import (
	"bytes"
	"math"
	"runtime/metrics"
	"testing"

	"lbkeogh/internal/obs"
)

// Captured at commit 0bf7dc8, before the bucket loop moved into
// WriteHistogram; it gained the empty interior buckets (le 0.001 and 0.5)
// when runtime histograms stopped eliding them, so the le set is the
// runtime's at every scrape. Every other line is the bytes captured then.
const runtimeHistogramGolden = `# HELP shapeserver_go_gc_pause_seconds GC pauses.
# TYPE shapeserver_go_gc_pause_seconds histogram
shapeserver_go_gc_pause_seconds_bucket{le="1e-09"} 0
shapeserver_go_gc_pause_seconds_bucket{le="1e-06"} 3
shapeserver_go_gc_pause_seconds_bucket{le="0.001"} 3
shapeserver_go_gc_pause_seconds_bucket{le="0.5"} 3
shapeserver_go_gc_pause_seconds_bucket{le="2"} 5
shapeserver_go_gc_pause_seconds_bucket{le="+Inf"} 6
shapeserver_go_gc_pause_seconds_sum NaN
shapeserver_go_gc_pause_seconds_count 6
`

func TestRuntimeHistogramGolden(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{0, 3, 0, 0, 2, 1},
		Buckets: []float64{math.Inf(-1), 1e-9, 1e-6, 1e-3, 0.5, 2, math.Inf(1)},
	}
	var buf bytes.Buffer
	writeRuntimeHistogram(&buf, "shapeserver_go_gc_pause_seconds", "GC pauses.", h)
	if got := buf.String(); got != runtimeHistogramGolden {
		t.Errorf("writeRuntimeHistogram:\n%s\nwant:\n%s", got, runtimeHistogramGolden)
	}
}

// Captured at commit 0bf7dc8 from the segment store's fetch and column-read
// histograms (since removed), before the bucket loop moved into
// WriteHistogram; it moved on into WriteDurationHistogram, which the serving
// layer's request histogram shares, and gained the empty interior buckets
// when that stopped eliding them (one le set per family), then lost the
// OpenMetrics trace-ID suffixes the 0.0.4 format has no syntax for. Every
// non-empty bucket's line is otherwise the bytes captured then.
const durationHistogramGolden = `lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="1e-09"} 1
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="2e-09"} 1
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="4e-09"} 1
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="8e-09"} 1
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="1.6e-08"} 1
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="3.2e-08"} 1
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="6.4e-08"} 1
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="1.28e-07"} 1
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="2.56e-07"} 1
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="5.12e-07"} 1
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="1.024e-06"} 3
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="2.048e-06"} 3
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="4.096e-06"} 3
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="8.192e-06"} 3
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="1.6384e-05"} 3
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="3.2768e-05"} 3
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="6.5536e-05"} 3
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.000131072"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.000262144"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.000524288"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.001048576"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.002097152"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.004194304"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.008388608"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.016777216"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.033554432"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.067108864"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.134217728"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.268435456"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="0.536870912"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="1.073741824"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="2.147483648"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="4.294967296"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="8.589934592"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="17.179869184"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="34.359738368"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="68.719476736"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="137.438953472"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="274.877906944"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="549.755813888"} 5
lbkeogh_store_fetch_duration_seconds_bucket{temperature="cold",le="+Inf"} 6
lbkeogh_store_fetch_duration_seconds_sum{temperature="cold"} 35184.372230734
lbkeogh_store_fetch_duration_seconds_count{temperature="cold"} 6
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="1e-09"} 1
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="2e-09"} 1
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="4e-09"} 1
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="8e-09"} 1
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="1.6e-08"} 1
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="3.2e-08"} 1
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="6.4e-08"} 1
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="1.28e-07"} 1
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="2.56e-07"} 1
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="5.12e-07"} 1
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="1.024e-06"} 3
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="2.048e-06"} 3
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="4.096e-06"} 3
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="8.192e-06"} 3
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="1.6384e-05"} 3
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="3.2768e-05"} 3
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="6.5536e-05"} 3
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.000131072"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.000262144"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.000524288"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.001048576"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.002097152"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.004194304"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.008388608"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.016777216"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.033554432"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.067108864"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.134217728"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.268435456"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="0.536870912"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="1.073741824"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="2.147483648"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="4.294967296"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="8.589934592"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="17.179869184"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="34.359738368"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="68.719476736"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="137.438953472"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="274.877906944"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="549.755813888"} 5
lbkeogh_store_read_duration_seconds_bucket{column="raw",temperature="warm",le="+Inf"} 6
lbkeogh_store_read_duration_seconds_sum{column="raw",temperature="warm"} 35184.372230734
lbkeogh_store_read_duration_seconds_count{column="raw",temperature="warm"} 6
`

func TestWriteDurationHistogramGolden(t *testing.T) {
	var h obs.Histogram
	for _, v := range []int64{1, 900, 1000, 70000, 70001, 1 << 45} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	WriteDurationHistogram(&buf, "lbkeogh_store_fetch_duration_seconds", `temperature="cold"`, h.Buckets(), h.Sum())
	WriteDurationHistogram(&buf, "lbkeogh_store_read_duration_seconds", `column="raw",temperature="warm"`, h.Buckets(), h.Sum())
	if got := buf.String(); got != durationHistogramGolden {
		t.Errorf("WriteDurationHistogram:\n%s\nwant:\n%s", got, durationHistogramGolden)
	}
}
