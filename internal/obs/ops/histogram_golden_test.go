package ops

import (
	"bytes"
	"math"
	"runtime/metrics"
	"testing"
)

// Captured at commit 0bf7dc8, before the bucket loop moved into
// WriteHistogram.
const runtimeHistogramGolden = `# HELP shapeserver_go_gc_pause_seconds GC pauses.
# TYPE shapeserver_go_gc_pause_seconds histogram
shapeserver_go_gc_pause_seconds_bucket{le="1e-09"} 0
shapeserver_go_gc_pause_seconds_bucket{le="1e-06"} 3
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
