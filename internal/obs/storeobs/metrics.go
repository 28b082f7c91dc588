package storeobs

import (
	"fmt"
	"io"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/ops"
)

// WriteMetrics emits the lbkeogh_store_* families in Prometheus/OpenMetrics
// text form: cold/warm fetch counters and duration histograms (with trace
// exemplars on slow/cold buckets), per-column read histograms and totals,
// read-amplification accounting, the rolling fetch window, and the journal's
// per-kind event counters. Per-segment families are the server's
// (shapeserver_segment_*); this is the store-process view.
func (r *Recorder) WriteMetrics(w io.Writer) {
	if r == nil {
		return
	}
	t := r.Totals()

	ops.WriteFamily(w, "lbkeogh_store_fetches_total", "counter",
		"Record fetches served by the segment store, by page temperature (cold = the fetch first-touched at least one page).")
	fmt.Fprintf(w, "lbkeogh_store_fetches_total{temperature=\"cold\"} %d\n", t.ColdFetches)
	fmt.Fprintf(w, "lbkeogh_store_fetches_total{temperature=\"warm\"} %d\n", t.WarmFetches)

	ops.WriteFamily(w, "lbkeogh_store_fetch_duration_seconds", "histogram",
		"Store fetch wall time by temperature; slow and cold buckets carry exemplars linking to retained trace IDs.")
	for temp := numTemps - 1; temp >= 0; temp-- { // cold first
		ops.WriteDurationHistogram(w, "lbkeogh_store_fetch_duration_seconds",
			fmt.Sprintf("temperature=%q", tempNames[temp]), &r.fetchHist[temp], r.exemplars(temp))
	}

	ops.WriteFamily(w, "lbkeogh_store_read_duration_seconds", "histogram",
		"Backend column read wall time (page faults forced inside the timed region), by column and temperature.")
	for col := 0; col < NumColumns; col++ {
		for temp := numTemps - 1; temp >= 0; temp-- {
			h := &r.colHist[col][temp]
			if h.Count() == 0 {
				continue
			}
			ops.WriteDurationHistogram(w, "lbkeogh_store_read_duration_seconds",
				fmt.Sprintf("column=%q,temperature=%q", columnNames[col], tempNames[temp]), h, nil)
		}
	}

	var colReads, colBytes [NumColumns]int64
	for _, s := range r.Segments() {
		for c := 0; c < NumColumns; c++ {
			colReads[c] += s.Reads[c]
			colBytes[c] += s.Bytes[c]
		}
	}
	ops.WriteFamily(w, "lbkeogh_store_column_reads_total", "counter",
		"Backend reads by column, summed over live segments.")
	for c := 0; c < NumColumns; c++ {
		fmt.Fprintf(w, "lbkeogh_store_column_reads_total{column=%q} %d\n", columnNames[c], colReads[c])
	}
	ops.WriteFamily(w, "lbkeogh_store_column_read_bytes_total", "counter",
		"Bytes logically read by column, summed over live segments.")
	for c := 0; c < NumColumns; c++ {
		fmt.Fprintf(w, "lbkeogh_store_column_read_bytes_total{column=%q} %d\n", columnNames[c], colBytes[c])
	}

	ops.WriteCounter(w, "lbkeogh_store_requested_bytes_total",
		"Bytes logically requested from segment backends.", t.RequestedBytes)
	ops.WriteCounter(w, "lbkeogh_store_faulted_pages_total",
		"Pages first-touched by segment reads (4KiB accounting pages).", t.FaultedPages)
	ops.WriteGaugeFloat(w, "lbkeogh_store_read_amplification",
		"First-touched page bytes over logically requested bytes.", t.ReadAmplification())

	ops.WriteFamily(w, "lbkeogh_store_window_fetches", "gauge",
		"Store fetches inside the rolling window, by temperature.")
	coldSnap, warmSnap := r.window[tempCold].Snapshot(), r.window[tempWarm].Snapshot()
	fmt.Fprintf(w, "lbkeogh_store_window_fetches{temperature=\"cold\"} %d\n", coldSnap.Requests)
	fmt.Fprintf(w, "lbkeogh_store_window_fetches{temperature=\"warm\"} %d\n", warmSnap.Requests)
	ops.WriteFamily(w, "lbkeogh_store_window_fetch_p99_seconds", "gauge",
		"Bucket-resolution p99 store fetch latency inside the rolling window, by temperature.")
	fmt.Fprintf(w, "lbkeogh_store_window_fetch_p99_seconds{temperature=\"cold\"} %s\n", formatQuantileNS(coldSnap.P99NS))
	fmt.Fprintf(w, "lbkeogh_store_window_fetch_p99_seconds{temperature=\"warm\"} %s\n", formatQuantileNS(warmSnap.P99NS))

	ops.WriteFamily(w, "lbkeogh_store_journal_events_total", "counter",
		"Storage event journal entries by kind; reconciles with the store's ingest/compaction counters.")
	counts := r.Journal().Counts()
	for _, kind := range EventKinds {
		fmt.Fprintf(w, "lbkeogh_store_journal_events_total{kind=%q} %d\n", kind, counts[kind])
	}
}

// formatQuantileNS renders a bucket-resolution quantile (ns) as seconds; the
// overflow marker (-1) clamps to the largest finite bucket bound.
func formatQuantileNS(ns int64) string {
	if ns < 0 {
		ns = obs.BucketBound(obs.HistogramBuckets - 1)
	}
	return ops.FormatFloat(float64(ns) / 1e9)
}
