package ops

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"lbkeogh/internal/obs"
)

// WriteFamily writes one family's # HELP and # TYPE header in Prometheus
// text exposition format (0.0.4). Sample lines follow from the caller. Every
// family the serving layer exports funnels its name through WriteFamily or
// one of the Write* helpers below; the metricnames analyzer checks the name
// literal at each call site.
func WriteFamily(w io.Writer, name, kind, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// WriteCounter writes a complete single-sample counter family.
func WriteCounter(w io.Writer, name, help string, v int64) {
	WriteFamily(w, name, "counter", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// WriteGaugeInt writes a complete single-sample integer gauge family.
func WriteGaugeInt(w io.Writer, name, help string, v int64) {
	WriteFamily(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// WriteGaugeFloat writes a complete single-sample float gauge family.
func WriteGaugeFloat(w io.Writer, name, help string, v float64) {
	WriteFamily(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %s\n", name, FormatFloat(v))
}

// HistogramBucket is one bucket of a WriteHistogram series.
type HistogramBucket struct {
	LE       string // the le label value; ignored on the last bucket, which is +Inf
	Count    int64  // observations in this bucket alone, not cumulative
	Exemplar string // OpenMetrics exemplar text following "# ", or empty
}

// WriteHistogram writes one histogram series' sample lines (the family header
// is WriteFamily's): cumulative _bucket lines, then _sum and _count. buckets
// ascend by bound and the last one is the overflow bucket, written as
// le="+Inf" with the same total as _count. labels (`k="v",…`, or empty) are
// repeated on every line; sum is preformatted because families differ in its
// unit and type. With elide, an interior bucket that holds nothing and has no
// exemplar is skipped — never the first, so an idle series still has a finite
// bucket.
func WriteHistogram(w io.Writer, name, labels string, buckets []HistogramBucket, sum string, elide bool) {
	sep, braced := "", ""
	if labels != "" {
		sep, braced = ",", "{"+labels+"}"
	}
	// One buffer and one Write per series: a fixed-layout series is dozens
	// of lines, and an Fprintf per line cost a third of a server's scrape.
	line := make([]byte, 0, len(buckets)*(len(name)+len(labels)+48))
	var cum int64
	for i, b := range buckets {
		cum += b.Count
		le := b.LE
		if i == len(buckets)-1 {
			le = "+Inf"
		} else if elide && i > 0 && b.Count == 0 && b.Exemplar == "" {
			continue
		}
		line = append(line, name...)
		line = append(line, "_bucket{"...)
		line = append(line, labels...)
		line = append(line, sep...)
		line = append(line, "le="...)
		line = strconv.AppendQuote(line, le)
		line = append(line, "} "...)
		line = strconv.AppendInt(line, cum, 10)
		if b.Exemplar != "" {
			line = append(line, " # "...)
			line = append(line, b.Exemplar...)
		}
		line = append(line, '\n')
	}
	w.Write(line) //nolint:errcheck // an exposition write error surfaces as a truncated scrape
	fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", name, braced, sum, name, braced, cum)
}

// WriteDurationHistogram writes one obs.Histogram of nanosecond durations as
// a histogram series in seconds — the one renderer of every duration family
// that carries exemplars. ex, when non-nil, holds each bucket's exemplar text
// (FormatExemplar; empty for none), indexed like the histogram with the
// overflow bucket last. Every bucket is written, empty or not: each series of
// a family then has the same le set at every scrape, which a scraper summing
// by le across series, or taking a ratio at one le, depends on.
func WriteDurationHistogram(w io.Writer, name, labels string, h *obs.Histogram, ex *[obs.HistogramBuckets + 1]string) {
	var buckets [obs.HistogramBuckets + 1]HistogramBucket
	for i := range buckets {
		buckets[i].LE = FormatFloat(float64(obs.BucketBound(i)) / 1e9)
		if ex != nil {
			buckets[i].Exemplar = ex[i]
		}
	}
	for _, b := range h.Buckets() {
		i := obs.HistogramBuckets // bound -1: the overflow bucket
		if b.UpperBound >= 0 {
			i = obs.BucketIndex(b.UpperBound)
		}
		buckets[i].Count = b.Count
	}
	WriteHistogram(w, name, labels, buckets[:], FormatFloat(float64(h.Sum())/1e9), false)
}

// FormatExemplar renders a trace-ID exemplar in OpenMetrics form: the label
// set, the traced observation's duration in seconds and its wall time.
func FormatExemplar(traceID, durNS int64, wall time.Time) string {
	return fmt.Sprintf("{trace_id=\"%d\"} %s %s", traceID,
		FormatFloat(float64(durNS)/1e9), FormatFloat(float64(wall.UnixNano())/1e9))
}

// FormatFloat renders a sample value the exposition parsers accept,
// including NaN (used for histogram sums that have no exact value, matching
// the Prometheus client convention for runtime/metrics histograms).
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
