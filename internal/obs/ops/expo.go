package ops

import (
	"fmt"
	"io"
	"strconv"

	"lbkeogh/internal/obs"
)

// WriteFamily writes one family's # HELP and # TYPE header in Prometheus
// text exposition format (0.0.4). Sample lines follow from the caller. Every
// family the serving layer exports funnels its name through WriteFamily or
// one of the Write* helpers below.
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
	LE    string // the le label value; ignored on the last bucket, which is +Inf
	Count int64  // observations in this bucket alone, not cumulative
}

// WriteHistogram writes one histogram series' sample lines (the family header
// is WriteFamily's): cumulative _bucket lines, then _sum and _count. buckets
// ascend by bound and the last one is the overflow bucket, written as
// le="+Inf" with the same total as _count. labels (`k="v",…`, or empty) are
// repeated on every line; sum is preformatted because families differ in its
// unit and type. Every bucket is written, empty or not, so a series keeps one
// le set from scrape to scrape.
func WriteHistogram(w io.Writer, name, labels string, buckets []HistogramBucket, sum string) {
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
		}
		line = append(line, name...)
		line = append(line, "_bucket{"...)
		line = append(line, labels...)
		line = append(line, sep...)
		line = append(line, "le="...)
		line = strconv.AppendQuote(line, le)
		line = append(line, "} "...)
		line = strconv.AppendInt(line, cum, 10)
		line = append(line, '\n')
	}
	w.Write(line) //nolint:errcheck // an exposition write error surfaces as a truncated scrape
	fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", name, braced, sum, name, braced, cum)
}

// LayoutBuckets lays a snapshot of obs's fixed power-of-two layout (its
// non-empty buckets, as obs.Histogram.Buckets returns them) out for
// WriteHistogram: every bucket of the layout, empty or not, the overflow
// bucket last. Each series of a family then has the same le set at every
// scrape, which a scraper summing by le across series, or taking a ratio at
// one le, depends on. le renders a finite bucket's upper bound.
func LayoutBuckets(snap []obs.HistogramBucket, le func(bound int64) string) []HistogramBucket {
	out := make([]HistogramBucket, obs.HistogramBuckets+1)
	for i := range obs.HistogramBuckets {
		out[i].LE = le(obs.BucketBound(i))
	}
	for _, b := range snap {
		i := obs.HistogramBuckets // bound -1: the overflow bucket
		if b.UpperBound >= 0 {
			i = obs.BucketIndex(b.UpperBound)
		}
		out[i].Count += b.Count
	}
	return out
}

// WriteDurationHistogram writes a snapshot of an obs.Histogram of nanosecond
// durations (its non-empty buckets and its exact sum) as a histogram series
// in seconds, every bucket of the layout written.
func WriteDurationHistogram(w io.Writer, name, labels string, buckets []obs.HistogramBucket, sumNS int64) {
	WriteHistogram(w, name, labels, LayoutBuckets(buckets, seconds), seconds(sumNS))
}

func seconds(ns int64) string { return FormatFloat(float64(ns) / 1e9) }

// FormatFloat renders a sample value the exposition parsers accept,
// including NaN (used for histogram sums that have no exact value, matching
// the Prometheus client convention for runtime/metrics histograms).
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
