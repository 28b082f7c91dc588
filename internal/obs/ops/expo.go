package ops

import (
	"fmt"
	"io"
	"strconv"
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
	var cum int64
	for i, b := range buckets {
		cum += b.Count
		le := b.LE
		if i == len(buckets)-1 {
			le = "+Inf"
		} else if elide && i > 0 && b.Count == 0 && b.Exemplar == "" {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d", name, labels, sep, le, cum)
		if b.Exemplar != "" {
			fmt.Fprintf(w, " # %s", b.Exemplar)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", name, braced, sum, name, braced, cum)
}

// FormatFloat renders a sample value the exposition parsers accept,
// including NaN (used for histogram sums that have no exact value, matching
// the Prometheus client convention for runtime/metrics histograms).
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
