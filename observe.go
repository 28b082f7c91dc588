package lbkeogh

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/ops"
)

// SearchStats is a point-in-time snapshot of a query's (or index's, or
// monitor's) instrumentation record: where the search spent its num_steps
// and how each rotation was disposed of. The scalar counters live in the
// embedded Counts, whose outcome buckets reconcile — for any snapshot,
//
//	Rotations = FullDistEvals + EarlyAbandons + WedgePrunedMembers
//	          + WedgeLeafLBPrunes + FFTRejectedMembers + CancelledMembers
//
// (SearchStats.Reconciles checks it), so pruning rates per bound can be read
// off directly — the breakdown the paper's Tables 1–3 and Section 5.3 are
// about. All counters are cumulative since the record was created or last
// reset.
//
// SearchStats and the four types below are aliases of the internal record
// every layer fills in: the public API needs no copy of the field list and
// no conversion.
type SearchStats = obs.Snapshot

// Counts is the scalar-counter record embedded in SearchStats (and carried
// as a per-span delta by traces): every counter once, with Add, Sub and the
// Reconciles identity.
type Counts = obs.Counts

// KChange is one dynamic-K controller adjustment: after Comparison
// comparisons the settled wedge-set size moved From -> To.
type KChange = obs.KChange

// HistogramBucket is one non-empty fixed bucket of a steps histogram;
// UpperBound is the bucket's inclusive upper bound (a power of two), or -1
// for the overflow bucket.
type HistogramBucket = obs.HistogramBucket

// HandleObs mounts the observability surface on mux: /metrics, which writes
// the given writers' families in the order given under the text exposition
// format's content type; /debug/lbkeogh, the trace log (a nil log answers
// 404); and net/http/pprof's five /debug/pprof/ routes. Both binaries mount
// theirs through it; a library user serves a query's counters and the log's
// stage latencies with
//
//	mux := http.NewServeMux()
//	lbkeogh.HandleObs(mux, tlog,
//	        func(w io.Writer) { lbkeogh.WriteMetrics(w, "myquery", q.Stats()) },
//	        func(w io.Writer) { tlog.WriteMetrics(w, "myquery") })
//
// net/http/pprof's init also registers the profiles on http.DefaultServeMux,
// so a program importing this package keeps them private by serving a mux
// of its own.
func HandleObs(mux *http.ServeMux, tlog *TraceLog, metrics ...func(io.Writer)) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, write := range metrics {
			write(w)
		}
	})
	mux.Handle("/debug/lbkeogh", tlog)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// WriteMetrics renders one stats snapshot under the given metric-name prefix
// in Prometheus text exposition format: every family carries its HELP and
// TYPE header, histograms emit every bucket of obs's power-of-two layout
// (one le set per family, at every scrape) cumulatively with a +Inf bucket
// equal to _count, and _sum values are the exact observed sums. The counter
// families come from the metrics table beside Counts, one per field.
func WriteMetrics(w io.Writer, name string, s SearchStats) {
	s.Each(func(key, help string, v int64) {
		ops.WriteCounter(w, name+"_"+key+"_total", help, v)
	})
	levels := name + "_wedge_prunes_by_level_total"
	headed := false
	for lvl, v := range s.WedgePrunesByLevel {
		if v == 0 {
			continue
		}
		if !headed {
			ops.WriteFamily(w, levels, "counter", "Internal-wedge prunes by dendrogram depth (0 = root).")
			headed = true
		}
		fmt.Fprintf(w, "%s{level=\"%d\"} %d\n", levels, lvl, v)
	}
	if len(s.StepsHistogram) > 0 {
		ops.WriteFamily(w, name+"_comparison_steps", "histogram", "Per-comparison num_steps distribution.")
		ops.WriteHistogram(w, name+"_comparison_steps", "", ops.LayoutBuckets(s.StepsHistogram, decimal),
			strconv.FormatInt(s.StepsHistogramSum, 10))
	}
}

func decimal(bound int64) string { return strconv.FormatInt(bound, 10) }
