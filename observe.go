package lbkeogh

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

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
// every layer fills in, exactly as IndexHealth is: the public API needs no
// copy of the field list and no conversion.
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

// StageLatency is one pipeline stage's latency summary: exact observation
// count and nanosecond sum, the non-empty power-of-two buckets, and
// bucket-resolution quantiles (the bucket upper bound each quantile falls
// in; -1 means the overflow bucket).
type StageLatency = obs.StageLatency

// StatsSource is anything exposing an instrumentation snapshot: *Query,
// *Index and *Monitor all qualify.
type StatsSource interface {
	Stats() SearchStats
}

// MetricsHandler returns an http.Handler that renders the given sources in
// Prometheus text exposition format, one metric family per counter named
// `<name>_<field>` plus a `<name>_comparison_steps` histogram. Mount it at
// /metrics to scrape live pruning telemetry:
//
//	http.Handle("/metrics", lbkeogh.MetricsHandler(map[string]lbkeogh.StatsSource{
//	        "lbkeogh_query": q,
//	}))
func MetricsHandler(sources map[string]StatsSource) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		names := make([]string, 0, len(sources))
		for n := range sources {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			WriteMetrics(w, n, sources[n].Stats())
		}
	})
}

// WriteMetrics renders one stats snapshot under the given metric-name prefix
// in Prometheus text exposition format: every family carries its HELP and
// TYPE header, histograms emit every bucket of obs's power-of-two layout
// (one le set per family, at every scrape) cumulatively with a +Inf bucket
// equal to _count, and _sum values are the exact observed sums. The counter
// families come from the metrics table beside Counts, one per field.
func WriteMetrics(w io.Writer, name string, s SearchStats) {
	s.Each(func(key, help string, v int64) {
		ops.WriteCounter(w, name+"_"+key, help, v)
	})
	levels := name + "_wedge_prunes_by_level"
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
	if len(s.StageLatencies) > 0 {
		ops.WriteFamily(w, name+"_stage_latency_ns", "histogram", "Per-stage query latency in nanoseconds.")
		for _, sl := range s.StageLatencies {
			ops.WriteHistogram(w, name+"_stage_latency_ns", fmt.Sprintf("stage=%q", sl.Stage), ops.LayoutBuckets(sl.Buckets, decimal),
				strconv.FormatInt(sl.SumNS, 10))
		}
	}
}

func decimal(bound int64) string { return strconv.FormatInt(bound, 10) }

// expvar publication bookkeeping (expvar.Publish panics on duplicates).
var (
	expvarMu   sync.Mutex
	expvarSeen = map[string]bool{}
)

// PublishExpvar exposes a StatsSource under the given expvar name (visible
// at /debug/vars once expvar's handler is mounted). Re-publishing the same
// name is a no-op.
func PublishExpvar(name string, src StatsSource) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarSeen[name] {
		return
	}
	expvarSeen[name] = true
	expvar.Publish(name, expvar.Func(func() any { return src.Stats() }))
}
