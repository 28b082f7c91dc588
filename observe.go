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
// and how each rotation was disposed of. The outcome buckets reconcile —
// for any snapshot,
//
//	Rotations = FullDistEvals + EarlyAbandons + WedgePrunedMembers
//	          + WedgeLeafLBPrunes + FFTRejectedMembers + CancelledMembers
//
// so pruning rates per bound can be read off directly (the breakdown the
// paper's Tables 1–3 and Section 5.3 are about). All counters are cumulative
// since the record was created or last reset.
type SearchStats struct {
	// Comparisons counts rotation-invariant comparisons (one per database
	// series matched); Rotations the rotation-matrix rows they covered.
	Comparisons int64 `json:"comparisons"`
	Rotations   int64 `json:"rotations"`
	// Steps is the paper's num_steps metric: real-value subtractions.
	Steps int64 `json:"steps"`

	// FullDistEvals counts exact kernel distances computed to completion;
	// EarlyAbandons those cut short by the best-so-far.
	FullDistEvals int64 `json:"full_dist_evals"`
	EarlyAbandons int64 `json:"early_abandons"`

	// WedgeNodeVisits counts internal wedges whose children were explored;
	// WedgeLeafVisits rotations H-Merge reached individually;
	// WedgePrunedMembers rotations excluded wholesale by an internal-wedge
	// lower bound; WedgeLeafLBPrunes rotations excluded by their
	// singleton-wedge bound (warped measures only). WedgePrunesByLevel
	// breaks the internal-wedge prunes down by dendrogram depth (0 = root).
	WedgeNodeVisits    int64   `json:"wedge_node_visits"`
	WedgeLeafVisits    int64   `json:"wedge_leaf_visits"`
	WedgePrunedMembers int64   `json:"wedge_pruned_members"`
	WedgeLeafLBPrunes  int64   `json:"wedge_leaf_lb_prunes"`
	WedgePrunesByLevel []int64 `json:"wedge_prunes_by_level,omitempty"`

	// FFTRejects counts comparisons the Fourier-magnitude bound rejected
	// whole (FFTSearch only); FFTRejectedMembers the rotations they covered;
	// FFTFallbacks the comparisons that fell through to early abandoning.
	FFTRejects         int64 `json:"fft_rejects"`
	FFTRejectedMembers int64 `json:"fft_rejected_members"`
	FFTFallbacks       int64 `json:"fft_fallbacks"`

	// CancelledMembers counts rotations left undisposed when a context
	// cancellation (or deadline) stopped a Search*Context scan mid-way;
	// zero for uncancelled searches.
	CancelledMembers int64 `json:"cancelled_members,omitempty"`

	// IndexCandidates / IndexFetches / DiskReads are populated by indexed
	// searches: candidates surviving the compressed bound, full-resolution
	// fetches for verification, and record reads charged by the store.
	IndexCandidates int64 `json:"index_candidates"`
	IndexFetches    int64 `json:"index_fetches"`
	DiskReads       int64 `json:"disk_reads"`

	// KChanges counts dynamic wedge-set-size adjustments; KTrajectory is the
	// (bounded) sequence of them.
	KChanges    int64     `json:"k_changes"`
	KTrajectory []KChange `json:"k_trajectory,omitempty"`

	// PruneRate is the fraction of rotations disposed of without a full
	// distance evaluation; StepsPerComparison the paper's per-comparison
	// cost metric.
	PruneRate          float64 `json:"prune_rate"`
	StepsPerComparison float64 `json:"steps_per_comparison"`

	// StepsHistogram is the per-comparison num_steps distribution over
	// fixed power-of-two buckets (non-empty buckets only);
	// StepsHistogramSum its exact sum of observations, which the bucket
	// bounds alone cannot reconstruct. It can differ from Steps: the
	// histogram only sees per-comparison costs, while Steps also counts
	// work outside any comparison.
	StepsHistogram    []HistogramBucket `json:"steps_histogram,omitempty"`
	StepsHistogramSum int64             `json:"steps_histogram_sum,omitempty"`

	// StageLatencies holds per-stage wall-clock latency summaries, present
	// when a TraceLog is attached to the source.
	StageLatencies []StageLatency `json:"stage_latencies,omitempty"`
}

// KChange is one dynamic-K controller adjustment: after Comparison
// comparisons the settled wedge-set size moved From -> To.
type KChange struct {
	Comparison int64 `json:"comparison"`
	From       int   `json:"from"`
	To         int   `json:"to"`
}

// HistogramBucket is one non-empty fixed bucket of a steps histogram;
// UpperBound is the bucket's inclusive upper bound (a power of two), or -1
// for the overflow bucket.
type HistogramBucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// Reconciles reports whether the snapshot's outcome buckets account for
// every rotation covered — true for any record maintained by this library.
//
// Rotations are counted per comparison started. A search cancelled mid-scan
// adds the in-progress comparison's undisposed rotations to CancelledMembers
// and nothing for the candidates it never reached. A search whose context is
// already done before its first comparison (a deadline that expired while
// the request waited) therefore contributes nothing at all — no comparison,
// no rotation, no cancelled member — and the identity holds as 0 = 0.
func (s SearchStats) Reconciles() bool {
	return s.Rotations == s.FullDistEvals+s.EarlyAbandons+
		s.WedgePrunedMembers+s.WedgeLeafLBPrunes+s.FFTRejectedMembers+
		s.CancelledMembers
}

// Tracer receives fine-grained search events for debugging admissibility
// and pruning behavior: OnWedgeVisit for every wedge whose lower bound was
// evaluated, OnAbandon when an exact distance computation was cut short,
// OnKChange when the dynamic controller settles on a new wedge-set size,
// and OnFetch when an indexed search retrieves a full-resolution object.
// Install one with WithTracer (queries), Index.SetTracer, or
// Monitor.SetTracer. Implementations must be safe for concurrent calls when
// used with SearchParallel.
//
// Tracer is an alias of the internal interface, so a single implementation
// satisfies every layer and the public API needs no adapter types.
type Tracer = obs.Tracer

// Compile-time check: the alias really is the interface the internal layers
// consume (a Tracer value is an obs.Tracer value with no conversion).
var _ obs.Tracer = Tracer(nil)

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
// in Prometheus text exposition format: every family carries # HELP and
// # TYPE lines, histograms emit cumulative buckets with a +Inf bucket equal
// to _count, and _sum values are the exact observed sums.
func WriteMetrics(w io.Writer, name string, s SearchStats) {
	emit := func(field, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %d\n",
			name, field, help, name, field, name, field, v)
	}
	emit("comparisons", "Rotation-invariant comparisons (one per database series matched).", s.Comparisons)
	emit("rotations", "Rotation-matrix rows covered by the comparisons.", s.Rotations)
	emit("steps", "num_steps spent: real-value subtractions, the paper's cost metric.", s.Steps)
	emit("full_dist_evals", "Exact kernel distances computed to completion.", s.FullDistEvals)
	emit("early_abandons", "Exact distance computations cut short by the best-so-far.", s.EarlyAbandons)
	emit("wedge_node_visits", "Internal wedges whose children were explored.", s.WedgeNodeVisits)
	emit("wedge_leaf_visits", "Rotations H-Merge reached individually.", s.WedgeLeafVisits)
	emit("wedge_pruned_members", "Rotations excluded wholesale by an internal-wedge lower bound.", s.WedgePrunedMembers)
	emit("wedge_leaf_lb_prunes", "Rotations excluded by their singleton-wedge lower bound.", s.WedgeLeafLBPrunes)
	emit("fft_rejects", "Comparisons rejected whole by the Fourier-magnitude bound.", s.FFTRejects)
	emit("fft_rejected_members", "Rotations covered by FFT-rejected comparisons.", s.FFTRejectedMembers)
	emit("fft_fallbacks", "Comparisons falling through the FFT filter to early abandoning.", s.FFTFallbacks)
	emit("cancelled_members", "Rotations left undisposed by cancelled or deadline-bounded searches.", s.CancelledMembers)
	emit("index_candidates", "Index candidates surviving the compressed lower bound.", s.IndexCandidates)
	emit("index_fetches", "Full-resolution fetches for exact verification.", s.IndexFetches)
	emit("disk_reads", "Record reads charged by the series store.", s.DiskReads)
	emit("k_changes", "Dynamic wedge-set-size adjustments.", s.KChanges)
	var anyLevel bool
	for _, v := range s.WedgePrunesByLevel {
		if v != 0 {
			anyLevel = true
			break
		}
	}
	if anyLevel {
		fmt.Fprintf(w, "# HELP %s_wedge_prunes_by_level Internal-wedge prunes by dendrogram depth (0 = root).\n", name)
		fmt.Fprintf(w, "# TYPE %s_wedge_prunes_by_level counter\n", name)
		for lvl, v := range s.WedgePrunesByLevel {
			if v != 0 {
				fmt.Fprintf(w, "%s_wedge_prunes_by_level{level=\"%d\"} %d\n", name, lvl, v)
			}
		}
	}
	if len(s.StepsHistogram) > 0 {
		fmt.Fprintf(w, "# HELP %s_comparison_steps Per-comparison num_steps distribution.\n", name)
		fmt.Fprintf(w, "# TYPE %s_comparison_steps histogram\n", name)
		ops.WriteHistogram(w, name+"_comparison_steps", "", expoBuckets(s.StepsHistogram),
			strconv.FormatInt(s.StepsHistogramSum, 10), false)
	}
	if len(s.StageLatencies) > 0 {
		fmt.Fprintf(w, "# HELP %s_stage_latency_ns Per-stage query latency in nanoseconds.\n", name)
		fmt.Fprintf(w, "# TYPE %s_stage_latency_ns histogram\n", name)
		for _, sl := range s.StageLatencies {
			ops.WriteHistogram(w, name+"_stage_latency_ns", fmt.Sprintf("stage=%q", sl.Stage), expoBuckets(sl.Buckets),
				strconv.FormatInt(sl.SumNS, 10), false)
		}
	}
}

// expoBuckets lays a snapshot's non-empty buckets out for ops.WriteHistogram:
// the finite bounds in order, then the overflow bucket (UpperBound -1),
// whether or not the snapshot has one.
func expoBuckets(in []HistogramBucket) []ops.HistogramBucket {
	out := make([]ops.HistogramBucket, 0, len(in)+1)
	var overflow int64
	for _, b := range in {
		if b.UpperBound < 0 {
			overflow += b.Count
			continue
		}
		out = append(out, ops.HistogramBucket{LE: strconv.FormatInt(b.UpperBound, 10), Count: b.Count})
	}
	return append(out, ops.HistogramBucket{Count: overflow})
}

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

// statsFromSnapshot converts the internal snapshot to the public record.
func statsFromSnapshot(sn obs.Snapshot) SearchStats {
	out := SearchStats{
		Comparisons:        sn.Comparisons,
		Rotations:          sn.Rotations,
		Steps:              sn.Steps,
		FullDistEvals:      sn.FullDistEvals,
		EarlyAbandons:      sn.EarlyAbandons,
		WedgeNodeVisits:    sn.WedgeNodeVisits,
		WedgeLeafVisits:    sn.WedgeLeafVisits,
		WedgePrunedMembers: sn.WedgePrunedMembers,
		WedgeLeafLBPrunes:  sn.WedgeLeafLBPrunes,
		WedgePrunesByLevel: sn.WedgePrunesByLevel,
		FFTRejects:         sn.FFTRejects,
		FFTRejectedMembers: sn.FFTRejectedMembers,
		FFTFallbacks:       sn.FFTFallbacks,
		CancelledMembers:   sn.CancelledMembers,
		IndexCandidates:    sn.IndexCandidates,
		IndexFetches:       sn.IndexFetches,
		DiskReads:          sn.DiskReads,
		KChanges:           sn.KChanges,
		PruneRate:          sn.PruneRate,
		StepsPerComparison: sn.StepsPerComparison,
	}
	if len(sn.KTrajectory) > 0 {
		out.KTrajectory = make([]KChange, len(sn.KTrajectory))
		for i, k := range sn.KTrajectory {
			out.KTrajectory[i] = KChange{Comparison: k.Comparison, From: k.From, To: k.To}
		}
	}
	if len(sn.StepsHistogram) > 0 {
		out.StepsHistogram = make([]HistogramBucket, len(sn.StepsHistogram))
		for i, b := range sn.StepsHistogram {
			out.StepsHistogram[i] = HistogramBucket{UpperBound: b.UpperBound, Count: b.Count}
		}
		out.StepsHistogramSum = sn.StepsHistogramSum
	}
	return out
}
