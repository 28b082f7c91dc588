package lbkeogh

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lbkeogh/internal/obs/explain"
)

// The golden strings below were captured before the code they pin was
// restructured — the histogram text at commit 0bf7dc8 (before the hand-rolled
// bucket loops moved into ops.WriteHistogram), the counter text and the JSON
// key sets at f4cccf4 (before the counters were listed once in obs.Counts):
// /metrics text is byte-identical and the stats JSON key set unchanged for a
// fixed snapshot. Since then the histograms write every bucket of the fixed
// layout, not only the non-empty ones (one le set per family, at every
// scrape), the index_fetches counter is the only index counter, and the
// tightness histogram's lines lost their OpenMetrics trace-ID suffixes. Every
// other line, and every non-empty bucket's line, is the bytes captured then.

const observeMetricsGolden = `# HELP x_comparisons Rotation-invariant comparisons (one per database series matched).
# TYPE x_comparisons counter
x_comparisons 101
# HELP x_rotations Rotation-matrix rows covered by the comparisons.
# TYPE x_rotations counter
x_rotations 102
# HELP x_steps num_steps spent: real-value subtractions, the paper's cost metric.
# TYPE x_steps counter
x_steps 103
# HELP x_full_dist_evals Exact kernel distances computed to completion.
# TYPE x_full_dist_evals counter
x_full_dist_evals 104
# HELP x_early_abandons Exact distance computations cut short by the best-so-far.
# TYPE x_early_abandons counter
x_early_abandons 105
# HELP x_wedge_node_visits Internal wedges whose children were explored.
# TYPE x_wedge_node_visits counter
x_wedge_node_visits 106
# HELP x_wedge_leaf_visits Rotations H-Merge reached individually.
# TYPE x_wedge_leaf_visits counter
x_wedge_leaf_visits 107
# HELP x_wedge_pruned_members Rotations excluded wholesale by an internal-wedge lower bound.
# TYPE x_wedge_pruned_members counter
x_wedge_pruned_members 108
# HELP x_wedge_leaf_lb_prunes Rotations excluded by their singleton-wedge lower bound.
# TYPE x_wedge_leaf_lb_prunes counter
x_wedge_leaf_lb_prunes 109
# HELP x_fft_rejects Comparisons rejected whole by the Fourier-magnitude bound.
# TYPE x_fft_rejects counter
x_fft_rejects 110
# HELP x_fft_rejected_members Rotations covered by FFT-rejected comparisons.
# TYPE x_fft_rejected_members counter
x_fft_rejected_members 111
# HELP x_fft_fallbacks Comparisons falling through the FFT filter to early abandoning.
# TYPE x_fft_fallbacks counter
x_fft_fallbacks 112
# HELP x_cancelled_members Rotations left undisposed by cancelled or deadline-bounded searches.
# TYPE x_cancelled_members counter
x_cancelled_members 113
# HELP x_index_fetches Full-resolution fetches for exact verification.
# TYPE x_index_fetches counter
x_index_fetches 115
# HELP x_k_changes Dynamic wedge-set-size adjustments.
# TYPE x_k_changes counter
x_k_changes 117
# HELP x_wedge_prunes_by_level Internal-wedge prunes by dendrogram depth (0 = root).
# TYPE x_wedge_prunes_by_level counter
x_wedge_prunes_by_level{level="0"} 3
x_wedge_prunes_by_level{level="2"} 5
# HELP x_comparison_steps Per-comparison num_steps distribution.
# TYPE x_comparison_steps histogram
x_comparison_steps_bucket{le="1"} 0
x_comparison_steps_bucket{le="2"} 0
x_comparison_steps_bucket{le="4"} 2
x_comparison_steps_bucket{le="8"} 2
x_comparison_steps_bucket{le="16"} 2
x_comparison_steps_bucket{le="32"} 2
x_comparison_steps_bucket{le="64"} 7
x_comparison_steps_bucket{le="128"} 7
x_comparison_steps_bucket{le="256"} 7
x_comparison_steps_bucket{le="512"} 7
x_comparison_steps_bucket{le="1024"} 7
x_comparison_steps_bucket{le="2048"} 7
x_comparison_steps_bucket{le="4096"} 7
x_comparison_steps_bucket{le="8192"} 7
x_comparison_steps_bucket{le="16384"} 7
x_comparison_steps_bucket{le="32768"} 7
x_comparison_steps_bucket{le="65536"} 7
x_comparison_steps_bucket{le="131072"} 7
x_comparison_steps_bucket{le="262144"} 7
x_comparison_steps_bucket{le="524288"} 7
x_comparison_steps_bucket{le="1048576"} 7
x_comparison_steps_bucket{le="2097152"} 7
x_comparison_steps_bucket{le="4194304"} 7
x_comparison_steps_bucket{le="8388608"} 7
x_comparison_steps_bucket{le="16777216"} 7
x_comparison_steps_bucket{le="33554432"} 7
x_comparison_steps_bucket{le="67108864"} 7
x_comparison_steps_bucket{le="134217728"} 7
x_comparison_steps_bucket{le="268435456"} 7
x_comparison_steps_bucket{le="536870912"} 7
x_comparison_steps_bucket{le="1073741824"} 7
x_comparison_steps_bucket{le="2147483648"} 7
x_comparison_steps_bucket{le="4294967296"} 7
x_comparison_steps_bucket{le="8589934592"} 7
x_comparison_steps_bucket{le="17179869184"} 7
x_comparison_steps_bucket{le="34359738368"} 7
x_comparison_steps_bucket{le="68719476736"} 7
x_comparison_steps_bucket{le="137438953472"} 7
x_comparison_steps_bucket{le="274877906944"} 7
x_comparison_steps_bucket{le="549755813888"} 7
x_comparison_steps_bucket{le="+Inf"} 8
x_comparison_steps_sum 1234
x_comparison_steps_count 8
# HELP x_stage_latency_ns Per-stage query latency in nanoseconds.
# TYPE x_stage_latency_ns histogram
x_stage_latency_ns_bucket{stage="fetch",le="1"} 0
x_stage_latency_ns_bucket{stage="fetch",le="2"} 0
x_stage_latency_ns_bucket{stage="fetch",le="4"} 0
x_stage_latency_ns_bucket{stage="fetch",le="8"} 0
x_stage_latency_ns_bucket{stage="fetch",le="16"} 0
x_stage_latency_ns_bucket{stage="fetch",le="32"} 0
x_stage_latency_ns_bucket{stage="fetch",le="64"} 0
x_stage_latency_ns_bucket{stage="fetch",le="128"} 1
x_stage_latency_ns_bucket{stage="fetch",le="256"} 1
x_stage_latency_ns_bucket{stage="fetch",le="512"} 3
x_stage_latency_ns_bucket{stage="fetch",le="1024"} 3
x_stage_latency_ns_bucket{stage="fetch",le="2048"} 3
x_stage_latency_ns_bucket{stage="fetch",le="4096"} 3
x_stage_latency_ns_bucket{stage="fetch",le="8192"} 3
x_stage_latency_ns_bucket{stage="fetch",le="16384"} 3
x_stage_latency_ns_bucket{stage="fetch",le="32768"} 3
x_stage_latency_ns_bucket{stage="fetch",le="65536"} 3
x_stage_latency_ns_bucket{stage="fetch",le="131072"} 3
x_stage_latency_ns_bucket{stage="fetch",le="262144"} 3
x_stage_latency_ns_bucket{stage="fetch",le="524288"} 3
x_stage_latency_ns_bucket{stage="fetch",le="1048576"} 3
x_stage_latency_ns_bucket{stage="fetch",le="2097152"} 3
x_stage_latency_ns_bucket{stage="fetch",le="4194304"} 3
x_stage_latency_ns_bucket{stage="fetch",le="8388608"} 3
x_stage_latency_ns_bucket{stage="fetch",le="16777216"} 3
x_stage_latency_ns_bucket{stage="fetch",le="33554432"} 3
x_stage_latency_ns_bucket{stage="fetch",le="67108864"} 3
x_stage_latency_ns_bucket{stage="fetch",le="134217728"} 3
x_stage_latency_ns_bucket{stage="fetch",le="268435456"} 3
x_stage_latency_ns_bucket{stage="fetch",le="536870912"} 3
x_stage_latency_ns_bucket{stage="fetch",le="1073741824"} 3
x_stage_latency_ns_bucket{stage="fetch",le="2147483648"} 3
x_stage_latency_ns_bucket{stage="fetch",le="4294967296"} 3
x_stage_latency_ns_bucket{stage="fetch",le="8589934592"} 3
x_stage_latency_ns_bucket{stage="fetch",le="17179869184"} 3
x_stage_latency_ns_bucket{stage="fetch",le="34359738368"} 3
x_stage_latency_ns_bucket{stage="fetch",le="68719476736"} 3
x_stage_latency_ns_bucket{stage="fetch",le="137438953472"} 3
x_stage_latency_ns_bucket{stage="fetch",le="274877906944"} 3
x_stage_latency_ns_bucket{stage="fetch",le="549755813888"} 3
x_stage_latency_ns_bucket{stage="fetch",le="+Inf"} 3
x_stage_latency_ns_sum{stage="fetch"} 700
x_stage_latency_ns_count{stage="fetch"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="1"} 0
x_stage_latency_ns_bucket{stage="disk_read",le="2"} 0
x_stage_latency_ns_bucket{stage="disk_read",le="4"} 0
x_stage_latency_ns_bucket{stage="disk_read",le="8"} 0
x_stage_latency_ns_bucket{stage="disk_read",le="16"} 0
x_stage_latency_ns_bucket{stage="disk_read",le="32"} 0
x_stage_latency_ns_bucket{stage="disk_read",le="64"} 0
x_stage_latency_ns_bucket{stage="disk_read",le="128"} 0
x_stage_latency_ns_bucket{stage="disk_read",le="256"} 0
x_stage_latency_ns_bucket{stage="disk_read",le="512"} 0
x_stage_latency_ns_bucket{stage="disk_read",le="1024"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="2048"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="4096"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="8192"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="16384"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="32768"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="65536"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="131072"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="262144"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="524288"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="1048576"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="2097152"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="4194304"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="8388608"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="16777216"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="33554432"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="67108864"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="134217728"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="268435456"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="536870912"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="1073741824"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="2147483648"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="4294967296"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="8589934592"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="17179869184"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="34359738368"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="68719476736"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="137438953472"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="274877906944"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="549755813888"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="+Inf"} 4
x_stage_latency_ns_sum{stage="disk_read"} 9000
x_stage_latency_ns_count{stage="disk_read"} 4
`

// The sorted JSON keys of goldenStats() and of the zero SearchStats: the
// scalar counters are present when zero, except cancelled_members.
var (
	statsJSONKeysGolden     = []string{"cancelled_members", "comparisons", "early_abandons", "fft_fallbacks", "fft_rejected_members", "fft_rejects", "full_dist_evals", "index_fetches", "k_changes", "k_trajectory", "prune_rate", "rotations", "stage_latencies", "steps", "steps_histogram", "steps_histogram_sum", "steps_per_comparison", "wedge_leaf_lb_prunes", "wedge_leaf_visits", "wedge_node_visits", "wedge_pruned_members", "wedge_prunes_by_level"}
	zeroStatsJSONKeysGolden = []string{"comparisons", "early_abandons", "fft_fallbacks", "fft_rejected_members", "fft_rejects", "full_dist_evals", "index_fetches", "k_changes", "prune_rate", "rotations", "steps", "steps_per_comparison", "wedge_leaf_lb_prunes", "wedge_leaf_visits", "wedge_node_visits", "wedge_pruned_members"}
)

const explainHistogramGolden = `# HELP lbkeogh_explain_bound_tightness_ratio Distribution of lower bound / true rotation-invariant distance, per bound (1 = perfectly tight).
# TYPE lbkeogh_explain_bound_tightness_ratio histogram
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.05"} 0
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.10"} 0
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.15"} 0
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.20"} 0
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.25"} 0
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.30"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.35"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.40"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.45"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.50"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.55"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.60"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.65"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.70"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.75"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.80"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.85"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.90"} 1
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.95"} 2
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="1.00"} 2
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="+Inf"} 3
lbkeogh_explain_bound_tightness_ratio_sum{bound="paa"} 2.45
lbkeogh_explain_bound_tightness_ratio_count{bound="paa"} 3
`

// goldenStats is a snapshot with every scalar counter set to a distinct
// value, built by assignment so the same source compiles whether the counters
// are declared on SearchStats or promoted from an embedded record.
func goldenStats() SearchStats {
	var s SearchStats
	s.Comparisons = 101
	s.Rotations = 102
	s.Steps = 103
	s.FullDistEvals = 104
	s.EarlyAbandons = 105
	s.WedgeNodeVisits = 106
	s.WedgeLeafVisits = 107
	s.WedgePrunedMembers = 108
	s.WedgeLeafLBPrunes = 109
	s.FFTRejects = 110
	s.FFTRejectedMembers = 111
	s.FFTFallbacks = 112
	s.CancelledMembers = 113
	s.IndexFetches = 115
	s.KChanges = 117
	s.WedgePrunesByLevel = []int64{3, 0, 5}
	s.KTrajectory = []KChange{{Comparison: 7, From: 4, To: 8}, {Comparison: 19, From: 8, To: 2}}
	s.PruneRate = 0.25
	s.StepsPerComparison = 1.5
	s.StepsHistogram = []HistogramBucket{{UpperBound: 4, Count: 2}, {UpperBound: 64, Count: 5}, {UpperBound: -1, Count: 1}}
	s.StepsHistogramSum = 1234
	s.StageLatencies = []StageLatency{
		{Stage: "fetch", Count: 3, SumNS: 700, Buckets: []HistogramBucket{{UpperBound: 128, Count: 1}, {UpperBound: 512, Count: 2}}},
		{Stage: "disk_read", Count: 4, SumNS: 9000, Buckets: []HistogramBucket{{UpperBound: 1024, Count: 3}, {UpperBound: -1, Count: 1}}},
	}
	return s
}

func TestHistogramExpositionGolden(t *testing.T) {
	s := goldenStats()
	var buf bytes.Buffer
	WriteMetrics(&buf, "x", s)
	if got := buf.String(); got != observeMetricsGolden {
		t.Errorf("WriteMetrics:\n%s\nwant:\n%s", got, observeMetricsGolden)
	}
	for _, c := range []struct {
		name string
		s    SearchStats
		want []string
	}{{"golden", s, statsJSONKeysGolden}, {"zero", SearchStats{}, zeroStatsJSONKeysGolden}} {
		raw, err := json.Marshal(c.s)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, c.want) {
			t.Errorf("%s stats JSON keys:\n%q\nwant:\n%q", c.name, keys, c.want)
		}
	}

	sampler := NewBoundSampler(1)
	paa := func(v float64) explain.Sample {
		return explain.Sample{Threshold: -1, True: 2, Bounds: []explain.BoundValue{{Bound: "paa", Value: v}}}
	}
	sampler.rec.Observe(paa(0.5))
	sampler.rec.Observe(paa(1.9))
	sampler.rec.Observe(paa(2.5))
	buf.Reset()
	sampler.WriteMetrics(&buf)
	got := buf.String()
	if got = got[strings.Index(got, "# HELP lbkeogh_explain_bound_tightness_ratio"):]; got != explainHistogramGolden {
		t.Errorf("BoundSampler.WriteMetrics histogram:\n%s\nwant:\n%s", got, explainHistogramGolden)
	}
}
