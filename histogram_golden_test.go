package lbkeogh

import (
	"bytes"
	"strings"
	"testing"

	"lbkeogh/internal/obs/explain"
)

// The golden strings below were captured at commit 0bf7dc8, before the
// hand-rolled bucket loops moved into ops.WriteHistogram: /metrics text is
// byte-identical for a fixed snapshot.

const observeHistogramsGolden = `# HELP x_comparison_steps Per-comparison num_steps distribution.
# TYPE x_comparison_steps histogram
x_comparison_steps_bucket{le="4"} 2
x_comparison_steps_bucket{le="64"} 7
x_comparison_steps_bucket{le="+Inf"} 8
x_comparison_steps_sum 1234
x_comparison_steps_count 8
# HELP x_stage_latency_ns Per-stage query latency in nanoseconds.
# TYPE x_stage_latency_ns histogram
x_stage_latency_ns_bucket{stage="fetch",le="128"} 1
x_stage_latency_ns_bucket{stage="fetch",le="512"} 3
x_stage_latency_ns_bucket{stage="fetch",le="+Inf"} 3
x_stage_latency_ns_sum{stage="fetch"} 700
x_stage_latency_ns_count{stage="fetch"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="1024"} 3
x_stage_latency_ns_bucket{stage="disk_read",le="+Inf"} 4
x_stage_latency_ns_sum{stage="disk_read"} 9000
x_stage_latency_ns_count{stage="disk_read"} 4
`

const explainHistogramGolden = `# HELP lbkeogh_explain_bound_tightness_ratio Distribution of lower bound / true rotation-invariant distance, per bound (1 = perfectly tight).
# TYPE lbkeogh_explain_bound_tightness_ratio histogram
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.05"} 0
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.10"} 0
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.15"} 0
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.20"} 0
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.25"} 0
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="0.30"} 1 # {trace_id="7"} 0.25
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
lbkeogh_explain_bound_tightness_ratio_bucket{bound="paa",le="+Inf"} 3 # {trace_id="9"} 1.25
lbkeogh_explain_bound_tightness_ratio_sum{bound="paa"} 2.45
lbkeogh_explain_bound_tightness_ratio_count{bound="paa"} 3
`

func TestHistogramExpositionGolden(t *testing.T) {
	s := SearchStats{
		StepsHistogram:    []HistogramBucket{{UpperBound: 4, Count: 2}, {UpperBound: 64, Count: 5}, {UpperBound: -1, Count: 1}},
		StepsHistogramSum: 1234,
		StageLatencies: []StageLatency{
			{Stage: "fetch", Count: 3, SumNS: 700, Buckets: []HistogramBucket{{UpperBound: 128, Count: 1}, {UpperBound: 512, Count: 2}}},
			{Stage: "disk_read", Count: 4, SumNS: 9000, Buckets: []HistogramBucket{{UpperBound: 1024, Count: 3}, {UpperBound: -1, Count: 1}}},
		},
	}
	var buf bytes.Buffer
	WriteMetrics(&buf, "x", s)
	got := buf.String()
	if got = got[strings.Index(got, "# HELP x_comparison_steps"):]; got != observeHistogramsGolden {
		t.Errorf("WriteMetrics histograms:\n%s\nwant:\n%s", got, observeHistogramsGolden)
	}

	sampler := NewBoundSampler(1)
	paa := func(v float64) explain.Sample {
		return explain.Sample{Threshold: -1, True: 2, Bounds: []explain.BoundValue{{Bound: "paa", Value: v}}}
	}
	sampler.rec.Tag(sampler.rec.Observe(paa(0.5), nil), 7)
	sampler.rec.Observe(paa(1.9), nil)
	sampler.rec.Tag(sampler.rec.Observe(paa(2.5), nil), 9)
	buf.Reset()
	sampler.WriteMetrics(&buf)
	got = buf.String()
	if got = got[strings.Index(got, "# HELP lbkeogh_explain_bound_tightness_ratio"):]; got != explainHistogramGolden {
		t.Errorf("BoundSampler.WriteMetrics histogram:\n%s\nwant:\n%s", got, explainHistogramGolden)
	}
}
