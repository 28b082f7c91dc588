package lbkeogh_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lbkeogh"
	"lbkeogh/internal/obs/expofmt"
)

// tracedSearch runs one fully-sampled traced search and returns the query,
// its trace log, and the retained search trace.
func tracedSearch(t *testing.T, opts ...lbkeogh.QueryOption) (*lbkeogh.Query, *lbkeogh.TraceLog, lbkeogh.TraceSummary) {
	t.Helper()
	db := lbkeogh.SyntheticProjectilePoints(3, 24, 32)
	tlog := lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))
	opts = append(opts, lbkeogh.WithTraceLog(tlog))
	q, err := lbkeogh.NewQuery(db[0], lbkeogh.Euclidean(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Search(db[1:]); err != nil {
		t.Fatal(err)
	}
	for _, tr := range tlog.Recent() {
		if tr.Label == "search" {
			return q, tlog, tr
		}
	}
	t.Fatal("no search trace retained at sample rate 1")
	return nil, nil, lbkeogh.TraceSummary{}
}

// chromeEvent mirrors one Chrome trace-event as exported by WriteChromeTrace;
// ts/dur are microseconds.
type chromeEvent struct {
	Name string                     `json:"name"`
	Ph   string                     `json:"ph"`
	Ts   float64                    `json:"ts"`
	Dur  float64                    `json:"dur"`
	Pid  int64                      `json:"pid"`
	Tid  int64                      `json:"tid"`
	Args map[string]json.RawMessage `json:"args"`
}

// traceCounts is the per-span counter-delta attribute, decoded with the same
// JSON names SearchStats uses — the Reconciles identity must hold span-wise.
type traceCounts struct {
	Comparisons        int64 `json:"comparisons"`
	Rotations          int64 `json:"rotations"`
	FullDistEvals      int64 `json:"full_dist_evals"`
	EarlyAbandons      int64 `json:"early_abandons"`
	WedgePrunedMembers int64 `json:"wedge_pruned_members"`
	WedgeLeafLBPrunes  int64 `json:"wedge_leaf_lb_prunes"`
	FFTRejectedMembers int64 `json:"fft_rejected_members"`
}

func (c traceCounts) reconciles() bool {
	return c.Rotations == c.FullDistEvals+c.EarlyAbandons+
		c.WedgePrunedMembers+c.WedgeLeafLBPrunes+c.FFTRejectedMembers
}

func eventContains(outer, inner chromeEvent) bool {
	const eps = 1e-6 // µs; ns→µs conversion is exact well past this
	return outer.Ts <= inner.Ts+eps && inner.Ts+inner.Dur <= outer.Ts+outer.Dur+eps
}

// TestChromeExportNestsStagesAndReconciles: a traced Query.Search exports a
// Chrome trace-event JSON whose span tree nests every comparison in the search
// span, with nothing beneath a comparison, and whose per-span counter
// attributes satisfy the same Reconciles identity as SearchStats.
func TestChromeExportNestsStagesAndReconciles(t *testing.T) {
	_, tlog, tr := tracedSearch(t)
	var buf bytes.Buffer
	if err := tlog.WriteChromeTrace(&buf, tr.ID); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) < 3 {
		t.Fatalf("only %d events exported", len(file.TraceEvents))
	}

	byStage := map[string][]chromeEvent{}
	for _, e := range file.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete events (X)", e.Name, e.Ph)
		}
		byStage[e.Name] = append(byStage[e.Name], e)
	}
	if got := stageNamesOf(byStage); !reflect.DeepEqual(got, []string{"comparison", "search", "search#" + strconv.FormatInt(tr.ID, 10)}) {
		t.Fatalf("export holds stages %v, want the root, search and comparison spans only", got)
	}

	// Span-tree nesting, checked structurally by interval containment: a
	// Chrome viewer reads nesting off containment per track, whatever the
	// events' parent args say.
	requireNested := func(innerStage, outerStage string) {
		t.Helper()
		for _, in := range byStage[innerStage] {
			found := false
			for _, out := range byStage[outerStage] {
				if eventContains(out, in) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s span at ts=%v is not nested in any %s span", innerStage, in.Ts, outerStage)
			}
		}
	}
	requireNested("comparison", "search")

	// Counter attributes: the root reconciles, every comparison reconciles,
	// and the comparisons sum back to the root — the SearchStats identity.
	decodeCounts := func(e chromeEvent) (traceCounts, bool) {
		raw, ok := e.Args["counts"]
		if !ok {
			return traceCounts{}, false
		}
		var c traceCounts
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatalf("counts arg does not decode: %v", err)
		}
		return c, true
	}
	root, ok := decodeCounts(file.TraceEvents[0])
	if !ok {
		t.Fatal("root event has no counts attribute")
	}
	if !root.reconciles() {
		t.Fatalf("root counts do not reconcile: %+v", root)
	}
	if root.Rotations != tr.Stats.Rotations || root.FullDistEvals != tr.Stats.FullDistEvals {
		t.Fatalf("root counts %+v disagree with the trace summary stats %+v", root, tr.Stats)
	}
	var sum traceCounts
	for _, e := range byStage["comparison"] {
		c, ok := decodeCounts(e)
		if !ok {
			t.Fatalf("comparison span at ts=%v has no counts attribute", e.Ts)
		}
		if !c.reconciles() {
			t.Fatalf("comparison counts do not reconcile: %+v", c)
		}
		sum.Comparisons += c.Comparisons
		sum.Rotations += c.Rotations
		sum.FullDistEvals += c.FullDistEvals
		sum.EarlyAbandons += c.EarlyAbandons
		sum.WedgePrunedMembers += c.WedgePrunedMembers
		sum.WedgeLeafLBPrunes += c.WedgeLeafLBPrunes
		sum.FFTRejectedMembers += c.FFTRejectedMembers
	}
	if sum != root {
		t.Fatalf("per-comparison counts sum to %+v, root has %+v", sum, root)
	}

	// The summary layer agrees too.
	if !tr.Stats.Reconciles() {
		t.Fatal("trace summary stats do not reconcile")
	}
	if tr.Slow {
		t.Error("trace marked slow under the default 50ms threshold")
	}
}

func stageNamesOf(m map[string][]chromeEvent) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestTraceLogStageLatencies(t *testing.T) {
	_, tlog, _ := tracedSearch(t)
	lats := tlog.StageLatencies()
	got := map[string]lbkeogh.StageLatency{}
	for _, sl := range lats {
		got[sl.Stage] = sl
	}
	stages := []string{"build", "rotation_matrix", "wedge_build", "search", "comparison"}
	if len(got) != len(stages) {
		t.Errorf("latency histograms for %d stages, want %v", len(got), stages)
	}
	for _, stage := range stages {
		sl, ok := got[stage]
		if !ok {
			t.Fatalf("no latency histogram for stage %q", stage)
		}
		if sl.Count <= 0 || sl.SumNS <= 0 || len(sl.Buckets) == 0 {
			t.Errorf("stage %q latency summary is empty: %+v", stage, sl)
		}
		var bucketTotal int64
		for _, b := range sl.Buckets {
			bucketTotal += b.Count
		}
		if bucketTotal != sl.Count {
			t.Errorf("stage %q buckets sum to %d, count is %d", stage, bucketTotal, sl.Count)
		}
	}
	// The query's Stats carries the same summaries once a log is attached.
	q, _, _ := tracedSearch(t)
	if len(q.Stats().StageLatencies) == 0 {
		t.Error("Query.Stats() does not surface stage latencies with a TraceLog attached")
	}
}

// parseExposition parses a /metrics body through internal/obs/expofmt — the
// supported parser this helper was promoted into — failing the test on any
// format violation (HELP/TYPE ordering, malformed samples, anything after a
// sample value but a timestamp).
func parseExposition(t *testing.T, body string) (samples []expofmt.Sample, types map[string]string) {
	t.Helper()
	e, err := expofmt.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	return e.Samples, e.Types
}

// TestMetricsExpositionWellFormed validates the full /metrics output with a
// text-format parser: HELP/TYPE precede samples, histogram buckets are
// cumulative and monotone, the +Inf bucket equals _count, and the steps
// histogram's _sum is the exact observed sum (not the global Steps counter).
func TestMetricsExpositionWellFormed(t *testing.T) {
	q, tlog, _ := tracedSearch(t)
	_ = tlog
	h := lbkeogh.MetricsHandler(map[string]lbkeogh.StatsSource{"lbkeogh_query": q})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q is not the text exposition format", ct)
	}
	samples, types := parseExposition(t, rr.Body.String())
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}

	// Histogram invariants, per (family, non-le labelset).
	type key struct{ fam, labels string }
	buckets := map[key][]expofmt.Sample{}
	counts := map[key]float64{}
	sums := map[key]float64{}
	nonLE := func(s expofmt.Sample) string {
		var parts []string
		for k, v := range s.Labels {
			if k != "le" {
				parts = append(parts, k+"="+v)
			}
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	}
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			k := key{strings.TrimSuffix(s.Name, "_bucket"), nonLE(s)}
			buckets[k] = append(buckets[k], s)
		case strings.HasSuffix(s.Name, "_count") && types[strings.TrimSuffix(s.Name, "_count")] == "histogram":
			counts[key{strings.TrimSuffix(s.Name, "_count"), nonLE(s)}] = s.Value
		case strings.HasSuffix(s.Name, "_sum") && types[strings.TrimSuffix(s.Name, "_sum")] == "histogram":
			sums[key{strings.TrimSuffix(s.Name, "_sum"), nonLE(s)}] = s.Value
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets in the exposition")
	}
	for k, bs := range buckets {
		prevLE, prevV := -1.0, -1.0
		for i, b := range bs {
			leStr := b.Labels["le"]
			le := -1.0
			if leStr == "+Inf" {
				if i != len(bs)-1 {
					t.Errorf("%v: +Inf bucket is not last", k)
				}
			} else {
				var err error
				if le, err = strconv.ParseFloat(leStr, 64); err != nil {
					t.Fatalf("%v: bad le %q", k, leStr)
				}
				if le <= prevLE {
					t.Errorf("%v: le %v not increasing after %v", k, le, prevLE)
				}
				prevLE = le
			}
			if b.Value < prevV {
				t.Errorf("%v: bucket value %v decreased from %v (not cumulative)", k, b.Value, prevV)
			}
			prevV = b.Value
		}
		last := bs[len(bs)-1]
		if last.Labels["le"] != "+Inf" {
			t.Errorf("%v: histogram has no +Inf bucket", k)
		}
		if c, ok := counts[k]; !ok || last.Value != c {
			t.Errorf("%v: +Inf bucket %v != _count %v", k, last.Value, c)
		}
		if _, ok := sums[k]; !ok {
			t.Errorf("%v: histogram has no _sum", k)
		}
	}

	// The steps histogram _sum must be the exact observed sum.
	st := q.Stats()
	k := key{"lbkeogh_query_comparison_steps", ""}
	if got := sums[k]; got != float64(st.StepsHistogramSum) {
		t.Errorf("comparison_steps_sum = %v, want the exact StepsHistogramSum %d", got, st.StepsHistogramSum)
	}
	if st.StepsHistogramSum == st.Steps {
		t.Log("note: StepsHistogramSum equals Steps on this workload; the distinction is untested here")
	}

	// Stage-latency histograms must appear with the stage label.
	if _, ok := buckets[key{"lbkeogh_query_stage_latency_ns", "stage=comparison"}]; !ok {
		t.Error("no stage_latency_ns histogram for stage=comparison")
	}
}

type staticStats lbkeogh.SearchStats

func (s staticStats) Stats() lbkeogh.SearchStats { return lbkeogh.SearchStats(s) }

func TestPublishExpvarRepublishIsNoop(t *testing.T) {
	src := staticStats{Counts: lbkeogh.Counts{Comparisons: 1}}
	lbkeogh.PublishExpvar("lbkeogh_test_republish", src)
	// A second publication under the same name must not panic (expvar.Publish
	// panics on duplicates; the wrapper must swallow the re-publish).
	lbkeogh.PublishExpvar("lbkeogh_test_republish", staticStats{Counts: lbkeogh.Counts{Comparisons: 2}})
}

func TestMetricsHandlerEmptyAndNilSources(t *testing.T) {
	for _, sources := range []map[string]lbkeogh.StatsSource{nil, {}} {
		rr := httptest.NewRecorder()
		lbkeogh.MetricsHandler(sources).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		if rr.Code != 200 {
			t.Errorf("sources=%v: status %d, want 200", sources, rr.Code)
		}
		if rr.Body.Len() != 0 {
			t.Errorf("sources=%v: non-empty body %q", sources, rr.Body.String())
		}
	}
}

func TestDebugHandlerRoutes(t *testing.T) {
	q, tlog, tr := tracedSearch(t)
	h := lbkeogh.DebugHandler(
		map[string]lbkeogh.StatsSource{"test_query": q},
		map[string]*lbkeogh.TraceLog{"test_query": tlog},
	)
	get := func(target string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
		return rr
	}

	rr := get("/debug/lbkeogh")
	if rr.Code != 200 {
		t.Fatalf("dashboard: status %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{"<h1>lbkeogh observability</h1>", "trace log: test_query", "comparison"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard HTML is missing %q", want)
		}
	}

	rr = get("/debug/lbkeogh?log=test_query&format=chrome")
	if rr.Code != 200 {
		t.Fatalf("chrome export: status %d: %s", rr.Code, rr.Body.String())
	}
	var all struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &all); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	comparisons := 0
	for _, e := range all.TraceEvents {
		if e.Name == "comparison" {
			comparisons++
		}
	}
	if comparisons == 0 {
		t.Fatalf("chrome export of the whole log has no comparison spans (%d events)", len(all.TraceEvents))
	}

	rr = get("/debug/lbkeogh?log=test_query&trace=" + strconv.FormatInt(tr.ID, 10) + "&format=chrome")
	if rr.Code != 200 {
		t.Fatalf("one-trace chrome export: status %d: %s", rr.Code, rr.Body.String())
	}
	var one struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &one); err != nil {
		t.Fatalf("one-trace chrome export is not valid JSON: %v", err)
	}
	if len(one.TraceEvents) != tr.Spans+1 {
		t.Fatalf("one-trace chrome export holds %d events, want the root and %d spans", len(one.TraceEvents), tr.Spans)
	}

	if rr := get("/debug/lbkeogh?log=nope"); rr.Code != 404 {
		t.Errorf("unknown log: status %d, want 404", rr.Code)
	}
	if rr := get("/debug/lbkeogh?log=test_query&format=bogus"); rr.Code != 400 {
		t.Errorf("bad format: status %d, want 400", rr.Code)
	}
	if rr := get("/debug/lbkeogh?log=test_query&trace=" + strconv.FormatInt(tr.ID, 10) + "&format=jsonl"); rr.Code != 400 {
		t.Errorf("jsonl export: status %d, want 400 (the Chrome export is the one format)", rr.Code)
	}
}

// TestTraceCompositionPinned pins what one retained trace is made of — span
// count, drops and spans per stage — for two fixed scans. The composition
// depends on the walk (which comparisons reach which leaves), not the clock,
// so a change that moves a literal here has changed what a trace records.
func TestTraceCompositionPinned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		db      []lbkeogh.Series
		measure lbkeogh.Measure
		spans   int
		dropped int64
		stages  map[string]int
	}{
		{"ed", lbkeogh.SyntheticProjectilePoints(7, 4097, 251), lbkeogh.Euclidean(), 512, 3585,
			map[string]int{"search": 1, "comparison": 511}},
		{"dtw5", lbkeogh.SyntheticHeterogeneous(7, 1025, 256), lbkeogh.DTW(5), 512, 513,
			map[string]int{"search": 1, "comparison": 511}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tlog := lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))
			q, err := lbkeogh.NewQuery(tc.db[0], tc.measure, lbkeogh.WithTraceLog(tlog))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := q.Search(tc.db[1:]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tlog.WriteChromeTrace(&buf, q.LastTraceID()); err != nil {
				t.Fatal(err)
			}
			var file struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
				t.Fatal(err)
			}
			var dropped int64
			if err := json.Unmarshal(file.TraceEvents[0].Args["dropped_spans"], &dropped); err != nil {
				t.Fatalf("root event carries no dropped_spans: %v", err)
			}
			spans := file.TraceEvents[1:]
			if len(spans) != tc.spans || dropped != tc.dropped {
				t.Errorf("trace holds %d spans / %d dropped, want %d / %d", len(spans), dropped, tc.spans, tc.dropped)
			}
			stages := map[string]int{}
			for _, e := range spans {
				stages[e.Name]++
			}
			if !reflect.DeepEqual(stages, tc.stages) {
				t.Errorf("spans per stage = %v, want %v", stages, tc.stages)
			}
		})
	}
}

// TestComparisonSpansAreLeaves holds tracing to the comparison: in a traced
// wedge scan, ED or DTW, no span has a comparison span as its parent — the
// H-Merge walk, its bounds and its kernels record nothing of their own.
func TestComparisonSpansAreLeaves(t *testing.T) {
	for _, tc := range []struct {
		name    string
		db      []lbkeogh.Series
		measure lbkeogh.Measure
	}{
		{"ed", lbkeogh.SyntheticProjectilePoints(5, 65, 64), lbkeogh.Euclidean()},
		{"dtw3", lbkeogh.SyntheticHeterogeneous(5, 65, 64), lbkeogh.DTW(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tlog := lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))
			q, err := lbkeogh.NewQuery(tc.db[0], tc.measure, lbkeogh.WithTraceLog(tlog))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := q.Search(tc.db[1:]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tlog.WriteChromeTrace(&buf, q.LastTraceID()); err != nil {
				t.Fatal(err)
			}
			var file struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
				t.Fatal(err)
			}
			spans := file.TraceEvents[1:]
			comparisons := 0
			for i, e := range spans {
				if e.Name == "comparison" {
					comparisons++
				}
				var parent int
				if err := json.Unmarshal(e.Args["parent"], &parent); err != nil {
					t.Fatalf("span %d carries no parent: %v", i, err)
				}
				if parent >= 0 && spans[parent].Name == "comparison" {
					t.Errorf("span %d (%s) is a child of comparison span %d", i, e.Name, parent)
				}
			}
			if comparisons != len(tc.db)-1 {
				t.Fatalf("%d comparison spans over %d rows", comparisons, len(tc.db)-1)
			}
		})
	}
}
