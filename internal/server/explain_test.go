package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/explain"
	"lbkeogh/internal/obs/expofmt"
)

func scrapeMetrics(t *testing.T, ts *httptest.Server) *expofmt.Exposition {
	t.Helper()
	code, body := getStatus(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	exp, err := expofmt.Parse(body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	return exp
}

// waterfallCounters rebuilds the server's cumulative pruning waterfall from
// the shapeserver_<counter> outcome families, the way a dashboard would:
// every stage is one counter or the sum of two.
func waterfallCounters(t *testing.T, ts *httptest.Server) (rot, surv, canc int64, stages map[string]int64) {
	t.Helper()
	exp := scrapeMetrics(t, ts)
	counter := func(key string) int64 { return exp.Counter("shapeserver_"+key+"_total", nil) }
	wf := explain.FromCounts(obs.Counts{
		Rotations:          counter("rotations"),
		FullDistEvals:      counter("full_dist_evals"),
		EarlyAbandons:      counter("early_abandons"),
		WedgePrunedMembers: counter("wedge_pruned_members"),
		WedgeLeafLBPrunes:  counter("wedge_leaf_lb_prunes"),
		FFTRejectedMembers: counter("fft_rejected_members"),
		CancelledMembers:   counter("cancelled_members"),
	})
	stages = map[string]int64{}
	for _, st := range wf.Eliminated {
		stages[st.Stage] = st.Members
	}
	return wf.Rotations, wf.Survivors, wf.Cancelled, stages
}

// TestServerExplainSearch: an explain:true request returns a plan whose
// waterfall reconciles exactly with the response's own per-request stats AND
// with the waterfall the /metrics outcome counters' deltas give for that
// request.
func TestServerExplainSearch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rot0, surv0, canc0, st0 := waterfallCounters(t, ts)

	code, sr, raw := post(t, ts, "/v1/search", `{"query_index":1,"explain":true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if sr.Plan == nil {
		t.Fatalf("explain:true returned no plan: %s", raw)
	}
	wf := sr.Plan.Waterfall
	if !wf.Reconciles() {
		t.Fatalf("plan waterfall does not reconcile: %+v", wf)
	}
	st := sr.Stats
	if wf.Rotations != st.Rotations || wf.Comparisons != st.Comparisons {
		t.Fatalf("waterfall rotations/comparisons %d/%d != stats %d/%d",
			wf.Rotations, wf.Comparisons, st.Rotations, st.Comparisons)
	}
	if got := wf.Stage(explain.StageFFT); got != st.FFTRejectedMembers {
		t.Errorf("fft stage %d != FFTRejectedMembers %d", got, st.FFTRejectedMembers)
	}
	if got := wf.Stage(explain.StageEnvelope); got != st.WedgePrunedMembers+st.WedgeLeafLBPrunes {
		t.Errorf("envelope stage %d != wedge prunes %d", got, st.WedgePrunedMembers+st.WedgeLeafLBPrunes)
	}
	if got := wf.Stage(explain.StageKernel); got != st.EarlyAbandons {
		t.Errorf("kernel stage %d != EarlyAbandons %d", got, st.EarlyAbandons)
	}
	if wf.Survivors != st.FullDistEvals || wf.Cancelled != st.CancelledMembers {
		t.Errorf("survivors/cancelled %d/%d != stats %d/%d",
			wf.Survivors, wf.Cancelled, st.FullDistEvals, st.CancelledMembers)
	}
	if sr.Plan.SampledComparisons != (wf.Comparisons+3)/4 || len(sr.Plan.Tightness) == 0 {
		t.Errorf("%d comparisons sampled %d times, tightness %+v", wf.Comparisons, sr.Plan.SampledComparisons, sr.Plan.Tightness)
	}

	// The /metrics outcome counters moved by exactly this search.
	rot1, surv1, canc1, st1 := waterfallCounters(t, ts)
	if rot1-rot0 != wf.Rotations || surv1-surv0 != wf.Survivors || canc1-canc0 != wf.Cancelled {
		t.Errorf("metrics deltas rot/surv/canc %d/%d/%d != plan %d/%d/%d",
			rot1-rot0, surv1-surv0, canc1-canc0, wf.Rotations, wf.Survivors, wf.Cancelled)
	}
	for _, stage := range wf.Eliminated {
		if got := st1[stage.Stage] - st0[stage.Stage]; got != stage.Members {
			t.Errorf("stage %q metrics delta %d != plan %d", stage.Stage, got, stage.Members)
		}
	}

	// A pooled re-use of the same session without explain must NOT carry a
	// plan (the per-request arm/disarm contract).
	code, sr2, raw := post(t, ts, "/v1/search", `{"query_index":1}`)
	if code != http.StatusOK || !sr2.PoolHit {
		t.Fatalf("second request: status %d pool_hit %v (%s)", code, sr2.PoolHit, raw)
	}
	if sr2.Plan != nil {
		t.Fatal("plan leaked into a non-explain request on a pooled session")
	}
}

// TestServerExplainTopKAndRange: the other search flavours carry reconciling
// plans too.
func TestServerExplainTopKAndRange(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, tk, raw := post(t, ts, "/v1/topk", `{"query_index":2,"k":4,"explain":true}`)
	if code != http.StatusOK || tk.Plan == nil || !tk.Plan.Waterfall.Reconciles() {
		t.Fatalf("topk explain: status %d plan %+v (%s)", code, tk.Plan, raw)
	}
	if tk.Plan.Waterfall.Rotations != tk.Stats.Rotations {
		t.Fatalf("topk plan rotations %d != stats %d", tk.Plan.Waterfall.Rotations, tk.Stats.Rotations)
	}
	code, rg, raw := post(t, ts, "/v1/range", `{"query_index":2,"threshold":5,"explain":true}`)
	if code != http.StatusOK || rg.Plan == nil || !rg.Plan.Waterfall.Reconciles() {
		t.Fatalf("range explain: status %d plan %+v (%s)", code, rg.Plan, raw)
	}
}

// TestServerExplainPlanNamesWedgeStrategy: every request runs the wedge
// strategy, whatever its measure, and its plan says so.
func TestServerExplainPlanNamesWedgeStrategy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, measure := range []string{"euclidean", "dtw", "lcss"} {
		code, sr, raw := post(t, ts, "/v1/search", `{"query_index":1,"explain":true,"measure":"`+measure+`"}`)
		if code != http.StatusOK || sr.Plan == nil {
			t.Fatalf("%s: status %d plan %v (%s)", measure, code, sr.Plan, raw)
		}
		if sr.Plan.Strategy != "wedge" || sr.Plan.Measure != measure {
			t.Errorf("%s request: plan strategy %q, measure %q", measure, sr.Plan.Strategy, sr.Plan.Measure)
		}
	}
}

// TestServerExplainSamplerMetrics: the server-owned sampler feeds from
// ordinary (non-explain) requests and its families appear on /metrics.
func TestServerExplainSamplerMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{ExplainSampleInterval: 1})
	for i := 0; i < 3; i++ {
		if code, _, raw := post(t, ts, "/v1/search", `{"query_index":3}`); code != http.StatusOK {
			t.Fatalf("search %d: %d (%s)", i, code, raw)
		}
	}
	exp := scrapeMetrics(t, ts)
	if exp.Counter("lbkeogh_explain_samples_total", nil) == 0 {
		t.Fatal("interval-1 server sampler measured nothing")
	}
	if got := exp.Types["lbkeogh_explain_bound_tightness_ratio"]; got != "histogram" {
		t.Fatalf("tightness family type = %q, want histogram", got)
	}
	// Negative interval disables the sampler; families must be absent, and
	// explain requests still work off their private sampler.
	_, tsOff := newTestServer(t, Config{ExplainSampleInterval: -1})
	expOff := scrapeMetrics(t, tsOff)
	if len(expOff.Find("lbkeogh_explain_samples_total")) != 0 {
		t.Fatal("disabled sampler still exports explain families")
	}
	if code, sr, raw := post(t, tsOff, "/v1/search", `{"query_index":0,"explain":true}`); code != http.StatusOK || sr.Plan == nil {
		t.Fatalf("explain without sampler: status %d plan %v (%s)", code, sr.Plan, raw)
	}
}

// TestServerDebugIndex: no structure report is served — the query's trace,
// its index_fetches and EXPLAIN's envelope tightness describe the index on
// the traffic it serves — so /debug/index is an unknown path in static and
// in store mode alike.
func TestServerDebugIndex(t *testing.T) {
	_, static := newTestServer(t, Config{})
	_, _, store := newStoreServer(t, Config{})
	for name, ts := range map[string]*httptest.Server{"static": static, "store": store} {
		if code, body := getStatus(t, ts.URL+"/debug/index"); code != http.StatusNotFound {
			t.Errorf("%s mode: /debug/index answered %d (%s), want 404", name, code, body)
		}
	}
}
