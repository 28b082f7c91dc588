package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

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

// sharedSeen reads the shared sampler's comparisons-seen counter.
func sharedSeen(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	return scrapeMetrics(t, ts).Counter("lbkeogh_explain_comparisons_seen_total", nil)
}

// checkExplained posts body with explain:true to one fresh server and
// without it to another, and holds the explained response to the contract:
// 200; a plan that is the request's own interval-4 sampler snapshot —
// offered exactly the search's comparisons, sampling ceil(comparisons/4) of
// them, with one bounds entry per applicable bound; a shared sampler that
// did not move; and results and stats byte-identical to the plain request's.
func checkExplained(t *testing.T, path, body string, bounds []string) SearchResponse {
	t.Helper()
	_, ets := newTestServer(t, Config{})
	_, pts := newTestServer(t, Config{})
	seen0 := sharedSeen(t, ets)
	explained := body[:len(body)-1] + `,"explain":true}`
	code, sr, eraw := post(t, ets, path, explained)
	if code != http.StatusOK {
		t.Fatalf("%s %s: status %d (%s)", path, explained, code, eraw)
	}
	if seen := sharedSeen(t, ets); seen != seen0 {
		t.Errorf("%s: the shared sampler saw %d comparisons of an explained request", path, seen-seen0)
	}
	plan, st := sr.Plan, sr.Stats
	if plan == nil {
		t.Fatalf("%s: explain:true returned no plan: %s", path, eraw)
	}
	if plan.Interval != explainInterval || plan.Seen != st.Comparisons || plan.Sampled != (st.Comparisons+3)/4 {
		t.Errorf("%s: plan seen %d sampled %d at interval %d; stats %d comparisons", path, plan.Seen, plan.Sampled, plan.Interval, st.Comparisons)
	}
	var got []string
	for _, bt := range plan.Bounds {
		got = append(got, bt.Bound)
		if bt.Checks != plan.Sampled {
			t.Errorf("%s: %s bound checked %d times over %d samples", path, bt.Bound, bt.Checks, plan.Sampled)
		}
	}
	if !slices.Equal(got, bounds) {
		t.Errorf("%s: plan bounds %v, want %v", path, got, bounds)
	}

	code, _, praw := post(t, pts, path, body)
	if code != http.StatusOK {
		t.Fatalf("%s %s: status %d (%s)", path, body, code, praw)
	}
	type answer struct {
		Results json.RawMessage `json:"results"`
		Stats   json.RawMessage `json:"stats"`
	}
	var ea, pa answer
	if err := json.Unmarshal([]byte(eraw), &ea); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(praw), &pa); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea.Results, pa.Results) || !bytes.Equal(ea.Stats, pa.Stats) {
		t.Errorf("%s: explained answer differs from the plain one\nexplained %s %s\nplain     %s %s", path, ea.Results, ea.Stats, pa.Results, pa.Stats)
	}
	return sr
}

// TestServerExplainSearch: an explain:true search — Euclidean through the
// serving index, DTW and LCSS through the session's scan — answers with its
// own sampler's snapshot as the plan and the plain request's answer. A
// pooled re-use of the session without explain carries no plan and feeds
// the shared sampler again.
func TestServerExplainSearch(t *testing.T) {
	sr := checkExplained(t, "/v1/search", `{"query_index":1}`, []string{"fft", "envelope"})
	if sr.Stats.IndexFetches == 0 {
		t.Fatalf("Euclidean search did not go through the index: %+v", sr.Stats.Counts)
	}
	checkExplained(t, "/v1/search", `{"query_index":1,"measure":"dtw","r":2}`, []string{"envelope"})
	checkExplained(t, "/v1/search", `{"query_index":1,"measure":"lcss"}`, []string{"envelope"})

	_, ts := newTestServer(t, Config{})
	if code, _, raw := post(t, ts, "/v1/search", `{"query_index":1,"measure":"dtw","explain":true}`); code != http.StatusOK {
		t.Fatalf("explained search: status %d (%s)", code, raw)
	}
	seen0 := sharedSeen(t, ts)
	code, sr2, raw := post(t, ts, "/v1/search", `{"query_index":1,"measure":"dtw"}`)
	if code != http.StatusOK || !sr2.PoolHit {
		t.Fatalf("second request: status %d pool_hit %v (%s)", code, sr2.PoolHit, raw)
	}
	if sr2.Plan != nil {
		t.Fatal("plan leaked into a non-explain request on a pooled session")
	}
	if seen := sharedSeen(t, ts) - seen0; seen != sr2.Stats.Comparisons {
		t.Fatalf("the shared sampler saw %d of the pooled request's %d comparisons", seen, sr2.Stats.Comparisons)
	}
}

// TestServerExplainTopKAndRange: the other search flavours answer explain
// the same way.
func TestServerExplainTopKAndRange(t *testing.T) {
	checkExplained(t, "/v1/topk", `{"query_index":2,"k":4}`, []string{"fft", "envelope"})
	checkExplained(t, "/v1/range", `{"query_index":2,"threshold":5}`, []string{"fft", "envelope"})
	checkExplained(t, "/v1/topk", `{"query_index":2,"k":4,"measure":"dtw","r":2}`, []string{"envelope"})
}

// TestServerRequestsRunWedgeStrategy: every request runs the wedge
// strategy, whatever its measure, and its stats say so. The flat scans (DTW,
// LCSS) walk H-Merge from their first row; a fresh session's Euclidean
// request goes through the index, whose probe verifies by early abandoning
// until the tree pays (TestServerSessionBuysItsTreeOnce).
func TestServerRequestsRunWedgeStrategy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, measure := range []string{"euclidean", "dtw", "lcss"} {
		code, sr, raw := post(t, ts, "/v1/search", `{"query_index":1,"explain":true,"measure":"`+measure+`"}`)
		if code != http.StatusOK || sr.Plan == nil {
			t.Fatalf("%s: status %d plan %v (%s)", measure, code, sr.Plan, raw)
		}
		if !sr.Stats.Reconciles() {
			t.Errorf("%s request's stats do not reconcile: %+v", measure, sr.Stats.Counts)
		}
		if measure == "euclidean" {
			if c := sr.Stats.Counts; c.IndexFetches == 0 || c.WedgeLeafVisits != 0 || c.EarlyAbandons+c.FullDistEvals != c.Rotations {
				t.Errorf("fresh euclidean request did not verify its fetches by early abandoning: %+v", c)
			}
		} else if sr.Stats.WedgeLeafVisits == 0 {
			t.Errorf("%s request did not walk the wedges: %+v", measure, sr.Stats.Counts)
		}
	}
}

// TestServerSessionBuysItsTreeOnce: a pooled session's searcher counts the
// early-abandoning steps its index probes spend across requests, so a fresh
// session's second request continues the first's count; the request during
// which the count reaches twice the tree's set-up buys the tree, and every
// later request on the hot session walks it from its first row.
func TestServerSessionBuysItsTreeOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 32                  // newTestServer's series length
	const setup = 2 * n * (n - 1) // circulant profile + one merge per internal node
	var lazy, last int64
	bought := -1
	for i := 0; i < 200 && bought < 0; i++ {
		code, sr, raw := post(t, ts, "/v1/search", `{"query_index":1}`)
		if code != http.StatusOK || sr.PoolHit != (i > 0) || sr.Stats.IndexFetches == 0 {
			t.Fatalf("request %d: status %d pool_hit %v (%s)", i, code, sr.PoolHit, raw)
		}
		if sr.Stats.WedgeLeafVisits > 0 {
			bought = i
			break
		}
		last = sr.Stats.Steps
		lazy += last
	}
	if bought < 2 || lazy < 2*setup || lazy-last >= 2*setup {
		// Each request spends a few dozen steps, so the count crosses
		// 2 × setup during one of many requests, the one before the buy.
		t.Fatalf("the tree was bought at request %d after %d early-abandoning steps; want the first request at or past %d", bought, lazy, 2*setup)
	}
	for i := 0; i < 3; i++ {
		if _, sr, _ := post(t, ts, "/v1/search", `{"query_index":1}`); !sr.PoolHit || sr.Stats.WedgeLeafVisits == 0 || sr.Stats.EarlyAbandons+sr.Stats.FullDistEvals == sr.Stats.Rotations {
			t.Fatalf("hot session request %d did not walk its tree: %+v", i, sr.Stats.Counts)
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
// its index_fetches and an explain plan's envelope tightness describe the index on
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
