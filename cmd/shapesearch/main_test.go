package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"lbkeogh"
)

// TestObsMux drives the surface `shapesearch -serve` mounts, after one traced
// search: /metrics writes the query's families and then the log's stage
// latencies, in the order captured before the surface was mounted by
// lbkeogh.HandleObs; /debug/lbkeogh lists the search's trace; and
// /debug/pprof/ answers.
func TestObsMux(t *testing.T) {
	db := lbkeogh.SyntheticProjectilePoints(5, 30, 48)
	tlog := lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))
	q, err := lbkeogh.NewQuery(db[0], lbkeogh.Euclidean(), lbkeogh.WithTraceLog(tlog))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.SearchTopK(db[1:], 3); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(obsMux(q, tlog))
	defer ts.Close()
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content type %q", ct)
	}
	var types []string
	for _, l := range strings.Split(body, "\n") {
		if fam, ok := strings.CutPrefix(l, "# TYPE "); ok {
			types = append(types, fam)
		}
	}
	if got := strings.Join(types, "\n") + "\n"; got != familyOrderGolden {
		t.Errorf("/metrics family order:\n%s\nwant:\n%s", got, familyOrderGolden)
	}

	var log struct {
		Recent []lbkeogh.TraceSummary `json:"recent"`
	}
	_, body = get("/debug/lbkeogh")
	if err := json.Unmarshal([]byte(body), &log); err != nil {
		t.Fatalf("/debug/lbkeogh: %v:\n%s", err, body)
	}
	if !slices.ContainsFunc(log.Recent, func(s lbkeogh.TraceSummary) bool {
		return s.ID == q.LastTraceID() && s.Label == "search_topk"
	}) {
		t.Errorf("/debug/lbkeogh does not list the search's trace %d:\n%s", q.LastTraceID(), body)
	}
	get("/debug/pprof/")
}

const familyOrderGolden = `shapesearch_query_comparisons_total counter
shapesearch_query_rotations_total counter
shapesearch_query_steps_total counter
shapesearch_query_full_dist_evals_total counter
shapesearch_query_early_abandons_total counter
shapesearch_query_wedge_node_visits_total counter
shapesearch_query_wedge_leaf_visits_total counter
shapesearch_query_wedge_pruned_members_total counter
shapesearch_query_wedge_leaf_lb_prunes_total counter
shapesearch_query_fft_rejects_total counter
shapesearch_query_fft_rejected_members_total counter
shapesearch_query_fft_fallbacks_total counter
shapesearch_query_cancelled_members_total counter
shapesearch_query_index_fetches_total counter
shapesearch_query_k_changes_total counter
shapesearch_query_wedge_prunes_by_level_total counter
shapesearch_query_comparison_steps histogram
shapesearch_query_stage_latency_seconds histogram
`
