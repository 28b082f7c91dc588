package lbkeogh_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"lbkeogh"
	"lbkeogh/internal/server"
)

// TestServerMetricsExemplarCorrelation closes the loop the operations runbook
// relies on: a traced request's trace ID must surface as an OpenMetrics
// exemplar on the request-duration histogram, round-trip through the text
// exposition parser, and resolve back to a retained entry in the slow-query
// ring. It also pins the presence of the runtime and cumulative request
// families on the server's /metrics.
func TestServerMetricsExemplarCorrelation(t *testing.T) {
	tlog := lbkeogh.NewTraceLog(
		lbkeogh.WithSampleRate(1),
		lbkeogh.WithSlowThreshold(time.Nanosecond), // every query is "slow": all traces retained in the slow ring
	)
	srv, err := server.New(server.Config{
		DB:       lbkeogh.SyntheticProjectilePoints(7, 20, 32),
		TraceLog: tlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/search", "application/json",
		strings.NewReader(`{"query_index":0}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr server.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if sr.TraceID == 0 {
		t.Fatal("search response has no trace_id at sample rate 1")
	}

	scrape, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(scrape.Body)
	scrape.Body.Close()
	samples, types := parseExposition(t, string(body))

	if types["shapeserver_request_duration_seconds"] != "histogram" {
		t.Fatalf("request-duration family type = %q, want histogram",
			types["shapeserver_request_duration_seconds"])
	}
	for _, fam := range []string{
		"lbkeogh_runtime_goroutines",
		"shapeserver_endpoint_requests_total",
		"shapeserver_rotations",
		"shapeserver_wedge_prunes_by_level",
	} {
		found := false
		for _, s := range samples {
			if s.Name == fam {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("/metrics has no %s sample", fam)
		}
	}

	// Exactly one bucket of the search endpoint's histogram carries the
	// exemplar of the single request served so far.
	var exTrace string
	for _, s := range samples {
		if s.Name == "shapeserver_request_duration_seconds_bucket" &&
			s.Labels["endpoint"] == "search" && s.Exemplar != nil {
			if exTrace != "" {
				t.Fatalf("two buckets carry exemplars after one request (%s and %s)",
					exTrace, s.Exemplar["trace_id"])
			}
			exTrace = s.Exemplar["trace_id"]
		}
	}
	if exTrace == "" {
		t.Fatalf("no exemplar on the search request-duration buckets:\n%s", body)
	}
	id, err := strconv.ParseInt(exTrace, 10, 64)
	if err != nil {
		t.Fatalf("exemplar trace_id %q is not an integer: %v", exTrace, err)
	}
	if id != sr.TraceID {
		t.Errorf("exemplar trace_id %d != response trace_id %d", id, sr.TraceID)
	}
	resolved := false
	for _, s := range tlog.Slow() {
		if s.ID == id {
			resolved = true
			break
		}
	}
	if !resolved {
		t.Errorf("exemplar trace_id %d does not resolve to a slow-query ring entry", id)
	}
}
