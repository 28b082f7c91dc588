package lbkeogh_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lbkeogh"
	"lbkeogh/internal/server"
)

// TestServerTraceIDCorrelation closes the loop the operations runbook relies
// on: a traced request's response carries its trace_id, the request's log
// line carries the same trace_id beside the request_id the response's
// X-Request-ID header names, and the id resolves to a retained entry in the
// slow-query ring. /metrics points at no trace — it parses as the plain 0.0.4
// text format — and it still serves the runtime and cumulative request
// families.
func TestServerTraceIDCorrelation(t *testing.T) {
	tlog := lbkeogh.NewTraceLog(
		lbkeogh.WithSampleRate(1),
		lbkeogh.WithSlowThreshold(time.Nanosecond), // every query is "slow": all traces retained in the slow ring
	)
	var logs bytes.Buffer
	srv, err := server.New(server.Config{
		DB:       lbkeogh.SyntheticProjectilePoints(7, 20, 32),
		TraceLog: tlog,
		Logger:   slog.New(slog.NewJSONHandler(&logs, nil)),
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

	// The response's trace_id is on that request's log line.
	rid := resp.Header.Get("X-Request-ID")
	var line map[string]any
	for _, raw := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var l map[string]any
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("log line %q: %v", raw, err)
		}
		if l["request_id"] == rid {
			if line != nil {
				t.Fatalf("request %s logged twice:\n%s", rid, logs.String())
			}
			line = l
		}
	}
	if rid == "" || line == nil {
		t.Fatalf("no log line for request %q:\n%s", rid, logs.String())
	}
	if id, _ := line["trace_id"].(float64); int64(id) != sr.TraceID || line["msg"] != "search served" {
		t.Errorf("log line %v, want msg \"search served\" with trace_id %d", line, sr.TraceID)
	}

	// ... and resolves to a slow-query ring entry.
	resolved := false
	for _, s := range tlog.Slow() {
		if s.ID == sr.TraceID {
			resolved = true
			break
		}
	}
	if !resolved {
		t.Errorf("response trace_id %d does not resolve to a slow-query ring entry", sr.TraceID)
	}

	// A flat DTW scan walks the wedges from its first row (the Euclidean
	// request's index probe verified its one row without), so the per-level
	// prune family has samples.
	if resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(`{"query_index":0,"measure":"dtw"}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	scrape, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(scrape.Body)
	scrape.Body.Close()
	samples, types := parseExposition(t, string(body))
	if strings.Contains(string(body), "trace_id") {
		t.Errorf("/metrics names a trace:\n%s", body)
	}

	if types["shapeserver_request_duration_seconds"] != "histogram" {
		t.Fatalf("request-duration family type = %q, want histogram",
			types["shapeserver_request_duration_seconds"])
	}
	for _, fam := range []string{
		"lbkeogh_runtime_goroutines",
		"shapeserver_endpoint_requests_total",
		"shapeserver_rotations_total",
		"shapeserver_wedge_prunes_by_level_total",
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
}
