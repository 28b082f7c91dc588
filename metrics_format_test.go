package lbkeogh_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"lbkeogh"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/expofmt"
	"lbkeogh/internal/segment"
	"lbkeogh/internal/server"
)

// TestMetricsBodiesAreTextFormat holds every /metrics body the repository
// emits to the format it declares, text/plain version 0.0.4: the strict
// expofmt parse (nothing after a sample value but an integer timestamp) and
// one le set for every series of a histogram family — the whole power-of-two
// layout for each family an obs.Histogram feeds, so the set cannot change
// between scrapes either. The bodies are the library's MetricsHandler over a
// traced query and index with a BoundSampler attached, and the server's in
// static and in store mode after an ingest, a search, a top-K, a range and
// an EXPLAIN search, every request traced and every comparison sampled.
func TestMetricsBodiesAreTextFormat(t *testing.T) {
	db := lbkeogh.SyntheticProjectilePoints(11, 40, 48)

	t.Run("library", func(t *testing.T) {
		tlog := lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))
		sampler := lbkeogh.NewBoundSampler(1)
		q, err := lbkeogh.NewQuery(db[0], lbkeogh.Euclidean(), lbkeogh.WithTraceLog(tlog))
		if err != nil {
			t.Fatal(err)
		}
		q.SetBoundSampler(sampler)
		ix, err := lbkeogh.NewIndex(db, 8)
		if err != nil {
			t.Fatal(err)
		}
		ix.SetTraceLog(tlog)
		if _, err := q.Search(db); err != nil {
			t.Fatal(err)
		}
		if _, err := q.SearchTopK(db, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := q.SearchRange(db, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Search(q); err != nil {
			t.Fatal(err)
		}
		if q.LastTraceID() == 0 || sampler.Snapshot().Sampled == 0 {
			t.Fatal("the query kept no trace or sampled no comparison")
		}
		rr := httptest.NewRecorder()
		lbkeogh.MetricsHandler(map[string]lbkeogh.StatsSource{"lbkeogh_query": q, "lbkeogh_index": ix}).
			ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		sampler.WriteMetrics(rr.Body) // as a serving process appends it
		checkTextFormat(t, rr.Header().Get("Content-Type"), rr.Body.String(),
			"lbkeogh_query_comparison_steps", "lbkeogh_query_stage_latency_ns", "lbkeogh_index_stage_latency_ns",
			"lbkeogh_explain_bound_tightness_ratio")
	})

	for _, mode := range []string{"static", "store"} {
		t.Run(mode, func(t *testing.T) {
			cfg := server.Config{
				TraceLog:              lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1)),
				ExplainSampleInterval: 1,
			}
			ingest := http.StatusConflict // static mode has no store to grow
			if mode == "static" {
				cfg.DB = db
			} else {
				store, err := segment.OpenDB(t.TempDir(), 8)
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				cfg.Store, ingest = store, http.StatusOK
			}
			srv, err := server.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			rows, _ := json.Marshal(map[string]any{"series": db})
			for _, rq := range []struct {
				path, body string
				want       int
			}{
				{"/v1/ingest", string(rows), ingest},
				{"/v1/search", `{"query_index":1}`, http.StatusOK},
				{"/v1/topk", `{"query_index":2,"k":3}`, http.StatusOK},
				{"/v1/range", `{"query_index":3,"threshold":5}`, http.StatusOK},
				{"/v1/search", `{"query_index":4,"measure":"dtw","r":2,"explain":true}`, http.StatusOK},
			} {
				resp, err := http.Post(ts.URL+rq.path, "application/json", strings.NewReader(rq.body))
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != rq.want {
					t.Fatalf("%s: status %d, want %d (%s)", rq.path, resp.StatusCode, rq.want, raw)
				}
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			checkTextFormat(t, resp.Header.Get("Content-Type"), string(body),
				"shapeserver_request_duration_seconds", "shapeserver_stage_latency_ns",
				"lbkeogh_explain_bound_tightness_ratio")
		})
	}
}

// checkTextFormat holds one /metrics body to the 0.0.4 text format: its
// content type, the strict parse, and one le set per histogram family. Each
// of the named families must be present; the ones an obs.Histogram feeds
// (all but the tightness histogram, whose layout is its own) must write the
// whole layout.
func checkTextFormat(t *testing.T, contentType, body string, families ...string) {
	t.Helper()
	if !strings.HasPrefix(contentType, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want text/plain; version=0.0.4", contentType)
	}
	exp, err := expofmt.Parse(body)
	if err != nil {
		t.Fatalf("not the 0.0.4 text format: %v", err)
	}
	// No label value here holds a '#': on a sample line one can only open
	// an OpenMetrics suffix, which the format has no syntax for.
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "#") && strings.Contains(line, "#") {
			t.Errorf("a sample line carries more than its value: %q", line)
		}
	}
	les := map[string]map[string][]string{} // family → series → le set
	for _, s := range exp.Samples {
		fam, ok := strings.CutSuffix(s.Name, "_bucket")
		if !ok || exp.Types[fam] != "histogram" {
			continue
		}
		var series []string
		for k, v := range s.Labels {
			if k != "le" {
				series = append(series, k+"="+v)
			}
		}
		sort.Strings(series)
		key := strings.Join(series, ",")
		if les[fam] == nil {
			les[fam] = map[string][]string{}
		}
		les[fam][key] = append(les[fam][key], s.Labels["le"])
	}
	for _, fam := range families {
		bySeries := les[fam]
		if len(bySeries) == 0 {
			t.Errorf("no %s series in the body", fam)
			continue
		}
		if fam != "lbkeogh_explain_bound_tightness_ratio" {
			for series, got := range bySeries {
				if len(got) != obs.HistogramBuckets+1 {
					t.Errorf("%s{%s} writes %d buckets, want the layout's %d", fam, series, len(got), obs.HistogramBuckets+1)
				}
			}
		}
	}
	for fam, bySeries := range les {
		var first string
		var want []string
		for series, got := range bySeries {
			if want == nil {
				first, want = series, got
			} else if !slices.Equal(got, want) {
				t.Errorf("%s: le set of {%s} differs from {%s}:\n%v\n%v", fam, series, first, got, want)
			}
		}
	}
}
