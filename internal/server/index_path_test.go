package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"lbkeogh"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/ts"
)

// flatAnswer is the request answered by the library's flat scan alone.
func flatAnswer(t *testing.T, db []lbkeogh.Series, series lbkeogh.Series, endpoint string, k int, threshold float64, opts ...lbkeogh.QueryOption) []lbkeogh.SearchResult {
	t.Helper()
	q, err := lbkeogh.NewQuery(series, lbkeogh.Euclidean(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var res []lbkeogh.SearchResult
	switch endpoint {
	case "topk":
		res, err = q.SearchTopK(db, k)
	case "range":
		res, err = q.SearchRange(db, threshold)
	default:
		var one lbkeogh.SearchResult
		one, err = q.Search(db)
		res = []lbkeogh.SearchResult{one}
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func closeRel(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestServerAnswersThroughIndexLikeFlatLibrary is the differential test of
// the routing decision: every Euclidean wedge request a static-mode server
// answers through its index returns the hits of the flat library call over
// the same rows — index, distance, alignment and order — and says so in its
// stats (index_fetches > 0, one comparison per fetch).
func TestServerAnswersThroughIndexLikeFlatLibrary(t *testing.T) {
	const m = 60
	type variant struct {
		name string
		body map[string]any
		opts []lbkeogh.QueryOption
	}
	variants := []variant{
		{"plain", map[string]any{}, nil},
		{"mirror", map[string]any{"mirror": true}, []lbkeogh.QueryOption{lbkeogh.WithMirrorInvariance()}},
		{"max_degrees", map[string]any{"max_degrees": 40.0}, []lbkeogh.QueryOption{lbkeogh.WithMaxRotationDegrees(40)}},
	}
	for _, n := range []int{47, 64} { // a prime length and a power of two
		db := lbkeogh.SyntheticProjectilePoints(int64(n), m, n)
		_, srv := newTestServer(t, Config{DB: db})
		for _, byIndex := range []bool{false, true} {
			for _, v := range variants {
				series := ts.Rotate(db[13], 5)
				body := map[string]any{"series": series}
				if byIndex {
					series = db[29]
					body = map[string]any{"query_index": 29}
				}
				for key, val := range v.body {
					body[key] = val
				}
				// The range threshold admits a handful of rows.
				threshold := flatAnswer(t, db, series, "topk", 6, 0, v.opts...)[5].Dist
				for _, ep := range []struct {
					endpoint string
					k        int
				}{{"search", 0}, {"topk", 1}, {"topk", 10}, {"topk", m + 7}, {"range", 0}} {
					name := fmt.Sprintf("n%d/%s/byIndex=%v/%s/k%d", n, v.name, byIndex, ep.endpoint, ep.k)
					body["k"], body["threshold"] = ep.k, 0.0
					if ep.endpoint == "range" {
						body["threshold"] = threshold
					}
					raw, err := json.Marshal(body)
					if err != nil {
						t.Fatal(err)
					}
					code, sr, text := post(t, srv, "/v1/"+ep.endpoint, string(raw))
					if code != http.StatusOK {
						t.Fatalf("%s: status %d (%s)", name, code, text)
					}
					want := flatAnswer(t, db, series, ep.endpoint, ep.k, threshold, v.opts...)
					if len(sr.Results) != len(want) {
						t.Fatalf("%s: %d hits, the flat library %d", name, len(sr.Results), len(want))
					}
					for i, h := range sr.Results {
						w := want[i]
						if h.Index != w.Index || !closeRel(h.Dist, w.Dist) || h.Shift != w.Rotation.Shift || h.Mirrored != w.Rotation.Mirrored {
							t.Fatalf("%s hit %d: %+v, the flat library %+v", name, i, h, w)
						}
					}
					st := sr.Stats
					if !st.Reconciles() || st.IndexFetches == 0 || st.IndexFetches != st.Comparisons {
						t.Fatalf("%s did not go through the index: %+v", name, st.Counts)
					}
					if ep.k <= 1 && st.Comparisons >= m {
						t.Fatalf("%s compared all %d rows: the bound excluded nothing", name, st.Comparisons)
					}
				}
			}
		}
	}
}

// TestServerMaxDegreesRange holds max_degrees to the library's range: a value
// outside [0, 180) is the client's error, named as such, not a request for
// every rotation; one inside it answers as WithMaxRotationDegrees does.
func TestServerMaxDegreesRange(t *testing.T) {
	db := lbkeogh.SyntheticProjectilePoints(5, 40, 48)
	_, srv := newTestServer(t, Config{DB: db})
	for _, c := range []struct {
		deg  float64
		want int
	}{{-5, http.StatusBadRequest}, {180, http.StatusBadRequest}, {0, http.StatusOK}, {40, http.StatusOK}} {
		code, sr, text := post(t, srv, "/v1/search", fmt.Sprintf(`{"query_index":3,"max_degrees":%v}`, c.deg))
		if code != c.want {
			t.Fatalf("max_degrees %v: status %d, want %d (%s)", c.deg, code, c.want, text)
		}
		if code != http.StatusOK {
			if !strings.Contains(text, "max_degrees") {
				t.Fatalf("max_degrees %v: the error does not name the field: %s", c.deg, text)
			}
			continue
		}
		want := flatAnswer(t, db, db[3], "search", 0, 0, lbkeogh.WithMaxRotationDegrees(c.deg))[0]
		if h := sr.Results[0]; h.Index != want.Index || !closeRel(h.Dist, want.Dist) || h.Shift != want.Rotation.Shift {
			t.Fatalf("max_degrees %v: %+v, the library %+v", c.deg, h, want)
		}
	}
}

// On a database with duplicated rows the distances are the flat scan's and
// only rows at exactly the same distance may differ in index: the probe
// verifies in ascending order of bound, and "lowest index wins" is the flat
// scan's promise, not the index's. Duplicates share their bound, though, so
// they come back in index order here too and the answer is the scan's.
func TestServerIndexTieRule(t *testing.T) {
	db := lbkeogh.SyntheticProjectilePoints(3, 40, 32)
	db = append(db, db[7], db[7], db[21], db[7])
	_, srv := newTestServer(t, Config{DB: db})
	series := ts.Rotate(db[7], 3)
	raw, _ := json.Marshal(map[string]any{"series": series, "k": 12})
	code, sr, text := post(t, srv, "/v1/topk", string(raw))
	if code != http.StatusOK {
		t.Fatalf("status %d (%s)", code, text)
	}
	want := flatAnswer(t, db, series, "topk", 12, 0)
	if len(sr.Results) != len(want) {
		t.Fatalf("%d hits, the flat library %d", len(sr.Results), len(want))
	}
	seen := map[int]bool{}
	for i, h := range sr.Results {
		if !closeRel(h.Dist, want[i].Dist) {
			t.Fatalf("hit %d: dist %v, the flat library %v", i, h.Dist, want[i].Dist)
		}
		if h.Index != want[i].Index {
			t.Fatalf("hit %d: row %d, the flat library row %d (duplicates: %v)", i, h.Index, want[i].Index, slices.Equal(db[h.Index], db[want[i].Index]))
		}
		if seen[h.Index] {
			t.Fatalf("row %d reported twice: %+v", h.Index, sr.Results)
		}
		seen[h.Index] = true
	}
}

// Everything the routing decision leaves on the flat scan stays there: one
// row each, proven by index_fetches == 0 and a comparison for every database
// row.
func TestServerFlatRequestsStayFlat(t *testing.T) {
	const m = 50
	db := lbkeogh.SyntheticProjectilePoints(9, m, 48)
	_, srv := newTestServer(t, Config{DB: db})
	for _, c := range []struct{ name, path, body string }{
		{"dtw", "/v1/search", `{"query_index":4,"measure":"dtw","r":3}`},
		{"lcss", "/v1/search", `{"query_index":4,"measure":"lcss"}`},
		{"brute", "/v1/search", `{"query_index":4,"strategy":"brute"}`},
		{"early_abandon", "/v1/topk", `{"query_index":4,"strategy":"early_abandon","k":3}`},
		{"fft", "/v1/range", `{"query_index":4,"strategy":"fft","threshold":2}`},
		{"parallel", "/v1/search", `{"query_index":4,"parallel":2}`},
	} {
		code, sr, text := post(t, srv, c.path, c.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", c.name, code, text)
		}
		// (A parallel scan re-checks the rows before its answer for ties: at least m.)
		if st := sr.Stats; st.IndexFetches != 0 || st.Comparisons < m || !st.Reconciles() {
			t.Errorf("%s left the flat scan: %+v", c.name, st.Counts)
		}
		if c.name != "fft" && (len(sr.Results) == 0 || sr.Results[0].Index != 4) {
			t.Errorf("%s: results %+v", c.name, sr.Results)
		}
	}
	// Store mode has no serving index: the same Euclidean wedge request scans.
	_, _, store := newStoreServer(t, Config{})
	if code, raw := postJSON(t, store, "/v1/ingest", ingestBody(db), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d (%s)", code, raw)
	}
	code, sr, text := post(t, store, "/v1/search", `{"query_index":4}`)
	if code != http.StatusOK || sr.Results[0].Index != 4 {
		t.Fatalf("store mode: status %d %+v (%s)", code, sr.Results, text)
	}
	if st := sr.Stats; st.IndexFetches != 0 || st.Comparisons != m {
		t.Errorf("store mode left the flat scan: %+v", st.Counts)
	}
}

// TestServerCancelledMidProbe is TestServerCancelledMidScan's twin on the
// index path, again without a clock. Handed a context that is cancelled from
// its first poll on, the request does no work at all; handed one cancelled
// from its sixteenth, it stops mid-probe, a few fetches in, with books that
// reconcile. Either way the answer is 503, the session goes back to the pool
// usable, and the shared index serves the next request as if nothing had
// happened.
func TestServerCancelledMidProbe(t *testing.T) {
	const body = `{"query_index":0,"k":5}`
	var polls atomic.Int64 // the search context's poll budget; 0: uncancelled
	srv, ts := newTestServer(t, Config{
		DB: lbkeogh.SyntheticProjectilePoints(11, 150, 64),
		BeforeSearchHook: func(ctx context.Context) context.Context {
			if n := polls.Load(); n > 0 {
				return cancelAtPoll(ctx, n)
			}
			return ctx
		},
	})
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/topk", strings.NewReader(body)))
		return rec
	}

	polls.Store(1)
	if rec := serve(); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "cancelled") {
		t.Fatalf("cancelled before the probe: status %d (%s)", rec.Code, rec.Body)
	}
	if agg := srv.Stats(); agg.Counts != (obs.Counts{}) || srv.ix.DiskReads() != 0 {
		t.Fatalf("a probe cancelled before it started did work: %+v, %d fetches", agg.Counts, srv.ix.DiskReads())
	}

	polls.Store(16)
	if rec := serve(); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "cancelled") {
		t.Fatalf("cancelled mid-probe: status %d (%s)", rec.Code, rec.Body)
	}
	agg := srv.Stats()
	if agg.Comparisons == 0 || agg.CancelledMembers == 0 || agg.IndexFetches < 2 || agg.IndexFetches >= 150 || !agg.Reconciles() {
		t.Fatalf("aggregate after a mid-probe cancellation: %+v", agg.Counts)
	}
	if srv.timeouts.Load() != 2 {
		t.Fatalf("timeout counter = %d, want 2", srv.timeouts.Load())
	}

	// The session and the index both survive: the same request, uncancelled.
	polls.Store(0)
	code, sr, raw := post(t, ts, "/v1/topk", body)
	if code != http.StatusOK || !sr.PoolHit || len(sr.Results) != 5 || sr.Results[0].Index != 0 {
		t.Fatalf("after the cancellations: status %d pool_hit %v %+v (%s)", code, sr.PoolHit, sr.Results, raw)
	}
	want := flatAnswer(t, srv.cfg.DB, srv.cfg.DB[0], "topk", 5, 0)
	for i, h := range sr.Results {
		if h.Index != want[i].Index || !closeRel(h.Dist, want[i].Dist) {
			t.Fatalf("hit %d after the cancellations: %+v, the flat library %+v", i, h, want[i])
		}
	}
}

// TestServerTracedIndexRequestTellsItsStory: a traced EXPLAIN request served
// through the index keeps its probe and per-candidate fetch spans under the
// request's search root span, still returns a plan whose last survivor is the
// answer's database row, and moves the server's index counters on /metrics.
func TestServerTracedIndexRequestTellsItsStory(t *testing.T) {
	tlog := lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))
	_, ts := newTestServer(t, Config{DB: lbkeogh.SyntheticProjectilePoints(5, 120, 64), TraceLog: tlog})
	code, sr, raw := post(t, ts, "/v1/search", `{"query_index":17,"explain":true}`)
	if code != http.StatusOK || sr.TraceID == 0 || sr.Plan == nil {
		t.Fatalf("status %d trace %d plan %v (%s)", code, sr.TraceID, sr.Plan, raw)
	}
	if sr.Results[0].Index != 17 || sr.Stats.IndexFetches == 0 {
		t.Fatalf("results %+v stats %+v", sr.Results, sr.Stats.Counts)
	}
	if !sr.Plan.Waterfall.Reconciles() || sr.Plan.Waterfall.Rotations != sr.Stats.Rotations || len(sr.Plan.Survivors) == 0 {
		t.Fatalf("plan: %+v", sr.Plan)
	}
	if last := sr.Plan.Survivors[len(sr.Plan.Survivors)-1]; last.Index != 17 {
		t.Fatalf("last survivor is row %d, the answer row 17", last.Index)
	}

	var buf bytes.Buffer
	if err := tlog.WriteChromeTrace(&buf, sr.TraceID); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Args struct{ Span, Parent int }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	type span struct {
		Span, Parent int
		Stage        string
	}
	var spans []span
	for _, e := range file.TraceEvents[1:] { // the root event is the trace, not a span
		spans = append(spans, span{e.Args.Span, e.Args.Parent, e.Name})
	}
	probe, fetches := -1, int64(0)
	for _, sp := range spans {
		switch sp.Stage {
		case "vp_probe":
			if spans[sp.Parent].Stage != "search" {
				t.Fatalf("probe span under %q, want the request's search span", spans[sp.Parent].Stage)
			}
			probe = sp.Span
		case "fetch":
			fetches++
			if sp.Parent != probe {
				t.Fatalf("fetch span under span %d, want the probe %d", sp.Parent, probe)
			}
		}
	}
	if probe < 0 || fetches != sr.Stats.IndexFetches {
		t.Fatalf("probe span %d, %d fetch spans for %d fetches", probe, fetches, sr.Stats.IndexFetches)
	}

	exp := scrapeMetrics(t, ts)
	if f := exp.Counter("shapeserver_index_fetches", nil); f != sr.Stats.IndexFetches {
		t.Fatalf("/metrics index fetches %d, the request's %d", f, sr.Stats.IndexFetches)
	}
}
