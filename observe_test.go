package lbkeogh_test

import (
	"encoding/json"
	"expvar"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"lbkeogh"
)

func obsTestDB(t *testing.T, m, n int) []lbkeogh.Series {
	t.Helper()
	return lbkeogh.SyntheticProjectilePoints(7, m, n)
}

func reconciles(s lbkeogh.SearchStats) bool {
	return s.Rotations == s.FullDistEvals+s.EarlyAbandons+
		s.WedgePrunedMembers+s.WedgeLeafLBPrunes+s.FFTRejectedMembers
}

func TestQueryStatsReconcile(t *testing.T) {
	db := obsTestDB(t, 41, 64)
	q, db := db[0], db[1:]
	for _, strat := range []lbkeogh.Strategy{
		lbkeogh.WedgeSearch, lbkeogh.BruteForceSearch,
		lbkeogh.EarlyAbandonSearch, lbkeogh.FFTSearch,
	} {
		query, err := lbkeogh.NewQuery(q, lbkeogh.Euclidean(), lbkeogh.WithStrategy(strat))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := query.Search(db); err != nil {
			t.Fatal(err)
		}
		st := query.Stats()
		if st.Comparisons != int64(len(db)) {
			t.Fatalf("strategy %v: Comparisons = %d, want %d", strat, st.Comparisons, len(db))
		}
		if !st.Reconciles() || !reconciles(st) {
			t.Fatalf("strategy %v: stats do not reconcile: %+v", strat, st)
		}
		if st.Steps <= 0 || st.StepsPerComparison <= 0 {
			t.Fatalf("strategy %v: no steps recorded: %+v", strat, st)
		}
		query.ResetStats()
		if st := query.Stats(); st.Comparisons != 0 || st.Steps != 0 {
			t.Fatalf("ResetStats left data: %+v", st)
		}
	}
}

func TestQueryStatsCoverParallelSearch(t *testing.T) {
	db := obsTestDB(t, 101, 64)
	q, db := db[0], db[1:]
	query, err := lbkeogh.NewQuery(q, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := query.Search(db)
	if err != nil {
		t.Fatal(err)
	}
	query.ResetStats()
	got, err := query.SearchParallel(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != serial.Index {
		t.Fatalf("parallel index %d != serial %d", got.Index, serial.Index)
	}
	st := query.Stats()
	if st.Comparisons < int64(len(db)) {
		t.Fatalf("parallel scan recorded %d comparisons, want >= %d", st.Comparisons, len(db))
	}
	if !st.Reconciles() {
		t.Fatalf("parallel stats do not reconcile: %+v", st)
	}
}

func TestIndexStatsCountFetches(t *testing.T) {
	db := obsTestDB(t, 61, 64)
	q, db := db[0], db[1:]
	ix, err := lbkeogh.NewIndex(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	query, err := lbkeogh.NewQuery(q, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(query); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.IndexFetches == 0 {
		t.Fatal("indexed search recorded no fetches")
	}
	if st.IndexFetches != int64(ix.DiskReads()) {
		t.Fatalf("stats IndexFetches %d != index reads %d", st.IndexFetches, ix.DiskReads())
	}
	if !st.Reconciles() {
		t.Fatalf("index stats do not reconcile: %+v", st)
	}
	ix.ResetStats()
	if st := ix.Stats(); st.IndexFetches != 0 {
		t.Fatalf("ResetStats left fetches: %+v", st)
	}
}

func TestMonitorStatsReconcile(t *testing.T) {
	patterns := obsTestDB(t, 4, 32)
	mon, err := lbkeogh.NewMonitor(patterns, lbkeogh.Euclidean(), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	stream := obsTestDB(t, 1, 32)[0]
	mon.PushAll(stream)
	mon.PushAll(stream)
	st := mon.Stats()
	if st.Comparisons == 0 {
		t.Fatal("monitor recorded no window comparisons")
	}
	if !st.Reconciles() {
		t.Fatalf("monitor stats do not reconcile: %+v", st)
	}
	if st.Steps != mon.Steps() {
		t.Fatalf("stats steps %d != monitor steps %d", st.Steps, mon.Steps())
	}
	mon.ResetStats()
	if st := mon.Stats(); st.Comparisons != 0 {
		t.Fatalf("ResetStats left data: %+v", st)
	}
}

func TestMetricsHandlerServesPrometheusText(t *testing.T) {
	db := obsTestDB(t, 21, 64)
	q, db := db[0], db[1:]
	query, err := lbkeogh.NewQuery(q, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query.Search(db); err != nil {
		t.Fatal(err)
	}
	h := lbkeogh.MetricsHandler(map[string]lbkeogh.StatsSource{"test_query": query})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP test_query_comparisons ",
		"# TYPE test_query_comparisons counter",
		"test_query_comparisons 20",
		"# TYPE test_query_comparison_steps histogram",
		`test_query_comparison_steps_bucket{le="+Inf"} 20`,
		"test_query_comparison_steps_count 20",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q\n---\n%s", want, body)
		}
	}
}

// TestScrapeDuringParallelSearch scrapes MetricsHandler and the expvar
// publication while a parallel search is feeding the same record — the
// documented live-telemetry use, and the root package's share of
// `make race-concurrency`.
func TestScrapeDuringParallelSearch(t *testing.T) {
	db := obsTestDB(t, 201, 64)
	q, db := db[0], db[1:]
	query, err := lbkeogh.NewQuery(q, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	h := lbkeogh.MetricsHandler(map[string]lbkeogh.StatsSource{"live_query": query})
	lbkeogh.PublishExpvar("lbkeogh_test_live", query)
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 5 && err == nil; i++ {
			_, err = query.SearchParallel(db, 2)
		}
		done <- err
	}()
	for searching := true; searching; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			searching = false
		default:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if !strings.Contains(rec.Body.String(), "# TYPE live_query_comparisons counter") {
			t.Fatalf("scrape lost the comparisons family:\n%s", rec.Body.String())
		}
		if !json.Valid([]byte(expvar.Get("lbkeogh_test_live").String())) {
			t.Fatal("expvar publication is not JSON")
		}
	}
	if st := query.Stats(); !st.Reconciles() || st.Comparisons < 5*int64(len(db)) {
		t.Fatalf("final stats: reconciles %v, %d comparisons", st.Reconciles(), st.Comparisons)
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	db := obsTestDB(t, 21, 64)
	q, db := db[0], db[1:]
	query, err := lbkeogh.NewQuery(q, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query.Search(db); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(query.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var back lbkeogh.SearchStats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Comparisons != 20 || !back.Reconciles() {
		t.Fatalf("round-tripped stats wrong: %+v", back)
	}
}

// TestReadmeListsEveryCounter holds README §Observability's "SearchStats
// fields" table to the metrics table the code emits from: a counter added to
// lbkeogh.Counts without a documented row fails here.
func TestReadmeListsEveryCounter(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	lbkeogh.Counts{}.Each(func(key, _ string, _ int64) {
		if row := "| `" + key + "` | `<prefix>_" + key + "` |"; !strings.Contains(readme, row) {
			t.Errorf("README.md has no SearchStats fields row starting %q", row)
		}
	})
}
