package server

// Store-mode serving tests: the ingest-first workflow over an empty
// segment store, online /v1/ingest and /v1/compact, readyz reasons, and —
// the contract the online path hangs on — zero failed searches while a
// compaction swaps the manifest under concurrent query load.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lbkeogh"
	"lbkeogh/internal/segment"
)

func newStoreServer(t *testing.T, cfg Config) (*segment.DB, *Server, *httptest.Server) {
	t.Helper()
	return newStoreServerIn(t, t.TempDir(), cfg)
}

// newStoreServerIn is newStoreServer over a store in dir, for tests that
// look at the files on disk.
func newStoreServerIn(t *testing.T, dir string, cfg Config) (*segment.DB, *Server, *httptest.Server) {
	t.Helper()
	db, err := segment.OpenDB(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cfg.Store = db
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return db, srv, ts
}

// postJSON posts a body and decodes the response into out (when non-nil and
// the status is 200), returning status and raw body.
func postJSON(t *testing.T, ts *httptest.Server, path, body string, out any) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s: bad response JSON: %v\n%s", path, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

func ingestBody(rows []lbkeogh.Series) string {
	b, _ := json.Marshal(map[string]any{"series": rows})
	return string(b)
}

func storeRows(seed int64, m, n int) []lbkeogh.Series {
	return lbkeogh.SyntheticProjectilePoints(seed, m, n)
}

func TestStoreModeIngestFirstWorkflow(t *testing.T) {
	db, _, ts := newStoreServer(t, Config{})

	// Empty store: searches refuse with 503, readyz stays ready ("serving" —
	// the process can take ingests), livez reports db_size 0.
	code, raw := postJSON(t, ts, "/v1/search", `{"query_index":0}`, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(raw, "ingest") {
		t.Fatalf("empty-store search: status %d body %s", code, raw)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready readyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ready.Status != "ready" || ready.Reason == "" {
		t.Fatalf("empty-store readyz: status %d body %+v", resp.StatusCode, ready)
	}

	// First ingest fixes the series length and makes searches live.
	rows := storeRows(3, 6, 32)
	var ing IngestResponse
	code, raw = postJSON(t, ts, "/v1/ingest", ingestBody(rows), &ing)
	if code != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", code, raw)
	}
	if ing.FirstID != 0 || ing.Count != 6 || ing.Records != 6 {
		t.Fatalf("ingest response: %+v", ing)
	}
	var sr SearchResponse
	code, raw = postJSON(t, ts, "/v1/search", `{"query_index":2}`, &sr)
	if code != http.StatusOK {
		t.Fatalf("search after ingest: status %d body %s", code, raw)
	}
	if len(sr.Results) != 1 || sr.Results[0].Index != 2 || sr.Results[0].Dist != 0 {
		t.Fatalf("self-match: %+v", sr.Results)
	}
	// Labels default to global IDs in store mode.
	if sr.Results[0].Label == nil || *sr.Results[0].Label != 2 {
		t.Fatalf("store label: %+v", sr.Results[0].Label)
	}

	// Wrong-length ingest into a fixed store is the client's error.
	code, raw = postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(4, 2, 16)), nil)
	if code != http.StatusBadRequest {
		t.Fatalf("mismatched ingest: status %d body %s", code, raw)
	}
	// So is a row whose squared norm overflows: every query would be +Inf
	// from it.
	huge := storeRows(4, 2, 32)
	for i := range huge[1] {
		huge[1][i] = 1e200 * float64(1-2*(i%2))
	}
	code, raw = postJSON(t, ts, "/v1/ingest", ingestBody(huge), nil)
	if code != http.StatusBadRequest || !strings.Contains(raw, "record 1 has a squared norm") {
		t.Fatalf("overflowing ingest: status %d body %s", code, raw)
	}

	// Second ingest appends with continuing IDs; compact merges to one segment.
	code, raw = postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(5, 4, 32)), &ing)
	if code != http.StatusOK || ing.FirstID != 6 || ing.Records != 10 {
		t.Fatalf("second ingest: status %d resp %+v body %s", code, ing, raw)
	}
	var comp CompactResponse
	code, raw = postJSON(t, ts, "/v1/compact", `{}`, &comp)
	if code != http.StatusOK {
		t.Fatalf("compact: status %d body %s", code, raw)
	}
	if comp.Merged != 2 || comp.Segments != 1 {
		t.Fatalf("compact response: %+v", comp)
	}
	if db.Len() != 10 {
		t.Fatalf("store rows after compact: %d", db.Len())
	}
	// Rows survive compaction under the same IDs.
	code, raw = postJSON(t, ts, "/v1/search", `{"query_index":7}`, &sr)
	if code != http.StatusOK || sr.Results[0].Index != 7 {
		t.Fatalf("post-compact search: status %d body %s", code, raw)
	}
}

func TestStoreMutationsRefusedOutsideStoreMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/ingest", "/v1/compact"} {
		code, raw := postJSON(t, ts, path, `{}`, nil)
		if code != http.StatusConflict {
			t.Fatalf("%s on static server: status %d body %s", path, code, raw)
		}
	}
}

func TestStoreModeRejectsStaticConfig(t *testing.T) {
	db, err := segment.OpenDB(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := New(Config{Store: db, DB: storeRows(1, 2, 16)}); err == nil {
		t.Fatal("Store+DB accepted")
	}
	if _, err := New(Config{Store: db, Labels: []int{1}}); err == nil {
		t.Fatal("Store+Labels accepted")
	}
}

// TestStoreModeConcurrentCompactSwap is the online-compaction contract at the
// HTTP layer: query load never observes a swap. Readers hammer /v1/search
// (fresh specs each time, defeating the session pool's cache, so every
// request re-reads the store) while the writer ingests and compacts; every
// search must come back 200 with its self-match intact.
func TestStoreModeConcurrentCompactSwap(t *testing.T) {
	db, _, ts := newStoreServer(t, Config{MaxInflight: 8, MaxQueue: 64})
	seedRows := storeRows(11, 20, 24)
	if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(seedRows), nil); code != http.StatusOK {
		t.Fatalf("seed ingest: status %d body %s", code, raw)
	}

	const readers = 6
	var searches, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (r*7 + i) % len(seedRows) // seed rows: present in every generation
				var sr SearchResponse
				code, raw := postJSON(t, ts, "/v1/search",
					fmt.Sprintf(`{"query_index":%d}`, qi), &sr)
				searches.Add(1)
				if code != http.StatusOK {
					failed.Add(1)
					t.Errorf("search during compact: status %d body %s", code, raw)
					return
				}
				if sr.Results[0].Dist != 0 {
					failed.Add(1)
					t.Errorf("self-match lost during swap: qi=%d got %+v", qi, sr.Results[0])
					return
				}
			}
		}(r)
	}

	for round := 0; round < 10; round++ {
		if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(int64(100+round), 10, 24)), nil); code != http.StatusOK {
			t.Fatalf("round %d ingest: status %d body %s", round, code, raw)
		}
		if round%3 == 2 {
			var comp CompactResponse
			if code, raw := postJSON(t, ts, "/v1/compact", `{}`, &comp); code != http.StatusOK {
				t.Fatalf("round %d compact: status %d body %s", round, code, raw)
			}
		}
	}
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d of %d searches failed during online mutations", failed.Load(), searches.Load())
	}
	if searches.Load() == 0 {
		t.Fatal("no searches ran")
	}
	st := db.Stats()
	if st.Records != 20+10*10 {
		t.Fatalf("store records: %d", st.Records)
	}
	if st.Compactions == 0 || st.Ingests < 11 {
		t.Fatalf("mutation counters: %+v", st)
	}
	t.Logf("%d searches, %d ingests, %d compactions, generation %d, %d segments",
		searches.Load(), st.Ingests, st.Compactions, st.Generation, len(st.Segments))
}

// TestStoreMetricsAndIntrospection pins the store metric families on
// /metrics and the livez store block.
func TestStoreMetricsAndIntrospection(t *testing.T) {
	_, _, ts := newStoreServer(t, Config{})
	if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(7, 8, 32)), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", code, raw)
	}
	if code, raw := postJSON(t, ts, "/v1/search", `{"query_index":0}`, nil); code != http.StatusOK {
		t.Fatalf("search: status %d body %s", code, raw)
	}

	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", path, resp.StatusCode, raw)
		}
		return string(raw)
	}

	metrics := get("/metrics")
	for _, family := range []string{
		"shapeserver_store_generation",
		"shapeserver_store_segments 1",
		"shapeserver_store_records 8",
		"shapeserver_store_mapped_bytes",
		"shapeserver_store_ingests_total 1",
		"shapeserver_store_segment_records{segment=",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("metrics missing %q", family)
		}
	}

	live := get("/livez")
	var health healthResponse
	if err := json.Unmarshal([]byte(live), &health); err != nil {
		t.Fatal(err)
	}
	if health.Store == nil || health.Store.Records != 8 || health.DBSize != 8 || health.SeriesLen != 32 {
		t.Fatalf("livez store block: %s", live)
	}

}

// TestIngestStatusNamesTheFault: a batch the store refuses is the client's
// fault and answers 400; a valid batch the store cannot commit — its
// directory vanished under it — is the server's and answers 500.
func TestIngestStatusNamesTheFault(t *testing.T) {
	dir := t.TempDir()
	db, err := segment.OpenDB(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, err := New(Config{Store: db})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	rows := storeRows(9, 2, 16)
	for name, body := range map[string]string{
		"zero rows":   `{"series":[]}`,
		"label count": `{"series":[[1,2,3,4],[4,3,2,1]],"labels":[7]}`,
		"row length":  `{"series":[[1,2,3,4],[4,3,2]]}`,
		"too short":   `{"series":[[1],[2]]}`,
	} {
		if code, raw := postJSON(t, ts, "/v1/ingest", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", name, code, raw)
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(rows), nil); code != http.StatusInternalServerError {
		t.Fatalf("ingest into a vanished store: status %d body %s, want 500", code, raw)
	}
}
