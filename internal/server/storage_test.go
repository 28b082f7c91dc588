package server

// Storage-plane tests: a store-backed /metrics that parses and serves no
// lbkeogh_store_ family, no /debug/storage route, and the
// snapshot-lifecycle regression — a handler panic must not leak its
// pinned snapshot, or compaction could never unlink merged-away segments.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbkeogh/internal/obs/expofmt"
)

func getBody(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestStoreMetricsParse pins the composite /metrics page of a store-backed
// server: every family — library, server and store — must survive the strict
// exposition parser, and none is an lbkeogh_store_ family (the store's
// counts are the shapeserver_store_ families).
func TestStoreMetricsParse(t *testing.T) {
	_, _, ts := newStoreServer(t, Config{})
	if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(31, 8, 32)), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", code, raw)
	}
	if code, raw := postJSON(t, ts, "/v1/search", `{"query_index":3}`, nil); code != http.StatusOK {
		t.Fatalf("search: status %d body %s", code, raw)
	}

	code, body := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	exp, err := expofmt.Parse(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for fam := range exp.Types {
		if strings.HasPrefix(fam, "lbkeogh_store_") {
			t.Errorf("metrics serve %s", fam)
		}
	}
	for _, name := range []string{"shapeserver_store_ingests_total", "shapeserver_store_segment_records"} {
		if len(exp.Find(name)) == 0 {
			t.Errorf("metrics missing family %s", name)
		}
	}
}

// TestDebugStorageDisabledOutsideStoreObs holds /debug/storage to 404 in
// static and store mode alike: the store's generation, segments and orphans
// are the /livez store block, and nothing else renders them.
func TestDebugStorageDisabledOutsideStoreObs(t *testing.T) {
	_, static := newTestServer(t, Config{})
	_, _, store := newStoreServer(t, Config{})
	for mode, ts := range map[string]*httptest.Server{"static": static, "store": store} {
		if code, raw := getBody(t, ts, "/debug/storage"); code != http.StatusNotFound {
			t.Errorf("%s mode: /debug/storage answers %d %s, want 404", mode, code, raw)
		}
	}
}

// TestHandlerPanicReleasesSnapshot is the snapshot-lifecycle regression: a
// search handler that panics mid-request (net/http recovers it) must still
// release its pinned snapshot through the deferred release, so a later
// compaction can unlink the merged-away segment files. A leaked snapshot
// would keep the old generation's readers open forever.
func TestHandlerPanicReleasesSnapshot(t *testing.T) {
	panics := make(chan struct{}, 1)
	dir := t.TempDir()
	_, _, ts := newStoreServerIn(t, dir, Config{BeforeSearchHook: func(ctx context.Context) context.Context {
		select {
		case <-panics:
			panic("injected handler failure")
		default:
		}
		return ctx
	}})
	for seed := int64(41); seed <= 42; seed++ {
		if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(seed, 5, 24)), nil); code != http.StatusOK {
			t.Fatalf("ingest: status %d body %s", code, raw)
		}
	}

	// The panicking request: the server closes the connection without a
	// response, so the client sees a transport error, not a status.
	panics <- struct{}{}
	if _, err := http.Post(ts.URL+"/v1/search", "application/json",
		strings.NewReader(`{"query_index":0}`)); err == nil {
		t.Fatal("panicking request returned a response; hook did not fire")
	}

	// Compaction must merge and unlink the two old segments: if the panicked
	// request leaked its snapshot, their readers would stay pinned and the
	// files would survive.
	var comp CompactResponse
	if code, raw := postJSON(t, ts, "/v1/compact", `{}`, &comp); code != http.StatusOK || comp.Merged != 2 {
		t.Fatalf("compact after panic: status %d resp %+v body %s", code, comp, raw)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.lbseg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		names := make([]string, len(segs))
		for i, s := range segs {
			names[i] = filepath.Base(s)
		}
		t.Fatalf("segment files after compact: %v (leaked snapshot kept old readers open)", names)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Fatal(err)
	}

	// The admission slot was released too: the next request serves normally.
	var sr SearchResponse
	if code, raw := postJSON(t, ts, "/v1/search", `{"query_index":3}`, &sr); code != http.StatusOK {
		t.Fatalf("search after panic: status %d body %s", code, raw)
	}
	if len(sr.Results) != 1 || sr.Results[0].Dist != 0 {
		t.Fatalf("self-match after panic: %+v", sr.Results)
	}
}
