package server

// Storage-plane dashboard tests: /debug/storage rendering and formats, the
// journal's metric family joining a parseable /metrics, and the
// snapshot-lifecycle regression — a handler panic must not leak its
// pinned snapshot, or compaction could never unlink merged-away segments.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbkeogh/internal/obs/expofmt"
	"lbkeogh/internal/obs/storeobs"
	"lbkeogh/internal/segment"
)

// newJournaledStoreServer builds a store-backed server whose store has a
// storage event journal attached, returning the store directory for on-disk
// asserts.
func newJournaledStoreServer(t *testing.T, cfg Config) (string, *storeobs.Journal, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	db, err := segment.OpenDB(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	j := storeobs.NewJournal(0, nil)
	db.SetJournal(j)
	cfg.Store = db
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return dir, j, ts
}

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

func TestDebugStoragePage(t *testing.T) {
	_, j, ts := newJournaledStoreServer(t, Config{})
	if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(21, 6, 32)), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", code, raw)
	}
	if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(22, 4, 32)), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", code, raw)
	}
	if code, raw := postJSON(t, ts, "/v1/search", `{"query_index":0,"strategy":"brute"}`, nil); code != http.StatusOK {
		t.Fatalf("search: status %d body %s", code, raw)
	}
	if code, raw := postJSON(t, ts, "/v1/compact", `{}`, nil); code != http.StatusOK {
		t.Fatalf("compact: status %d body %s", code, raw)
	}
	// HTML renders with the segment list, timeline, and journal sections.
	code, page := getBody(t, ts, "/debug/storage")
	if code != http.StatusOK {
		t.Fatalf("/debug/storage: status %d", code)
	}
	for _, want := range []string{"live segments", "event journal", "ingest timeline", "segment_compacted", ".lbseg"} {
		if !strings.Contains(page, want) {
			t.Errorf("/debug/storage missing %q", want)
		}
	}

	// JSON report carries the segment list and journal counts.
	code, raw := getBody(t, ts, "/debug/storage?format=json")
	if code != http.StatusOK {
		t.Fatalf("?format=json: status %d", code)
	}
	var rep StorageReport
	if err := json.Unmarshal([]byte(raw), &rep); err != nil {
		t.Fatalf("report JSON: %v\n%s", err, raw)
	}
	if len(rep.Segments) != 1 {
		t.Fatalf("segments after compact: %+v", rep.Segments)
	}
	if rep.Records != 10 || rep.Segments[0].Records != 10 {
		t.Fatalf("records: report %d segment %d", rep.Records, rep.Segments[0].Records)
	}
	if rep.JournalCounts[storeobs.EventSegmentCompacted] != 1 ||
		rep.JournalCounts[storeobs.EventIngestBatch] != 2 {
		t.Fatalf("journal counts: %+v", rep.JournalCounts)
	}
	if len(rep.Journal) == 0 {
		t.Fatal("empty journal tail")
	}

	// JSONL streams one valid event object per line.
	code, raw = getBody(t, ts, "/debug/storage?format=jsonl")
	if code != http.StatusOK {
		t.Fatalf("?format=jsonl: status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(raw), "\n")
	if int64(len(lines)) != j.Len() {
		t.Fatalf("jsonl lines %d != journal len %d", len(lines), j.Len())
	}
	for _, line := range lines {
		var ev storeobs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("jsonl line %q: %v", line, err)
		}
	}
}

// TestStoreMetricsParse pins the composite /metrics page of a store-backed
// server with a journal attached: every family — library, server, store and
// journal — must survive the strict exposition parser, and the journal's is
// the only lbkeogh_store_ family.
func TestStoreMetricsParse(t *testing.T) {
	_, _, ts := newJournaledStoreServer(t, Config{})
	if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(31, 8, 32)), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", code, raw)
	}
	if code, raw := postJSON(t, ts, "/v1/search", `{"query_index":3,"strategy":"brute"}`, nil); code != http.StatusOK {
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
		if strings.HasPrefix(fam, "lbkeogh_store_") && fam != "lbkeogh_store_journal_events_total" {
			t.Errorf("metrics serve %s beside the journal's family", fam)
		}
	}
	for _, name := range []string{"shapeserver_store_ingests_total", "shapeserver_store_segment_records"} {
		if len(exp.Find(name)) == 0 {
			t.Errorf("metrics missing family %s", name)
		}
	}
	if v, ok := exp.Value("lbkeogh_store_journal_events_total", map[string]string{"kind": "ingest_batch"}); !ok || v != 1 {
		t.Errorf("journal ingest_batch metric = %v ok=%v, want 1", v, ok)
	}
}

func TestDebugStorageDisabledOutsideStoreObs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, raw := getBody(t, ts, "/debug/storage")
	if code != http.StatusNotFound || !strings.Contains(raw, "not enabled") {
		t.Fatalf("/debug/storage without a store: status %d body %s", code, raw)
	}
}

// TestHandlerPanicReleasesSnapshot is the snapshot-lifecycle regression: a
// search handler that panics mid-request (net/http recovers it) must still
// release its pinned snapshot through the deferred release, so a later
// compaction can unlink the merged-away segment files. A leaked snapshot
// would keep the old generation's readers open forever.
func TestHandlerPanicReleasesSnapshot(t *testing.T) {
	panics := make(chan struct{}, 1)
	dir, _, ts := newJournaledStoreServer(t, Config{BeforeSearchHook: func(ctx context.Context) context.Context {
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
