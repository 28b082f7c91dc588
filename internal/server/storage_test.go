package server

// Storage-plane dashboard tests: /debug/storage rendering and formats, the
// shapeserver_segment_* metric families joining a parseable /metrics, and
// the snapshot-lifecycle regression — a handler panic must not leak its
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

// newObservedStoreServer builds a store-backed server with storage-plane
// observability attached, returning the store directory for on-disk asserts.
func newObservedStoreServer(t *testing.T, cfg Config) (string, *segment.DB, *storeobs.Recorder, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	db, err := segment.OpenDB(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rec := storeobs.NewRecorder(storeobs.Config{})
	db.SetObserver(rec)
	cfg.Store = db
	cfg.StoreObs = rec
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return dir, db, rec, ts
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
	_, db, rec, ts := newObservedStoreServer(t, Config{})
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
	// Record fetches (the index path) flow through ObserveFetch; the row
	// scans above only feed the byte/page accountants.
	for id := 0; id < 4; id++ {
		db.Fetch(id)
	}

	// HTML renders with the heatmap, timeline, and journal sections.
	code, page := getBody(t, ts, "/debug/storage")
	if code != http.StatusOK {
		t.Fatalf("/debug/storage: status %d", code)
	}
	for _, want := range []string{"segment heatmap", "event journal", "ingest timeline", "segment_compacted", ".lbseg"} {
		if !strings.Contains(page, want) {
			t.Errorf("/debug/storage missing %q", want)
		}
	}

	// JSON report carries the joined per-segment rows and journal counts.
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
		t.Fatalf("record join: report %d segment %d", rep.Records, rep.Segments[0].Records)
	}
	if rep.Totals.Fetches() != 4 || rep.Totals.RequestedBytes == 0 {
		t.Fatalf("fetch totals: %+v", rep.Totals)
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
	if int64(len(lines)) != rec.Journal().Len() {
		t.Fatalf("jsonl lines %d != journal len %d", len(lines), rec.Journal().Len())
	}
	for _, line := range lines {
		var ev storeobs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("jsonl line %q: %v", line, err)
		}
	}
}

// TestStoreObsMetricsParse pins the composite /metrics page with storage
// observability enabled: every family — library, server, storeobs, and the
// per-segment heat — must survive the strict exposition parser, and the
// store's fetch counter must reconcile exactly with the recorder's.
func TestStoreObsMetricsParse(t *testing.T) {
	_, db, rec, ts := newObservedStoreServer(t, Config{})
	if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(31, 8, 32)), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", code, raw)
	}
	if code, raw := postJSON(t, ts, "/v1/search", `{"query_index":3,"strategy":"brute"}`, nil); code != http.StatusOK {
		t.Fatalf("search: status %d body %s", code, raw)
	}
	for id := 0; id < 8; id++ {
		db.Fetch(id)
	}

	code, body := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	exp, err := expofmt.Parse(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	fetches := exp.Counter("lbkeogh_store_fetches_total", map[string]string{"temperature": "cold"}) +
		exp.Counter("lbkeogh_store_fetches_total", map[string]string{"temperature": "warm"})
	reads := exp.Counter("shapeserver_store_reads_total", nil)
	if fetches == 0 || fetches != reads {
		t.Fatalf("recorder fetches %d != store reads %d", fetches, reads)
	}
	if got := rec.Totals().Fetches(); got != fetches {
		t.Fatalf("recorder totals %d != exposed %d", got, fetches)
	}

	for _, name := range []string{
		"shapeserver_segment_reads_total",
		"shapeserver_segment_read_bytes_total",
		"shapeserver_segment_file_bytes",
		"shapeserver_segment_touched_fraction",
		"lbkeogh_store_requested_bytes_total",
		"lbkeogh_store_read_amplification",
		"lbkeogh_store_journal_events_total",
	} {
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
		t.Fatalf("/debug/storage without observer: status %d body %s", code, raw)
	}
}

// TestHandlerPanicReleasesSnapshot is the snapshot-lifecycle regression: a
// search handler that panics mid-request (net/http recovers it) must still
// release its pinned snapshot through the deferred release, so a later
// compaction can unlink the merged-away segment files. A leaked snapshot
// would keep the old generation's readers open forever.
func TestHandlerPanicReleasesSnapshot(t *testing.T) {
	panics := make(chan struct{}, 1)
	dir, _, _, ts := newObservedStoreServer(t, Config{BeforeSearchHook: func(ctx context.Context) context.Context {
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
