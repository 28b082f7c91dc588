package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"lbkeogh"
	"lbkeogh/internal/segment"
)

// FuzzSearchRequest sends arbitrary bodies to the three search endpoints of
// a small static server — the request decoder, its validation, the library's
// refusals of what the server leaves to it (rotation limit, range threshold,
// top-K clamp) and the search behind it. Nothing may panic or answer 5xx,
// except 504 for a request that set its own deadline (timeout_ms) and ran
// out of it; every 200 decodes into a response whose stats reconcile.
func FuzzSearchRequest(f *testing.F) {
	db := lbkeogh.SyntheticProjectilePoints(7, 12, 24)
	series, _ := json.Marshal(db[5])
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"query_index":0}`},
		{0, `{"query_index":3,"measure":"dtw","r":4,"explain":true}`},
		{0, `{"query_index":2,"strategy":"brute"}`},
		{0, `{"query_index":2,"parallel":4}`},
		{0, `{"series":` + string(series) + `,"mirror":true}`},
		{0, `{"query_index":1,"max_degrees":180}`},
		{0, `{"query_index":1,"max_degrees":-1}`},
		{2, `{"query_index":6,"threshold":0}`},
		{2, `{"query_index":6,"measure":"dtw","threshold":-2}`},
		{1, `{"query_index":4,"k":-3}`},
		{0, `{"query_index":3,"measure":"dtw","r":-1}`},
		{1, `{"query_index":3,"measure":"lcss","r":-1,"k":2}`},
		{1, `{"query_index":5,"measure":"lcss","eps":0,"k":2}`},
		{1, `{"query_index":1,"k":3,"measure":"lcss","r":2,"eps":0.5}`},
		{1, `{"query_index":4,"k":-7,"max_degrees":30}`},
		{2, `{"query_index":6,"threshold":5}`},
		{2, `{"series":` + string(series) + `,"measure":"dtw","threshold":1e300,"timeout_ms":1}`},
		{0, `{"query_index":99}`},
		{0, `{"series":[1,2]}`},
		{0, `{"series":[1e200,-1e200,1e200,-1e200,1e200,-1e200,1e200,-1e200,1e200,-1e200,1e200,-1e200]}`},
		{1, `{"k":1e400}`},
		{2, `{"threshold":"x"}`},
		{0, `null`},
		{1, `[]`},
		{2, ``},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	srv, err := New(Config{DB: db})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	paths := [...]string{"/v1/search", "/v1/topk", "/v1/range"}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch code := rr.Code; {
		case code == http.StatusOK:
			var sr SearchResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &sr); err != nil {
				t.Fatalf("%s %q: 200 whose body does not decode: %v\n%s", path, body, err, rr.Body)
			}
			if !sr.Stats.Reconciles() {
				t.Fatalf("%s %q: stats do not reconcile: %+v", path, body, sr.Stats.Counts)
			}
		case code == http.StatusGatewayTimeout && ownDeadline(body):
		case code >= 500:
			t.Fatalf("%s %q: status %d: %s", path, body, code, rr.Body)
		}
	})
}

// ownDeadline reports whether body decodes as a request that set its own
// timeout_ms.
func ownDeadline(body []byte) bool {
	var req SearchRequest
	return json.Unmarshal(body, &req) == nil && req.TimeoutMS > 0
}

// FuzzMutateRequest sends arbitrary bodies to /v1/ingest and /v1/compact on a
// server over one temp-dir segment store, opened once per fuzz process, so
// the store carries every accepted batch into the next input: the first
// accepted ingest fixes the series length the later ones must match. Nothing
// may panic or answer 5xx. A 200 from ingest grows the store by exactly its
// count, and the rows read back bit for bit; a 200 from compact leaves the
// rows and reports the live segments.
func FuzzMutateRequest(f *testing.F) {
	rows := func(seed int64, m, n int) string {
		b, _ := json.Marshal(lbkeogh.SyntheticProjectilePoints(seed, m, n))
		return string(b)
	}
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"series":` + rows(1, 3, 16) + `}`}, // the first ingest fixes the length
		{0, `{"series":` + rows(2, 2, 16) + `,"labels":[7,8]}`},
		{0, `{"series":` + rows(3, 2, 16) + `,"labels":[7]}`},
		{0, `{"series":` + rows(4, 1, 12) + `}`},
		{0, `{"series":[[1,2,3],[4,5]]}`},
		{0, `{"series":[[1]]}`},
		{0, `{"series":[]}`},
		{0, `{"series":[[1e400,2]]}`},
		{0, `{"rows":[[1,2]]}`},
		{1, `{}`},
		{1, `{"min_records":0}`},
		{1, `{"min_records":-3}`},
		{1, `{"min_records":4}`},
		{1, ``},
		{1, `{"min_records":"x"}`},
		{0, `null`},
		{1, `[]`},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	db, err := segment.OpenDB(f.TempDir(), 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	srv, err := New(Config{Store: db})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	paths := [...]string{"/v1/ingest", "/v1/compact"}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		before := db.Len()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rr.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", path, body, rr.Code, rr.Body)
		}
		if rr.Code != http.StatusOK {
			if db.Len() != before {
				t.Fatalf("%s %q: refused with %d, yet the store went from %d to %d rows", path, body, rr.Code, before, db.Len())
			}
			return
		}
		if path == "/v1/compact" {
			var cr CompactResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &cr); err != nil {
				t.Fatalf("compact %q: 200 whose body does not decode: %v", body, err)
			}
			if db.Len() != before || cr.Segments != len(db.Stats().Segments) {
				t.Fatalf("compact %q: %d rows -> %d, reports %d segments of %d", body, before, db.Len(), cr.Segments, len(db.Stats().Segments))
			}
			return
		}
		var ir IngestResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &ir); err != nil {
			t.Fatalf("ingest %q: 200 whose body does not decode: %v", body, err)
		}
		if db.Len() != before+ir.Count || ir.FirstID != int64(before) {
			t.Fatalf("ingest %q: %d rows -> %d, response first_id %d count %d", body, before, db.Len(), ir.FirstID, ir.Count)
		}
		var req IngestRequest
		if err := json.Unmarshal(body, &req); err != nil || len(req.Series) != ir.Count {
			t.Fatalf("ingest %q: accepted a body that decodes to %d rows (%v), response count %d", body, len(req.Series), err, ir.Count)
		}
		for i, want := range req.Series {
			got := db.Fetch(before + i)
			if len(got) != len(want) {
				t.Fatalf("ingest %q: row %d reads back %d samples, want %d", body, i, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("ingest %q: row %d sample %d reads back %v, want %v", body, i, j, got[j], want[j])
				}
			}
		}
	})
}
