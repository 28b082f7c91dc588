package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lbkeogh"
)

// FuzzSearchRequest sends arbitrary bodies to the three search endpoints of
// a small static server — the request decoder, its validation and the search
// behind it. Nothing may panic or answer 5xx, except 504 for a request that
// set its own deadline (timeout_ms) and ran out of it; every 200 decodes
// into a response whose stats reconcile.
func FuzzSearchRequest(f *testing.F) {
	db := lbkeogh.SyntheticProjectilePoints(7, 12, 24)
	series, _ := json.Marshal(db[5])
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"query_index":0}`},
		{0, `{"query_index":3,"measure":"dtw","r":4,"explain":true}`},
		{0, `{"query_index":2,"strategy":"brute","parallel":4}`},
		{0, `{"series":` + string(series) + `,"strategy":"fft","mirror":true}`},
		{1, `{"query_index":1,"k":3,"measure":"lcss","r":2,"eps":0.5}`},
		{1, `{"query_index":4,"k":-7,"max_degrees":30}`},
		{2, `{"query_index":6,"threshold":5}`},
		{2, `{"series":` + string(series) + `,"measure":"dtw","threshold":1e300,"timeout_ms":1}`},
		{0, `{"query_index":99}`},
		{0, `{"series":[1,2]}`},
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
