package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"lbkeogh"
	"lbkeogh/internal/obs/ops"
)

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestProbeSplitAcrossDrain covers the livez/readyz contract through a drain
// transition: liveness never flips, readiness does, and /healthz aliases
// liveness.
func TestProbeSplitAcrossDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for _, path := range []string{"/livez", "/healthz", "/readyz"} {
		if code, body := getStatus(t, ts.URL+path); code != http.StatusOK {
			t.Fatalf("%s before drain: %d (%s)", path, code, body)
		}
	}
	if _, body := getStatus(t, ts.URL+"/readyz"); !strings.Contains(body, `"ready"`) {
		t.Fatalf("readyz body = %s", body)
	}

	srv.BeginDrain()
	if code, body := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, `"draining"`) {
		t.Fatalf("readyz during drain: %d (%s), want 503 draining", code, body)
	}
	for _, path := range []string{"/livez", "/healthz"} {
		code, body := getStatus(t, ts.URL+path)
		if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
			t.Fatalf("%s during drain: %d (%s), want 200 ok", path, code, body)
		}
		if !strings.Contains(body, `"draining": true`) {
			t.Fatalf("%s during drain does not report the flag: %s", path, body)
		}
	}
}

// TestRequestLogCarriesIDs decodes the structured request log and checks the
// request ID matches the X-Request-ID header and the trace ID matches the
// response body.
func TestRequestLogCarriesIDs(t *testing.T) {
	var logBuf bytes.Buffer
	_, ts := newTestServer(t, Config{
		Logger:   ops.NewLogger(&logBuf, "json", "info"),
		TraceLog: lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1)),
	})
	resp, err := http.Post(ts.URL+"/v1/search", "application/json",
		strings.NewReader(`{"query_index":0}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rid := resp.Header.Get("X-Request-ID")
	if rid == "" {
		t.Fatal("response has no X-Request-ID header")
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.TraceID == 0 {
		t.Fatal("response trace_id is 0 with sample rate 1")
	}

	var entry struct {
		Msg       string  `json:"msg"`
		RequestID string  `json:"request_id"`
		TraceID   int64   `json:"trace_id"`
		Endpoint  string  `json:"endpoint"`
		Strategy  string  `json:"strategy"`
		Status    int     `json:"status"`
		DurMS     float64 `json:"dur_ms"`
		PoolHit   *bool   `json:"pool_hit"`
	}
	found := false
	for _, line := range bytes.Split(logBuf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &entry); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if entry.Msg == "search served" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no 'search served' line in log:\n%s", logBuf.String())
	}
	if entry.RequestID != rid {
		t.Errorf("log request_id %q != header %q", entry.RequestID, rid)
	}
	if entry.TraceID != sr.TraceID {
		t.Errorf("log trace_id %d != response %d", entry.TraceID, sr.TraceID)
	}
	if entry.Endpoint != "search" || entry.Strategy != "wedge" || entry.Status != 200 {
		t.Errorf("log fields wrong: %+v", entry)
	}
	if entry.PoolHit == nil || entry.DurMS <= 0 {
		t.Errorf("log missing pool_hit/dur_ms: %+v", entry)
	}
}

// TestRefusalsAreLoggedAndCounted drives the non-success paths and checks
// they land in the log and the endpoint's RED record with the right classes.
func TestRefusalsAreLoggedAndCounted(t *testing.T) {
	var logBuf bytes.Buffer
	srv, ts := newTestServer(t, Config{Logger: ops.NewLogger(&logBuf, "json", "info")})
	if code, _, _ := post(t, ts, "/v1/search", `{"bogus":1}`); code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", code)
	}
	srv.BeginDrain()
	if code, _, _ := post(t, ts, "/v1/search", `{"query_index":0}`); code != http.StatusServiceUnavailable {
		t.Fatalf("draining: %d", code)
	}
	snap := srv.tel.endpoints["search"].Snapshot()
	if snap.Classes["client"] != 1 || snap.Classes["server"] != 1 {
		t.Fatalf("record classes = %+v", snap.Classes)
	}
	for _, want := range []string{`"msg":"bad request"`, `"msg":"refused: draining"`, `"msg":"drain started"`} {
		if !strings.Contains(logBuf.String(), want) {
			t.Errorf("log missing %s:\n%s", want, logBuf.String())
		}
	}
}

// TestMetricsUnderConcurrentLoad hammers one endpoint from 8 goroutines
// while a reader scrapes /metrics — meaningful under -race (make race runs
// this package).
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxInflight: 4,
		TraceLog:    lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1)),
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body := fmt.Sprintf(`{"query_index":%d}`, (g+i)%4)
				resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining the body
				resp.Body.Close()
			}
		}(g)
	}
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining the body
			resp.Body.Close()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	scraper.Wait()

	exp := scrapeMetrics(t, ts) // and the body is 0.0.4 text after traced load
	for _, want := range []struct {
		name   string
		labels map[string]string
		v      int64
	}{
		{"shapeserver_endpoint_requests_total", map[string]string{"endpoint": "search", "class": "ok"}, 80},
		{"shapeserver_request_duration_seconds_count", map[string]string{"endpoint": "search"}, 80},
	} {
		if got := exp.Counter(want.name, want.labels); got != want.v {
			t.Errorf("%s%v = %d after load, want %d", want.name, want.labels, got, want.v)
		}
	}
	for _, fam := range []string{"shapeserver_request_duration_seconds_bucket", "lbkeogh_runtime_goroutines"} {
		if len(exp.Find(fam)) == 0 {
			t.Errorf("/metrics has no %s after load", fam)
		}
	}
}
