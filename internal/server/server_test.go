package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lbkeogh"
	"lbkeogh/internal/obs/expofmt"
	"lbkeogh/internal/obs/ops"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = lbkeogh.SyntheticProjectilePoints(7, 20, 32)
		labels := make([]int, len(cfg.DB))
		for i := range labels {
			labels[i] = i % 3
		}
		cfg.Labels = labels
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, SearchResponse, string) {
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
	var sr SearchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatalf("%s: bad response JSON: %v\n%s", path, err, raw)
		}
	}
	return resp.StatusCode, sr, string(raw)
}

func TestServerSearchBasicAndPoolHit(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceLog: lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))})
	code, sr, raw := post(t, ts, "/v1/search", `{"query_index":0}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if len(sr.Results) != 1 || sr.Results[0].Index != 0 || sr.Results[0].Dist > 1e-9 {
		t.Fatalf("self search results = %+v", sr.Results)
	}
	if sr.Results[0].Label == nil || *sr.Results[0].Label != 0 {
		t.Fatalf("label = %v, want 0", sr.Results[0].Label)
	}
	if !sr.Stats.Reconciles() || sr.Stats.Comparisons == 0 {
		t.Fatalf("per-request stats bad: %+v", sr.Stats)
	}
	if sr.PoolHit {
		t.Fatal("first request cannot be a pool hit")
	}
	code, sr2, raw := post(t, ts, "/v1/search", `{"query_index":0}`)
	if code != http.StatusOK || !sr2.PoolHit {
		t.Fatalf("second request: status %d pool_hit %v (%s)", code, sr2.PoolHit, raw)
	}
	// Per-request stats cover only this search, not the cumulative session.
	if sr2.Stats.Comparisons != sr.Stats.Comparisons {
		t.Fatalf("per-request comparisons drifted: %d then %d", sr.Stats.Comparisons, sr2.Stats.Comparisons)
	}
	// The parallel path answers identically.
	code, sp, raw := post(t, ts, "/v1/search", `{"query_index":0,"parallel":2}`)
	if code != http.StatusOK || sp.Results[0].Index != 0 {
		t.Fatalf("parallel search: status %d %+v (%s)", code, sp.Results, raw)
	}
}

func TestServerTopKAndRange(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, tk, raw := post(t, ts, "/v1/topk", `{"query_index":2,"k":5}`)
	if code != http.StatusOK || len(tk.Results) != 5 {
		t.Fatalf("topk: status %d, %d results (%s)", code, len(tk.Results), raw)
	}
	for i := 1; i < len(tk.Results); i++ {
		if tk.Results[i-1].Dist > tk.Results[i].Dist {
			t.Fatalf("topk not ascending: %+v", tk.Results)
		}
	}
	threshold := tk.Results[3].Dist
	code, rg, raw := post(t, ts, "/v1/range", fmt.Sprintf(`{"query_index":2,"threshold":%g}`, threshold))
	if code != http.StatusOK {
		t.Fatalf("range: status %d (%s)", code, raw)
	}
	if len(rg.Results) != 3 {
		t.Fatalf("range below %g returned %d hits, want 3: %+v", threshold, len(rg.Results), rg.Results)
	}
	for i, h := range rg.Results {
		if h.Index != tk.Results[i].Index || h.Dist != tk.Results[i].Dist {
			t.Fatalf("range hit %d = %+v, want %+v", i, h, tk.Results[i])
		}
	}
}

func TestServerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/search", `{}`, http.StatusBadRequest},
		{"/v1/search", `{"query_index":0,"series":[1,2,3]}`, http.StatusBadRequest},
		{"/v1/search", `{"query_index":99}`, http.StatusBadRequest},
		{"/v1/search", `{"series":[1,2,3]}`, http.StatusBadRequest}, // length mismatch
		{"/v1/search", `{"query_index":0,"measure":"cosine"}`, http.StatusBadRequest},
		{"/v1/search", `{"query_index":0,"strategy":"magic"}`, http.StatusBadRequest},
		{"/v1/search", `{"query_index":0,"measure":"dtw","strategy":"fft"}`, http.StatusBadRequest},
		{"/v1/search", `{"query_index":0,"timeout_ms":-5}`, http.StatusBadRequest},
		{"/v1/search", `{"query_index":0,"bogus_field":1}`, http.StatusBadRequest},
		{"/v1/search", `not json`, http.StatusBadRequest},
		{"/v1/range", `{"query_index":0}`, http.StatusBadRequest}, // no threshold
	}
	for _, c := range cases {
		if code, _, raw := post(t, ts, c.path, c.body); code != c.want {
			t.Fatalf("%s %s: status %d, want %d (%s)", c.path, c.body, code, c.want, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search: status %d, want 405", resp.StatusCode)
	}
}

// pastDeadline is a BeforeSearchHook for the 504 tests: it holds the admitted
// request long past any deadline the test sets (1-2 ms), so the search is
// always cancelled before its first comparison, however fast the kernels are.
func pastDeadline(ctx context.Context) context.Context {
	time.Sleep(50 * time.Millisecond)
	return ctx
}

// pollBudget is a request context whose Err reports context.Canceled from its
// n-th poll on: a cancellation at a fixed checkpoint of the search, with no
// clock and no hook inside the library.
type pollBudget struct {
	context.Context
	left atomic.Int64
}

// cancelAtPoll wraps ctx in a pollBudget of n polls.
func cancelAtPoll(ctx context.Context, n int64) context.Context {
	c := &pollBudget{Context: ctx}
	c.left.Store(n)
	return c
}

func (c *pollBudget) Err() error {
	if c.left.Add(-1) <= 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestServerDeadline exercises the 504 path: the request's 1 ms deadline
// expires while the hook holds it, before the search runs. Such a request
// contributes nothing to the aggregate — no comparison, no rotation, no
// cancelled member (see SearchStats.Reconciles; a search cancelled mid-scan,
// whose undisposed rotations fill CancelledMembers, is
// TestServerCancelledMidScan) — and the session it checked out goes back to
// the pool usable.
func TestServerDeadline(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		DB:               lbkeogh.SyntheticProjectilePoints(11, 150, 64),
		BeforeSearchHook: pastDeadline,
	})
	code, _, raw := post(t, ts, "/v1/search", `{"query_index":0,"measure":"dtw","strategy":"brute","timeout_ms":1}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", code, raw)
	}
	if !strings.Contains(raw, "deadline") {
		t.Fatalf("error body should mention the deadline: %s", raw)
	}
	agg := srv.Stats()
	if agg.Comparisons != 0 || agg.Rotations != 0 || agg.CancelledMembers != 0 || !agg.Reconciles() {
		t.Fatalf("a search cancelled before its first comparison must contribute nothing: %+v", agg)
	}
	if srv.timeouts.Load() != 1 {
		t.Fatalf("timeout counter = %d, want 1", srv.timeouts.Load())
	}
	// The pooled session survived the cancellation: the same spec without a
	// deadline (10 s by default, so the hook's hold is harmless) must succeed
	// and reuse the session.
	code, sr, raw := post(t, ts, "/v1/search", `{"query_index":0,"measure":"dtw","strategy":"brute"}`)
	if code != http.StatusOK || !sr.PoolHit || sr.Results[0].Index != 0 {
		t.Fatalf("post-timeout reuse: status %d pool_hit %v %+v (%s)", code, sr.PoolHit, sr.Results, raw)
	}
	if agg := srv.Stats(); agg.Comparisons == 0 || !agg.Reconciles() {
		t.Fatalf("aggregate after the served search: %+v", agg)
	}
}

// TestServerCancelledMidScan cancels a request at a known point inside its
// scan — the hook hands the search a context that reports itself cancelled
// from its eighth poll on, a few comparisons in, so no clock is involved —
// and checks the handler's books: 503, and the rotations the search never
// disposed of merged into the server aggregate's CancelledMembers bucket.
func TestServerCancelledMidScan(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		DB:               lbkeogh.SyntheticProjectilePoints(11, 150, 64),
		BeforeSearchHook: func(ctx context.Context) context.Context { return cancelAtPoll(ctx, 8) },
	})
	const body = `{"query_index":0,"measure":"dtw","strategy":"early_abandon"}`
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "cancelled") {
		t.Fatalf("status %d, want 503 search cancelled (%s)", rec.Code, rec.Body)
	}
	agg := srv.Stats()
	if agg.Comparisons == 0 || agg.CancelledMembers == 0 || !agg.Reconciles() {
		t.Fatalf("aggregate after a mid-scan cancellation: %+v", agg)
	}
	if disposed := agg.Rotations - agg.CancelledMembers; disposed <= 0 {
		t.Fatalf("cancelled before anything was disposed of — not mid-scan: %+v", agg)
	}
	if srv.timeouts.Load() != 1 {
		t.Fatalf("timeout counter = %d, want 1", srv.timeouts.Load())
	}
}

// TestServerConcurrentSaturation drives the admission controller from 12
// parallel clients against a single in-flight slot with a one-deep queue.
// The first request admitted blocks in the hook until every request that
// must be shed has been, so the overlap is guaranteed, not timed: exactly two
// requests succeed (the holder and the one queued behind it), ten are shed
// with 429, and the books balance. Run under -race this doubles as the
// serving layer's data-race check.
func TestServerConcurrentSaturation(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		DB:          lbkeogh.SyntheticProjectilePoints(13, 120, 64),
		MaxInflight: 1,
		MaxQueue:    1,
		BeforeSearchHook: func(ctx context.Context) context.Context {
			<-gate
			return ctx
		},
	})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open) // a failed assertion must not leave requests parked
	const clients = 12
	codes := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/search", "application/json",
				strings.NewReader(`{"query_index":0,"measure":"dtw","strategy":"brute"}`))
			if err != nil {
				t.Error(err)
				codes <- 0
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// One request holds the slot inside the hook and one waits in the queue;
	// neither can answer before the gate opens, so the first ten answers are
	// the sheds.
	for i := 0; i < clients-2; i++ {
		if c := <-codes; c != http.StatusTooManyRequests {
			t.Fatalf("answer %d while the slot is held: status %d, want 429", i, c)
		}
	}
	open()
	for i := 0; i < 2; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("admitted request: status %d, want 200", c)
		}
	}
	ad := srv.adm.Stats()
	if ad.Rejected != clients-2 {
		t.Fatalf("admission counted %d rejections, clients saw %d", ad.Rejected, clients-2)
	}
	if ad.Inflight != 0 || ad.Waiting != 0 {
		t.Fatalf("gauges not drained: %+v", ad)
	}
	if agg := srv.Stats(); !agg.Reconciles() {
		t.Fatalf("aggregate does not reconcile after concurrent load: %+v", agg)
	}
}

// searchClassTotals reads the cumulative per-class outcome counters of the
// search endpoint off one /metrics scrape.
func searchClassTotals(exp *expofmt.Exposition) (classes map[string]int64, total int64) {
	classes = map[string]int64{}
	for _, s := range exp.Find("shapeserver_endpoint_requests_total") {
		if s.Labels["endpoint"] == "search" {
			classes[s.Labels["class"]] = int64(s.Value)
			total += int64(s.Value)
		}
	}
	return classes, total
}

// waitAdmission polls /livez until the admission gauges read inflight and
// waiting (or the deadline kills the test).
func waitAdmission(t *testing.T, ts *httptest.Server, inflight, waiting int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := getStatus(t, ts.URL+"/livez")
		var h healthResponse
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("/livez: %v\n%s", err, body)
		}
		if h.Admission.Inflight == inflight && h.Admission.Waiting == waiting {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for inflight %d / waiting %d (have %d / %d)",
				inflight, waiting, h.Admission.Inflight, h.Admission.Waiting)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionSemanticsOverHTTP drives the server past its admission bounds
// over HTTP and pins the full contract: queue-full requests get 429 with
// Retry-After, queued requests whose deadline expires get 504, released
// requests complete, and afterwards the cumulative /metrics counters agree
// exactly with the ten outcomes the client saw.
func TestAdmissionSemanticsOverHTTP(t *testing.T) {
	started := make(chan struct{}, 2) // one send per admitted search
	gate := make(chan struct{})
	_, ts := newTestServer(t, Config{
		DB:          lbkeogh.SyntheticProjectilePoints(3, 12, 32),
		MaxInflight: 2,
		MaxQueue:    2,
		BeforeSearchHook: func(ctx context.Context) context.Context {
			started <- struct{}{}
			<-gate
			return ctx
		},
	})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open) // a failed assertion must not leave requests parked

	type answer struct {
		code       int
		retryAfter string
	}
	search := func(body string) answer {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return answer{}
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return answer{resp.StatusCode, resp.Header.Get("Retry-After")}
	}
	before := scrapeMetrics(t, ts)
	beforeClasses, beforeTotal := searchClassTotals(before)

	// Two requests fill the in-flight slots and block inside the hook.
	blockers := make(chan answer, 2)
	for i := 0; i < 2; i++ {
		go func() { blockers <- search(`{"query_index":0,"timeout_ms":10000}`) }()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("blockers never reached the search hook")
		}
	}

	// Two more requests with short deadlines occupy the wait queue.
	queued := make(chan answer, 2)
	for i := 0; i < 2; i++ {
		go func() { queued <- search(`{"query_index":1,"timeout_ms":400}`) }()
	}
	waitAdmission(t, ts, 2, 2)

	// With slots and queue full, further requests are shed immediately.
	for i := 0; i < 6; i++ {
		a := search(`{"query_index":2,"timeout_ms":400}`)
		if a.code != http.StatusTooManyRequests {
			t.Fatalf("shed request %d: status %d, want 429", i, a.code)
		}
		if a.retryAfter == "" {
			t.Errorf("429 without Retry-After")
		}
	}

	// The queued pair's deadlines expire while still waiting.
	for i := 0; i < 2; i++ {
		if a := <-queued; a.code != http.StatusGatewayTimeout {
			t.Fatalf("queued request: status %d, want 504", a.code)
		}
	}

	// Release the gate; the blocked pair completes normally.
	open()
	for i := 0; i < 2; i++ {
		if a := <-blockers; a.code != http.StatusOK {
			t.Fatalf("released request: status %d, want 200", a.code)
		}
	}
	waitAdmission(t, ts, 0, 0)

	// The server records a request's terminal outcome after writing its
	// response, so a client that has just read its last body can race a
	// scrape by a scheduler quantum: poll until all ten outcomes are counted.
	var after *expofmt.Exposition
	var afterClasses map[string]int64
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		after = scrapeMetrics(t, ts)
		var afterTotal int64
		afterClasses, afterTotal = searchClassTotals(after)
		if afterTotal-beforeTotal >= 10 || time.Now().After(deadline) {
			break
		}
	}
	want := map[string]int64{"ok": 2, "rejected": 6, "timeout": 2}
	for _, class := range ops.ClassNames() {
		if d := afterClasses[class] - beforeClasses[class]; d != want[class] {
			t.Errorf("search class %q delta = %d, want %d", class, d, want[class])
		}
	}
	if d := after.Counter("shapeserver_admitted_total", nil) - before.Counter("shapeserver_admitted_total", nil); d != 2 {
		t.Errorf("admitted delta = %d, want 2", d)
	}
	if d := after.Counter("shapeserver_rejected_total", nil) - before.Counter("shapeserver_rejected_total", nil); d != 6 {
		t.Errorf("rejected delta = %d, want 6", d)
	}
}

func TestServerDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if code, _, _ := post(t, ts, "/v1/search", `{"query_index":0}`); code != http.StatusOK {
		t.Fatalf("pre-drain search failed: %d", code)
	}
	srv.BeginDrain()
	code, _, raw := post(t, ts, "/v1/search", `{"query_index":0}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining search: status %d, want 503 (%s)", code, raw)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// /healthz aliases liveness: it stays "ok" (200) through a drain and
	// reports the drain as a flag; routing decisions belong to /readyz.
	if h.Status != "ok" || !h.Draining || h.Admission.Admitted != 1 {
		t.Fatalf("healthz = %+v", h)
	}
	if srv.drained.Load() == 0 {
		t.Fatal("drained counter not bumped")
	}
}

func TestServerMetricsAndDebug(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceLog: lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))})
	if code, _, _ := post(t, ts, "/v1/search", `{"query_index":1}`); code != http.StatusOK {
		t.Fatalf("search failed: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"shapeserver_comparisons", "shapeserver_admitted_total",
		"shapeserver_pool_misses_total", "shapeserver_rejected_total",
		"shapeserver_inflight", "shapeserver_draining",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	resp, err = http.Get(ts.URL + "/debug/lbkeogh")
	if err != nil {
		t.Fatal(err)
	}
	dash, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(dash), "shapeserver") {
		t.Fatalf("/debug/lbkeogh: status %d", resp.StatusCode)
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for empty database")
	}
	if _, err := New(Config{DB: []lbkeogh.Series{{1, 2, 3}, {1, 2}}}); err == nil {
		t.Fatal("want error for ragged database")
	}
	if _, err := New(Config{DB: []lbkeogh.Series{{1, 2, 3}, {4, 5, 6}}, Labels: []int{1}}); err == nil {
		t.Fatal("want error for label count mismatch")
	}
}

func TestServerDefaultTimeoutApplies(t *testing.T) {
	// A tiny server-wide default deadline must bound requests that ask for
	// nothing — and clamp ones that ask for more than the maximum.
	_, ts := newTestServer(t, Config{
		DB:               lbkeogh.SyntheticProjectilePoints(17, 150, 64),
		DefaultTimeout:   time.Millisecond,
		MaxTimeout:       2 * time.Millisecond,
		BeforeSearchHook: pastDeadline,
	})
	if code, _, raw := post(t, ts, "/v1/search", `{"query_index":0,"measure":"dtw","strategy":"brute"}`); code != http.StatusGatewayTimeout {
		t.Fatalf("default deadline: status %d, want 504 (%s)", code, raw)
	}
	if code, _, raw := post(t, ts, "/v1/search", `{"query_index":0,"measure":"dtw","strategy":"brute","timeout_ms":60000}`); code != http.StatusGatewayTimeout {
		t.Fatalf("clamped deadline: status %d, want 504 (%s)", code, raw)
	}
}

// A timeout_ms past what a time.Duration holds in nanoseconds is clamped to
// MaxTimeout like any other too-large request, not wrapped into an
// already-expired deadline.
func TestServerHugeTimeoutClampsToMax(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{1, time.Millisecond},
		{60000, 60 * time.Second},
		{60001, 60 * time.Second},
		{9300000000000, 60 * time.Second},
		{math.MaxInt64, 60 * time.Second},
	} {
		body := fmt.Sprintf(`{"query_index":0,"timeout_ms":%d}`, tc.ms)
		_, _, timeout, err := srv.parse(httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)), kindNearest, srv.cfg.DB)
		if err != nil || timeout != tc.want {
			t.Errorf("timeout_ms %d parsed to %v (err %v), want %v", tc.ms, timeout, err, tc.want)
		}
	}
	if code, _, raw := post(t, ts, "/v1/search", `{"query_index":0,"timeout_ms":9300000000000}`); code != http.StatusOK {
		t.Fatalf("timeout_ms 9300000000000: status %d, want 200 (%s)", code, raw)
	}
}

// TestServerParallelClamped pins the body's parallel knob: whatever worker
// count a request asks for, it is clamped to GOMAXPROCS before the search,
// answers exactly like the serial path, reconciles, and leaves no goroutine
// behind.
func TestServerParallelClamped(t *testing.T) {
	srv, ts := newTestServer(t, Config{DB: lbkeogh.SyntheticProjectilePoints(11, 300, 32)})
	code, serial, raw := post(t, ts, "/v1/search", `{"series":`+seriesJSON(srv.cfg.DB[3], 0.01)+`}`)
	if code != http.StatusOK {
		t.Fatalf("serial: status %d (%s)", code, raw)
	}
	baseline := runtime.NumGoroutine() // after the keep-alive connection exists
	for _, parallel := range []int{2, 1 << 30} {
		body := fmt.Sprintf(`{"series":%s,"parallel":%d}`, seriesJSON(srv.cfg.DB[3], 0.01), parallel)
		req, _, _, err := srv.parse(httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)), kindNearest, srv.cfg.DB)
		if err != nil || req.Parallel > runtime.GOMAXPROCS(0) {
			t.Fatalf("parallel %d parsed to %d workers (err %v), GOMAXPROCS %d", parallel, req.Parallel, err, runtime.GOMAXPROCS(0))
		}
		code, sr, raw := post(t, ts, "/v1/search", body)
		if code != http.StatusOK {
			t.Fatalf("parallel %d: status %d (%s)", parallel, code, raw)
		}
		if !reflect.DeepEqual(sr.Results, serial.Results) {
			t.Errorf("parallel %d answered %+v, serial %+v", parallel, sr.Results, serial.Results)
		}
		// The parallel scan re-checks the rows before its answer for an
		// equal-distance tie, so it runs a few comparisons more than serial.
		if !sr.Stats.Reconciles() || sr.Stats.Comparisons < serial.Stats.Comparisons {
			t.Errorf("parallel %d stats: reconciles %v, %d comparisons (serial %d)",
				parallel, sr.Stats.Reconciles(), sr.Stats.Comparisons, serial.Stats.Comparisons)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after the parallel searches, %d before", n, baseline)
	}
}

// seriesJSON renders row shifted by delta, so the query is near but not equal
// to a database row.
func seriesJSON(row lbkeogh.Series, delta float64) string {
	shifted := make([]float64, len(row))
	for i, v := range row {
		shifted[i] = v + delta*float64(i%3)
	}
	raw, _ := json.Marshal(shifted)
	return string(raw)
}
