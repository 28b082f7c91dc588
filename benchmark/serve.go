package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lbkeogh"
	"lbkeogh/internal/obs/ops"
	"lbkeogh/internal/server"
	"lbkeogh/internal/synth"
	"lbkeogh/internal/wedge"
)

// request is one generated /v1 call.
type request struct {
	endpoint string // search, topk or range
	spec     int    // which query series
	body     []byte
}

// reply is one response, reduced to what the checks compare.
type reply struct {
	status int
	hits   []answer
	raw    server.SearchResponse
}

func (r reply) same(o reply) bool {
	if len(r.hits) != len(o.hits) {
		return false
	}
	for i := range r.hits {
		if r.hits[i] != o.hits[i] {
			return false
		}
	}
	return true
}

// service is one in-process shapeserver with shapeserver's defaults —
// inflight 4, queue 16, pool 32, trace log on, explain sampler 1/512, JSON
// slog (to io.Discard), profiler off — behind a real loopback listener.
type service struct {
	srv    *server.Server
	http   *http.Server
	client *http.Client
	base   string
	served chan error
}

func startService(db [][]float64, clients int) (*service, error) {
	srv, err := server.New(server.Config{
		DB:             db,
		MaxInflight:    4,
		MaxQueue:       16,
		PoolSize:       32,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     60 * time.Second,
		TraceLog:       lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1.0)),
		Logger:         ops.NewLogger(io.Discard, "json", "info"),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.http.Shutdown(ctx) //nolint:errcheck // the goroutine below is what must end
	<-s.served
	s.client.CloseIdleConnections()
}

func parseReply(status int, body []byte) (reply, error) {
	r := reply{status: status}
	if status != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &r.raw); err != nil {
		return r, err
	}
	for _, h := range r.raw.Results {
		r.hits = append(r.hits, answer{h.Index, h.Dist})
	}
	if !r.raw.Stats.Reconciles() {
		return r, fmt.Errorf("response stats do not reconcile")
	}
	return r, nil
}

// do sends one request over the loopback connection.
func (s *service) do(rq request) (reply, error) {
	resp, err := s.client.Post(s.base+"/v1/"+rq.endpoint, "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{status: resp.StatusCode}, err
	}
	return parseReply(resp.StatusCode, body)
}

// handle sends one request straight into the handler, with no transport.
func (s *service) handle(rq request) (reply, error) {
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, "/v1/"+rq.endpoint, bytes.NewReader(rq.body))
	s.srv.Handler().ServeHTTP(rec, hr)
	return parseReply(rec.Code, rec.Body.Bytes())
}

// checkReply is the structural check of one response.
func checkReply(rq request, r reply, m int) error {
	if rq.endpoint != "range" && len(r.hits) == 0 {
		return fmt.Errorf("%s returned no results", rq.endpoint)
	}
	for _, h := range r.hits {
		if err := validAnswer(h, m); err != nil {
			return err
		}
	}
	return nil
}

// serveInputs is serve-mix's generated traffic: one pass of requests over
// hot and fresh query specs, and the range threshold they use.
type serveInputs struct {
	*inputs
	pass      []request
	threshold float64
}

func generateServe(sz size, seed int64) (*serveInputs, error) {
	in := &serveInputs{inputs: generate(synth.ProjectilePoints, sz, 0, seed)}
	// Range threshold: 1.5 × the median nearest-neighbour distance.
	var nn []float64
	for _, s := range in.queries[:min(32, len(in.queries))] {
		q, err := lbkeogh.NewQuery(s, lbkeogh.Euclidean())
		if err != nil {
			return nil, err
		}
		res, err := q.Search(in.db)
		if err != nil {
			return nil, err
		}
		nn = append(nn, res.Dist)
	}
	sort.Float64s(nn)
	in.threshold = 1.5 * nn[len(nn)/2]

	// One pass holds the mix exactly — search 0.5, topk 0.25, range 0.25,
	// each half on the hot specs (the first sz.Hot queries, by turns) and
	// half on fresh ones — in a seeded order. A drawn mix would move the
	// share of the dearest endpoint, and with it op_p50_ms, between seeds.
	fresh := sz.Hot
	for j := 0; j < sz.PassLen; j++ {
		rq := request{endpoint: []string{"search", "topk", "search", "range"}[j%4]}
		if j/4%2 == 0 {
			rq.spec = j / 8 % sz.Hot
		} else {
			rq.spec = fresh
			if fresh++; fresh == len(in.queries) {
				fresh = sz.Hot
			}
		}
		in.pass = append(in.pass, rq)
	}
	in.rng.Shuffle(len(in.pass), func(i, j int) { in.pass[i], in.pass[j] = in.pass[j], in.pass[i] })
	for j := range in.pass {
		rq := &in.pass[j]
		body := server.SearchRequest{Series: in.queries[rq.spec], TimeoutMS: sz.TimeoutMS}
		switch rq.endpoint {
		case "topk":
			body.K = sz.TopK
		case "range":
			body.Threshold = in.threshold
		}
		var err error
		if rq.body, err = json.Marshal(body); err != nil {
			return nil, err
		}
		in.hashBytes(rq.body)
	}
	return in, nil
}

// direct answers a request with library calls alone: the oracle, and the
// paired "library share" of the traced run. q == nil builds the query.
func (in *serveInputs) direct(rq request, sz size, q *lbkeogh.Query) (*lbkeogh.Query, []answer, error) {
	var err error
	if q == nil {
		if q, err = lbkeogh.NewQuery(in.queries[rq.spec], lbkeogh.Euclidean()); err != nil {
			return nil, nil, err
		}
	}
	var res []lbkeogh.SearchResult
	switch rq.endpoint {
	case "topk":
		res, err = q.SearchTopK(in.db, sz.TopK)
	case "range":
		res, err = q.SearchRange(in.db, in.threshold)
	default:
		var one lbkeogh.SearchResult
		one, err = q.Search(in.db)
		res = []lbkeogh.SearchResult{one}
	}
	out := make([]answer, len(res))
	for i, r := range res {
		out[i] = answer{r.Index, r.Dist}
	}
	return q, out, err
}

// sameHits compares a response with the library's answer: the same rows in
// the same order, distances within the oracle's tolerance.
func sameHits(a, b []answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || !closeTo(a[i].Dist, b[i].Dist) {
			return false
		}
	}
	return true
}

// runServe is serve-mix.
func runServe(b *bench, w io.Writer) error {
	sz := b.sz
	clients := runtime.GOMAXPROCS(0)
	var in *serveInputs
	var err error
	b.timeGen(func() { in, err = generateServe(sz, b.seed) })
	if err != nil {
		return err
	}
	for _, rq := range in.pass {
		b.requests = append(b.requests, rq.body)
	}

	var svc *service
	teardown, err := b.setup(func() (func(), error) {
		var err error
		if svc, err = startService(in.db, clients); err != nil {
			return nil, err
		}
		for i := 0; i < sz.Warmup; i++ {
			if _, err := svc.do(in.pass[i%len(in.pass)]); err != nil {
				svc.stop()
				return nil, err
			}
		}
		return svc.stop, nil
	})
	if err != nil {
		return err
	}
	defer func() { teardown() }()

	// Closed loop: `clients` callers, each sending its next request when the
	// previous one completes.
	L := len(in.pass)
	first := make([]reply, L)
	var lat samples
	var mu sync.Mutex
	closedPass := func(p int) {
		passLat := make(samples, L)
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= L {
						return
					}
					t := time.Now()
					r, err := svc.do(in.pass[j])
					passLat[j] = int64(time.Since(t))
					if err == nil {
						err = checkReply(in.pass[j], r, sz.M)
					}
					mu.Lock()
					switch {
					case err != nil:
						b.fail("request %d (%s): %v", j, in.pass[j].endpoint, err)
					case p == 0:
						first[j] = r
					case !r.same(first[j]):
						b.fail("request %d: pass %d answered %v, pass 0 %v", j, p, r.hits, first[j].hits)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		lat = append(lat, passLat...)
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	walls := b.passes(L, closedPass)
	b.reportMem(&mem, len(lat))
	var steps int64
	for _, r := range first {
		steps += r.raw.Stats.Steps
	}
	b.finishOps(lat, L, walls, steps, L)

	// Per-endpoint and pool split of the first pass.
	split := map[string]samples{}
	hits := 0
	for j, r := range first {
		split[in.pass[j].endpoint] = append(split[in.pass[j].endpoint], lat[j])
		if r.raw.PoolHit {
			hits++
			split["hit"] = append(split["hit"], lat[j])
		} else {
			split["miss"] = append(split["miss"], lat[j])
		}
	}
	for _, ep := range []string{"search", "topk", "range"} {
		b.setMedian("server.ep_ms_p50."+ep, split[ep], 1e6)
	}
	b.set("server.pool_hit_frac", float64(hits)/float64(L), L)
	b.setMedian("server.pool_hit_ms_p50", split["hit"], 1e6)
	b.setMedian("server.pool_miss_ms_p50", split["miss"], 1e6)

	// Oracle: the same request answered by library calls alone.
	b.timeOracle(func() {
		for j := 0; j < L; j += sz.OracleNth {
			_, want, err := in.direct(in.pass[j], sz, nil)
			if err != nil || !sameHits(first[j].hits, want) {
				b.fail("oracle, request %d (%s): library answers %v (%v), the server %v", j, in.pass[j].endpoint, want, err, first[j].hits)
			}
			b.oracleN++
		}
	})

	l := newSpanLog()
	if b.trace {
		if err := traceServe(b, l, svc, in, first); err != nil {
			return err
		}
		openLoop(b, svc, in, clients)
		t := time.Now()
		resp, err := svc.client.Get(svc.base + "/metrics")
		if err != nil {
			b.fail("metrics scrape: %v", err)
		} else {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the time matters
			resp.Body.Close()
			b.set("server.metrics_scrape_ms", time.Since(t).Seconds()*1e3, 0)
		}
		runLadder(b, in.inputs, wedge.ED{})
	}
	return b.finish(w, in.inputs, l)
}

// traceServe decomposes the request from outside by paired re-execution:
// the first quarter of the pass is sent, one request at a time, (A) over
// loopback to one fresh server, (B) straight into the handler of another —
// the same sequence, so the same session-pool hits and misses — and (C)
// answered by library calls that mirror the pool; (D) its body is decoded
// and (E) its response encoded on their own. The spans are those durations
// nested as op ⊃ transport, handler ⊃ decode, library, encode.
func traceServe(b *bench, l *spanLog, live *service, in *serveInputs, first []reply) error {
	sz := b.sz
	over, err := startService(in.db, 1)
	if err != nil {
		return err
	}
	defer over.stop()
	inside, err := startService(in.db, 1)
	if err != nil {
		return err
	}
	defer inside.stop()

	// Warm both session pools the way set-up warmed the live server's.
	for i := 0; i < sz.Warmup; i++ {
		rq := in.pass[i%len(in.pass)]
		if _, err := over.do(rq); err != nil {
			return err
		}
		if _, err := inside.handle(rq); err != nil {
			return err
		}
	}
	// The untraced side of the overhead figure: the same prefix, one request
	// at a time, over loopback to the live server.
	n := prefixLen(len(in.pass))
	untraced := make(samples, n)
	for i := range untraced {
		t := time.Now()
		if _, err := live.do(in.pass[i]); err != nil {
			return err
		}
		untraced[i] = int64(time.Since(t))
	}
	sessions := map[int]*lbkeogh.Query{}
	var handler, overhead, transport, decode, encode samples
	traced := tracePrefix(l, n, nil, func(i, root int) {
		rq := in.pass[i]
		t := time.Now()
		a, err := over.do(rq)
		durA := int64(time.Since(t))
		if err != nil || !a.same(first[i]) {
			b.fail("traced request %d over loopback: %v, answered %v, untraced %v", i, err, a.hits, first[i].hits)
		}
		t = time.Now()
		hb, err := inside.handle(rq)
		durB := int64(time.Since(t))
		if err != nil || !hb.same(first[i]) {
			b.fail("traced request %d through the handler: %v, answered %v, untraced %v", i, err, hb.hits, first[i].hits)
		}
		// The library's share: NewQuery only when the server built one too.
		var q *lbkeogh.Query
		if hb.raw.PoolHit {
			if q = sessions[rq.spec]; q == nil {
				q, err = lbkeogh.NewQuery(in.queries[rq.spec], lbkeogh.Euclidean())
			}
		}
		t = time.Now()
		if err == nil {
			q, _, err = in.direct(rq, sz, q)
		}
		durC := int64(time.Since(t))
		if err != nil {
			b.fail("traced request %d, library: %v", i, err)
		}
		sessions[rq.spec] = q
		t = time.Now()
		var sr server.SearchRequest
		err = json.Unmarshal(rq.body, &sr)
		durD := int64(time.Since(t))
		t = time.Now()
		out, err2 := json.MarshalIndent(hb.raw, "", "  ")
		durE := int64(time.Since(t))
		if err != nil || err2 != nil || len(out) == 0 {
			b.fail("traced request %d: decode %v, encode %v", i, err, err2)
		}

		// Lay the measured durations out as nested spans, under a root moved
		// to end now and span exactly the loopback time A. The handler run
		// is a different execution from the loopback one and now and then
		// the slower of the two; its span is cut to fit inside the op.
		start := l.now() - durA
		l.spans[root].Start = start
		h := l.add("server.handler", i, root, start, min(durA, durB), 0)
		l.add("server.decode", i, h, start, durD, 0)
		l.add("lbkeogh.call", i, h, start+durD, durC, 0)
		l.add("server.encode", i, h, start+durD+durC, durE, 0)
		if durA > durB {
			l.add("server.transport", i, root, start+durB, durA-durB, 0)
		}
		handler, overhead, transport = append(handler, durB), append(overhead, durB-durC), append(transport, durA-durB)
		decode, encode = append(decode, durD), append(encode, durE)
	})
	b.reportTraceOverhead(traced, untraced)
	b.setMedian("server.handler_ms_p50", handler, 1e6)
	b.setMedian("server.overhead_ms_p50", overhead, 1e6)
	b.setMedian("server.http_ms_p50", transport, 1e6)
	b.setMedian("server.decode_us_p50", decode, 1e3)
	b.setMedian("server.encode_us_p50", encode, 1e3)
	return nil
}

// openLoop steps the live server through the fixed rate ladder: Poisson
// arrivals, each request's latency charged from the moment it was due, sent
// by at most `clients` connections (a backlog waits in the generator, and
// the wait is part of the latency).
func openLoop(b *bench, svc *service, in *serveInputs, clients int) {
	const perStep = 200 // requests a step needs for its p95 to pass the guard
	var lag samples
	var sent, rejected, timedOut int
	slo := 0.0
	at := 0 // position in the pass, continuing across steps
	for _, rate := range b.sz.LadderQPS {
		// A step lasts a quarter of -seconds, or longer when that is what
		// perStep arrivals at this rate take.
		dur := float64(b.seconds) / 4
		var due []time.Duration
		for t := in.rng.ExpFloat64() / rate; t < dur || len(due) < perStep; t += in.rng.ExpFloat64() / rate {
			due = append(due, time.Duration(t*float64(time.Second)))
		}
		stepLat := make(samples, len(due))
		stepLag := make(samples, len(due))
		status := make([]int, len(due))
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= len(due) {
						return
					}
					if wait := time.Until(start.Add(due[j])); wait > 0 {
						time.Sleep(wait)
					}
					stepLag[j] = int64(time.Since(start) - due[j])
					r, _ := svc.do(in.pass[(at+j)%len(in.pass)])
					stepLat[j] = int64(time.Since(start) - due[j])
					status[j] = r.status
				}
			}()
		}
		wg.Wait()
		at += len(due)
		lag = append(lag, stepLag...)
		for j, st := range status {
			sent++
			switch st {
			case http.StatusOK:
				continue
			case http.StatusTooManyRequests:
				rejected++
			case http.StatusGatewayTimeout:
				timedOut++
			}
			b.fail("open loop at %g qps, request %d: status %d", rate, j, st)
		}
		b.rep.Attempted += len(due)
		p95, err := stepLat.tail(0.95)
		if err != nil {
			b.fail("open loop at %g qps: %v", rate, err)
			continue
		}
		if float64(p95)/1e6 <= sloP95MS && rate > slo {
			slo = rate
		}
		for _, named := range []struct {
			rate float64
			name string
		}{{b.sz.RateLoQPS, "server.rate_lo"}, {b.sz.RateHiQPS, "server.rate_hi"}} {
			if rate == named.rate {
				b.setMedian(named.name+"_p50_ms", stepLat, 1e6)
				b.set(named.name+"_p95_ms", float64(p95)/1e6, len(stepLat))
			}
		}
	}
	b.set("server.slo_rate_qps", slo, sent)
	b.set("server.rejected_frac", float64(rejected)/float64(sent), sent)
	b.set("server.timeout_frac", float64(timedOut)/float64(sent), sent)
	b.setTail("bench.sched_lag_p95_ms", lag, 0.95, 1e6)
}
