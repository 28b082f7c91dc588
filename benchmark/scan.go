package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"lbkeogh"
	"lbkeogh/internal/core"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/synth"
	"lbkeogh/internal/wedge"
)

// libOp is one op of a library workload — the public calls a user makes —
// with NewQuery timed apart from the search. steps is Query.Steps().
type libOp func(s []float64) (a answer, steps int64, newQuery, total time.Duration, err error)

// queryOp builds the op NewQuery(s, m) + search(q).
func queryOp(m lbkeogh.Measure, search func(q *lbkeogh.Query) (lbkeogh.SearchResult, error)) libOp {
	return func(s []float64) (answer, int64, time.Duration, time.Duration, error) {
		t0 := time.Now()
		q, err := lbkeogh.NewQuery(s, m)
		if err != nil {
			return answer{}, 0, 0, time.Since(t0), err
		}
		t1 := time.Now()
		res, err := search(q)
		total := time.Since(t0)
		if err == nil && !q.Stats().Reconciles() {
			err = fmt.Errorf("stats do not reconcile")
		}
		return answer{res.Index, res.Dist}, q.Steps(), t1.Sub(t0), total, err
	}
}

// scanOp is the scan workloads' op: NewQuery + Query.Search over rows.
func scanOp(m lbkeogh.Measure, rows [][]float64) libOp {
	return queryOp(m, func(q *lbkeogh.Query) (lbkeogh.SearchResult, error) { return q.Search(rows) })
}

// warm runs op on the first n queries (wrapping round): the warm-up a
// set-up ends with.
func warm(n int, queries [][]float64, op libOp) error {
	for i := 0; i < n; i++ {
		if _, _, _, _, err := op(queries[i%len(queries)]); err != nil {
			return err
		}
	}
	return nil
}

// libPhase is the outcome of a library workload's timed phase.
type libPhase struct {
	lat, newQuery, search samples
	answers               []answer // first pass, by query
	steps                 int64    // first pass
	walls                 []time.Duration
	mem                   runtime.MemStats // before the phase
}

// runLib runs the timed phase of a single-goroutine library workload: whole
// passes over the queries, every op checked structurally and, after the
// first pass, against the first pass's answer.
func (b *bench) runLib(queries [][]float64, m int, op libOp) *libPhase {
	ph := &libPhase{answers: make([]answer, len(queries))}
	runtime.ReadMemStats(&ph.mem)
	ph.walls = b.passes(len(queries), func(p int) {
		for i, s := range queries {
			a, steps, nq, total, err := op(s)
			ph.lat = append(ph.lat, int64(total))
			ph.newQuery = append(ph.newQuery, int64(nq))
			ph.search = append(ph.search, int64(total-nq))
			if err == nil {
				err = validAnswer(a, m)
			}
			switch {
			case err != nil:
				b.fail("op %d: %v", i, err)
			case p == 0:
				ph.answers[i] = a
				ph.steps += steps
			case a != ph.answers[i]:
				b.fail("op %d: pass %d answered %+v, pass 0 answered %+v", i, p, a, ph.answers[i])
			}
		}
	})
	b.reportMem(&ph.mem, len(ph.lat))
	b.finishOps(ph.lat, len(queries), ph.walls, ph.steps, len(queries))
	b.setMedian("lbkeogh.newquery_ms_p50", ph.newQuery, 1e6)
	b.setMedian("lbkeogh.search_ms_p50", ph.search, 1e6)
	return ph
}

// scanKernel is the measure of a scan workload, in the three forms the
// benchmark needs it.
type scanKernel struct {
	measure lbkeogh.Measure
	kernel  wedge.Kernel
	family  func(seed int64, m, n int) [][]float64
}

func kernelOf(name string, sz size) scanKernel {
	if name == "scan-dtw" {
		return scanKernel{lbkeogh.DTW(sz.DTWRadius), wedge.DTW{R: sz.DTWRadius}, synth.Heterogeneous}
	}
	return scanKernel{lbkeogh.Euclidean(), wedge.ED{}, synth.ProjectilePoints}
}

// tracedScan is the scan op decomposed into the internal calls the public
// one makes, each under a span: NewRotationSet → NewSearcher → Scan.
func tracedScan(l *spanLog, opID, parent int, k wedge.Kernel, s []float64, rows [][]float64) (answer, int64) {
	var cnt stats.Counter
	var st obs.SearchStats
	id := l.begin("core.rotationset", opID, parent)
	rs := core.NewRotationSet(s, core.DefaultOptions(), &cnt)
	l.end(id)
	id = l.begin("core.searcher", opID, parent)
	sr := core.NewSearcher(rs, k, core.Wedge, core.SearcherConfig{ProbeIntervals: 5, Obs: &st})
	l.end(id)
	id = l.begin("core.scan", opID, parent)
	r := sr.Scan(rows, &cnt)
	l.end(id)
	return answer{r.Index, r.Dist}, cnt.Steps()
}

// tracePrefix runs traced(i, root) for i = 0 … n-1, each under its own root
// span, and returns the root spans' durations. around, when not nil, is
// handed each traced op to run amid work of its own, outside the span.
func tracePrefix(l *spanLog, n int, around func(i int, op func()), traced func(i, root int)) samples {
	lat := make(samples, n)
	for i := range lat {
		op := func() {
			root := l.begin(opSpan, i, -1)
			traced(i, root)
			l.end(root)
			lat[i] = l.spans[root].End - l.spans[root].Start
		}
		if around != nil {
			around(i, op)
		} else {
			op()
		}
	}
	return lat
}

// prefixLen is how much of a pass the traced run re-runs: one quarter.
func prefixLen(pass int) int { return (pass + 3) / 4 }

// reportTraceOverhead records (traced − untraced op p50) / untraced over the
// same ops.
func (b *bench) reportTraceOverhead(traced, untraced samples) {
	tr, _ := traced.median()
	un, err := untraced.median()
	if err != nil || un == 0 {
		b.fail("trace overhead: no untraced latencies to compare with")
		return
	}
	b.set("bench.trace_overhead_frac", float64(tr-un)/float64(un), len(traced))
}

// runScan is scan-ed and scan-dtw.
func runScan(b *bench, w io.Writer) error {
	sz, k := b.sz, kernelOf(b.name, b.sz)
	var in *inputs
	b.timeGen(func() { in = generate(k.family, sz, 0, b.seed) })
	op := scanOp(k.measure, in.db)

	// Nothing to prepare: the database is a slice. Set-up is the warm-up.
	if _, err := b.setup(func() (func(), error) { return nil, warm(sz.Warmup, in.asked, op) }); err != nil {
		return err
	}
	ph := b.runLib(in.asked, sz.M, op)

	b.timeOracle(func() {
		for i := 0; i < len(in.asked); i += sz.OracleNth {
			if err := scanOracle(k.measure, in.asked[i], in.db, ph.answers[i], b.name == "scan-dtw"); err != nil {
				b.fail("oracle, op %d: %v", i, err)
			}
			b.oracleN++
		}
	})

	l := newSpanLog()
	if b.trace {
		n := prefixLen(len(in.asked))
		lat := tracePrefix(l, n, nil, func(i, root int) {
			if a, _ := tracedScan(l, i, root, k.kernel, in.asked[i], in.db); a != ph.answers[i] {
				b.fail("op %d: traced answer %+v, untraced %+v", i, a, ph.answers[i])
			}
		})
		b.reportTraceOverhead(lat, ph.lat[:n])
		runLadder(b, in, k.kernel)
	}
	return b.finish(w, in, l)
}

// scanOracle checks a claimed nearest neighbour against an independent
// path: EarlyAbandonSearch, which tests every rotation and never builds a
// wedge. Under ED it scans the whole database. A full early-abandoning DTW
// scan costs seconds per query, so under DTW (strided) it scans the 1/16
// stride class of rows that contains the claimed neighbour: the neighbour
// must still win there, at the same distance.
func scanOracle(m lbkeogh.Measure, s []float64, db [][]float64, got answer, strided bool) error {
	q, err := lbkeogh.NewQuery(s, m, lbkeogh.WithStrategy(lbkeogh.EarlyAbandonSearch))
	if err != nil {
		return err
	}
	rows, want := db, got.Index
	if strided {
		const stride = 16
		rows = nil
		for i := got.Index % stride; i < len(db); i += stride {
			rows = append(rows, db[i])
		}
		want = got.Index / stride
	}
	res, err := q.Search(rows)
	if err != nil {
		return err
	}
	if !closeTo(res.Dist, got.Dist) {
		return fmt.Errorf("early-abandon scan finds distance %v, the op answered %v", res.Dist, got.Dist)
	}
	if res.Index != want {
		// Only a tie may name another row.
		if d, _, err := q.Distance(rows[want]); err != nil || !closeTo(d, res.Dist) {
			return fmt.Errorf("early-abandon scan finds row %d, the op answered row %d at a different distance", res.Index, want)
		}
	}
	return nil
}
