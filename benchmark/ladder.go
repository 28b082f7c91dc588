package main

import (
	"runtime"
	"time"

	"lbkeogh/internal/core"
	"lbkeogh/internal/dist"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/fourier"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/paa"
	"lbkeogh/internal/segment"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// sink keeps the compiler from discarding the kernels' results.
var sink float64

const (
	ladderQueries = 8
	ladderBatches = 21  // odd, so the median is one batch's own time
	ladderBand    = 5   // DTW band and LCSS window of the kernel rungs
	ladderDims    = 8   // feature dims, as the segment store keeps
	matchChunk    = 256 // candidates per core.match_us sample
	strategyRows  = 2000
	wedgeProbes   = 512
)

// batches times calls invocations of f, ladderBatches times over.
func batches(calls int, f func(i int)) samples {
	out := make(samples, ladderBatches)
	for b := range out {
		t := time.Now()
		for c := 0; c < calls; c++ {
			f(b*calls + c)
		}
		out[b] = int64(time.Since(t))
	}
	return out
}

// runLadder is the kernel ladder of the traced run: it times the public
// functions of core, wedge, envelope, dist, fourier and paa from outside,
// on (query, candidate, threshold) triples drawn from the workload's own
// data, under the workload's own kernel. Each rung reports the median of
// its batches.
func runLadder(b *bench, in *inputs, k wedge.Kernel) {
	rows := in.db[:min(b.sz.LadderRows, len(in.db))]
	qs := in.queries[:min(ladderQueries, len(in.queries))]
	n := b.sz.N
	q := func(i int) []float64 { return qs[i%len(qs)] }
	c := func(i int) []float64 { return rows[i%len(rows)] }
	perElem := func(name string, calls, elems int, f func(i int)) {
		s := batches(calls, f)
		v, _ := s.median()
		b.set(name, float64(v)/float64(calls*elems), len(s))
	}
	var tally stats.Tally
	var cnt stats.Counter
	runtime.GC() // every workload's ladder starts from a collected heap

	// dist: the exact kernels, no abandoning.
	perElem("dist.euclidean_ns_per_elem", 400, n, func(i int) { sink += dist.Euclidean(q(i), c(i), &tally) })
	cells := n * (2*ladderBand + 1)
	perElem("dist.dtw_ns_per_cell", 40, cells, func(i int) { sink += dist.DTW(q(i), c(i), ladderBand, &tally) })
	perElem("dist.lcss_ns_per_cell", 40, cells, func(i int) { sink += float64(dist.LCSS(q(i), c(i), ladderBand, 0.25, &tally)) })

	// core: rotation-set build at the workload's n and at the paper's 1024.
	var sets []*core.RotationSet
	var build samples
	for i := 0; i < 2*len(qs); i++ {
		t := time.Now()
		rs := core.NewRotationSet(q(i), core.DefaultOptions(), &cnt)
		build = append(build, int64(time.Since(t)))
		sets = append(sets, rs)
	}
	sets = sets[:len(qs)]
	b.setMedian("core.rotationset_build_ms_p50", build, 1e6)
	var build1024 samples
	for i := 0; i < 3; i++ {
		long, err := ts.Resample(q(i), 1024)
		if err != nil {
			b.fail("ladder: %v", err)
			return
		}
		long = ts.ZNorm(long)
		t := time.Now()
		core.NewRotationSet(long, core.DefaultOptions(), &cnt)
		build1024 = append(build1024, int64(time.Since(t)))
	}
	b.setMedian("core.rotationset_build_n1024_ms", build1024, 1e6)

	// envelope: a wedge of eight neighbouring rotations, as H-Merge meets them.
	members := make([][]float64, 8)
	for i := range members {
		members[i] = sets[0].Member(i % sets[0].Members())
	}
	env, env2 := envelope.New(members...), envelope.New(members[:4]...)
	perElem("envelope.lbkeogh_ns_per_elem", 400, n, func(i int) {
		lb, _ := envelope.LBKeogh(c(i), env, -1, &tally)
		sink += lb
	})
	perElem("envelope.merge_ns_per_elem", 200, n, func(int) { sink += float64(envelope.Merge(env, env2).Len()) })
	perElem("envelope.expand_dtw_ns_per_elem", 100, n, func(int) { sink += float64(env.ExpandDTW(ladderBand).Len()) })

	// fourier, paa, segment: one transform per query or ingested row.
	perCall := func(name string, calls int, f func(i int)) {
		s := batches(calls, f)
		v, _ := s.median()
		b.set(name, float64(v)/float64(calls)/1e3, len(s))
	}
	perCall("fourier.magnitudes_us", 20, func(i int) { sink += fourier.Magnitudes(c(i), ladderDims)[0] })
	perElem("paa.reduce_ns_per_elem", 400, n, func(i int) { sink += paa.Reduce(c(i), ladderDims)[0] })
	perCall("segment.features_us", 20, func(i int) {
		m, _ := segment.Features(c(i), ladderDims)
		sink += m[0]
	})

	// core: whole scans, serial and parallel, and chunked comparisons.
	var st obs.SearchStats
	cfg := core.SearcherConfig{ProbeIntervals: 5, Obs: &st}
	var scan, par, match samples
	nearest := make([]float64, len(sets))
	settledK := 1
	for i, rs := range sets {
		sr := core.NewSearcher(rs, k, core.Wedge, cfg)
		t := time.Now()
		r := sr.Scan(rows, &cnt)
		scan = append(scan, int64(time.Since(t)))
		nearest[i], settledK = r.Dist, sr.CurrentK()

		t = time.Now()
		pr := core.ScanParallel(rs, k, core.Wedge, cfg, rows, runtime.GOMAXPROCS(0), &cnt)
		par = append(par, int64(time.Since(t)))
		if pr.Index != r.Index {
			b.fail("ladder: parallel scan answers row %d, serial row %d", pr.Index, r.Index)
		}

		sr = core.NewSearcher(rs, k, core.Wedge, cfg)
		best := -1.0
		for lo := 0; lo < len(rows); lo += matchChunk {
			chunk := rows[lo:min(lo+matchChunk, len(rows))]
			t = time.Now()
			for _, x := range chunk {
				if m := sr.MatchSeries(x, best, &cnt); m.Found() {
					best = m.Dist
				}
			}
			match = append(match, int64(time.Since(t))/int64(len(chunk)))
		}
	}
	b.setMedian("core.scan_ms_p50", scan, 1e6)
	b.setMedian("core.scan_parallel_ms_p50", par, 1e6)
	b.setMedian("core.match_us_p50", match, 1e3)
	serial, _ := scan.median()
	parallel, _ := par.median()
	b.set("core.parallel_speedup", float64(serial)/float64(parallel), len(scan))
	b.set("core.steps_per_comparison", st.Snapshot().StepsPerComparison, int(st.Comparisons()))

	// wedge: one H-Merge walk per candidate, at the final best-so-far and
	// with no threshold at all.
	tree := sets[0].Tree()
	var tight, loose samples
	for i := 0; i < min(wedgeProbes, len(rows)); i++ {
		t := time.Now()
		r := tree.Search(rows[i], k, settledK, nearest[0], wedge.LIFO, &tally)
		tight = append(tight, int64(time.Since(t)))
		t = time.Now()
		r2 := tree.Search(rows[i], k, settledK, -1, wedge.LIFO, &tally)
		loose = append(loose, int64(time.Since(t)))
		sink += r.Dist + r2.Dist
	}
	b.setMedian("wedge.search_tight_us_p50", tight, 1e3)
	b.setMedian("wedge.search_loose_us_p50", loose, 1e3)
	b.set("wedge.tree_max_k", float64(tree.MaxK()), 0)
	b.set("wedge.tree_depth", float64(tree.Stats().MaxDepth), 0)

	// core strategies, always under ED (the only kernel fft admits): the
	// record of where num_steps and wall-clock disagree.
	few := rows[:min(strategyRows, len(rows))]
	for _, s := range []struct {
		name     string
		strategy core.Strategy
	}{{"wedge", core.Wedge}, {"early_abandon", core.EarlyAbandon}, {"fft", core.FFTFilter}, {"brute", core.BruteForce}} {
		var steps stats.Counter
		t := time.Now()
		for _, rs := range sets {
			sink += core.NewSearcher(rs, wedge.ED{}, s.strategy, core.SearcherConfig{}).Scan(few, &steps).Dist
		}
		b.set("core.strategy_ms."+s.name, time.Since(t).Seconds()*1e3/float64(len(sets)), len(sets))
		b.set("core.strategy_steps."+s.name, float64(steps.Steps())/float64(len(sets)), len(sets))
	}
}
