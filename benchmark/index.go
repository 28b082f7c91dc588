package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"lbkeogh"
	"lbkeogh/internal/core"
	"lbkeogh/internal/index"
	"lbkeogh/internal/segment"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/synth"
	"lbkeogh/internal/wedge"
)

// bulkLoad writes rows into a fresh segment store under dir, cutting
// sz.Segments segments, and returns the time spent inside BulkWriter.Add.
func bulkLoad(dir string, rows [][]float64, sz size) (inAdd time.Duration, err error) {
	bw, err := segment.NewBulkWriter(dir, sz.N, sz.Dims, int64((len(rows)+sz.Segments-1)/sz.Segments))
	if err != nil {
		return 0, err
	}
	for i, s := range rows {
		t := time.Now()
		if err := bw.Add(s, int64(i)); err != nil {
			bw.Abort()
			return 0, err
		}
		inAdd += time.Since(t)
	}
	return inAdd, bw.Close()
}

// dirBytes is the size of every file under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		total += info.Size()
		return err
	})
	return total, err
}

// reportStore records a store's size on disk against its raw payload.
func (b *bench) reportStore(dir string, rows int, mapped int64) {
	disk, err := dirBytes(dir)
	if err != nil {
		b.fail("store size: %v", err)
		return
	}
	b.set("segment.disk_bytes", float64(disk), 0)
	b.set("segment.mapped_bytes", float64(mapped), 0)
	b.set("segment.store_bytes_ratio", float64(disk)/float64(rows*b.sz.N*8), rows)
}

// timedStore wraps the index's series store from outside: every Fetch is
// timed, and the fetches of one op are folded into one aggregate span.
type timedStore struct {
	*segment.DB
	fetch samples // every fetch, ns
	opNS  int64   // fetches since the last take
	opN   int
}

func (t *timedStore) Fetch(id int) []float64 {
	t0 := time.Now()
	s := t.DB.Fetch(id)
	d := int64(time.Since(t0))
	t.fetch = append(t.fetch, d)
	t.opNS += d
	t.opN++
	return s
}

func (t *timedStore) take() (ns int64, n int) {
	ns, n = t.opNS, t.opN
	t.opNS, t.opN = 0, 0
	return ns, n
}

// runIndex is index-ed.
func runIndex(b *bench, w io.Writer) error {
	sz := b.sz
	var in *inputs
	b.timeGen(func() { in = generate(synth.ProjectilePoints, sz, 0, b.seed) })

	var (
		ix          *lbkeogh.Index
		dir         string
		inAdd, bulk time.Duration
		open        time.Duration
	)
	measure := lbkeogh.Euclidean()
	op := queryOp(measure, func(q *lbkeogh.Query) (lbkeogh.SearchResult, error) { return ix.Search(q) })
	teardown, err := b.setup(func() (func(), error) {
		var err error
		if dir, err = os.MkdirTemp(b.workDir, "index-ed-"); err != nil {
			return nil, err
		}
		t := time.Now()
		if inAdd, err = bulkLoad(dir, in.db, sz); err != nil {
			return nil, err
		}
		bulk = time.Since(t)
		t = time.Now()
		if ix, err = lbkeogh.OpenSegmentIndex(dir, sz.Dims); err != nil {
			return nil, err
		}
		open = time.Since(t)
		if err := warm(sz.Warmup, in.asked, op); err != nil {
			return nil, err
		}
		held, d := ix, dir
		return func() {
			held.Close()
			os.RemoveAll(d)
		}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	b.set("segment.bulk_ingest_s", bulk.Seconds(), sz.M)
	b.set("segment.bulk_ingest_rows_per_s", float64(sz.M)/inAdd.Seconds(), sz.M)
	b.set("segment.open_ms", open.Seconds()*1e3, 0)
	b.set("segment.segments_final", float64(len(ix.SegmentStore().Stats().Segments)), 0)

	ix.ResetDiskReads()
	ph := b.runLib(in.asked, sz.M, op)
	b.set("index.fetch_frac", float64(ix.DiskReads())/float64(len(ph.lat))/float64(sz.M), len(ph.lat))
	if !ix.Stats().Reconciles() {
		b.fail("index stats do not reconcile")
	}

	// Oracle: a flat wedge scan of the same mapped rows.
	snap := ix.SegmentStore().Acquire()
	defer snap.Release()
	rows := snap.Rows()
	b.reportStore(dir, sz.M, snap.MappedBytes())
	flat := scanOp(measure, rows)
	b.timeOracle(func() {
		for i := 0; i < len(in.asked); i += sz.OracleNth {
			want, _, _, _, err := flat(in.asked[i])
			if got := ph.answers[i]; err != nil || !closeTo(want.Dist, got.Dist) {
				b.fail("oracle, op %d: flat scan answers %+v (%v), the index %+v", i, want, err, got)
			}
			b.oracleN++
		}
	})

	l := newSpanLog()
	if b.trace {
		if err := traceIndex(b, l, dir, in, ph); err != nil {
			return err
		}
		runLadder(b, in, wedge.ED{})
	}
	return b.finish(w, in, l)
}

// traceIndex opens the store a second time under a timing wrapper and
// decomposes the op into NewRotationSet → index.SearchED → store fetches.
func traceIndex(b *bench, l *spanLog, dir string, in *inputs, ph *libPhase) error {
	sz := b.sz
	db, err := segment.OpenDB(dir, sz.Dims, segment.WithoutDataCRC())
	if err != nil {
		return err
	}
	defer db.Close()
	snap := db.Acquire()
	defer snap.Release()
	mags, paas := snap.Features()
	store := &timedStore{DB: db}
	t := time.Now()
	ix, err := index.BuildFromColumns(store, sz.N, sz.Dims, mags, paas)
	if err != nil {
		return err
	}
	b.set("index.build_s", time.Since(t).Seconds(), sz.M)

	var self, nFetch samples
	n := prefixLen(len(in.asked))
	lat := tracePrefix(l, n, nil, func(i, root int) {
		var cnt stats.Counter
		id := l.begin("core.rotationset", i, root)
		rs := core.NewRotationSet(in.asked[i], core.DefaultOptions(), &cnt)
		l.end(id)
		store.take()
		id = l.begin("index.search", i, root)
		r := ix.SearchED(rs, &cnt)
		l.end(id)
		ns, fetched := store.take()
		l.add("segment.fetch", i, id, l.spans[id].Start, ns, fetched)
		self = append(self, l.spans[id].End-l.spans[id].Start-ns)
		nFetch = append(nFetch, int64(fetched))
		if a := (answer{r.Index, r.Dist}); a != ph.answers[i] {
			b.fail("op %d: traced answer %+v, untraced %+v", i, a, ph.answers[i])
		}
	})
	b.reportTraceOverhead(lat, ph.lat[:n])
	b.setMedian("index.search_ms_p50", l.durations("index.search"), 1e6)
	b.setMedian("index.self_ms_p50", self, 1e6)
	b.set("index.fetches_per_op", float64(nFetch.sum())/float64(len(nFetch)), len(nFetch))
	b.setMedian("segment.fetch_us_p50", store.fetch, 1e3)
	b.setTail("segment.fetch_us_p95", store.fetch, 0.95, 1e3)

	// The second anomaly ROADMAP names: DTW through the index.
	const dtwQueries, band = 5, 5
	var dtw samples
	store.take()
	for i := 0; i < min(dtwQueries, len(in.asked)); i++ {
		var cnt stats.Counter
		rs := core.NewRotationSet(in.asked[i], core.DefaultOptions(), &cnt)
		t := time.Now()
		r := ix.SearchDTW(rs, band, 0, &cnt)
		dtw = append(dtw, int64(time.Since(t)))
		if r.Index < 0 {
			b.fail("index DTW search %d found nothing", i)
		}
	}
	_, fetched := store.take()
	b.setMedian("index.dtw_search_ms_p50", dtw, 1e6)
	b.set("index.dtw_fetches_per_op", float64(fetched)/float64(len(dtw)), len(dtw))
	if len(dtw) == 0 {
		return fmt.Errorf("no DTW queries")
	}
	return nil
}
