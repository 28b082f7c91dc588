package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"lbkeogh"
	"lbkeogh/internal/segment"
	"lbkeogh/internal/synth"
	"lbkeogh/internal/wedge"
)

// storeWriter is store-rw's writer goroutine. It is paced by reader
// progress: one Ingest per batchEvery completed reads, one Compact(0) per
// compactEvery batches. The reader waits, between ops, for each batch to be
// acknowledged — so which rows a read scans does not depend on who won a
// race, and steps_per_op repeats — but never for a compaction, which runs
// beside the reads that follow it and swaps the manifest under them.
type storeWriter struct {
	db      *segment.DB
	batches [][][]float64
	sz      size
	log     *spanLog // nil: untraced

	reads atomic.Int64  // completed reads, advanced by the reader
	wake  chan struct{} // capacity 1: a pending nudge is enough
	stop  chan struct{}
	done  chan struct{}

	// acked counts acknowledged batches; firstID[k] is written before
	// acked passes k, so the reader may read it after loading acked. Each
	// acknowledgement is also sent on ack, which has room for all of them.
	acked   atomic.Int64
	firstID []int
	ack     chan struct{}

	ingest, compact samples // read after done
	err             error
}

func startWriter(db *segment.DB, batches [][][]float64, sz size, log *spanLog) *storeWriter {
	w := &storeWriter{
		db: db, batches: batches, sz: sz, log: log,
		wake: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{}),
		firstID: make([]int, len(batches)), ack: make(chan struct{}, len(batches)),
	}
	go w.run()
	return w
}

func (w *storeWriter) run() {
	defer close(w.done)
	timed := func(name string, into *samples, f func() error) error {
		id := -1
		if w.log != nil {
			id = w.log.begin(name, -1, -1)
		}
		t := time.Now()
		err := f()
		*into = append(*into, int64(time.Since(t)))
		if id >= 0 {
			w.log.end(id)
		}
		return err
	}
	for k, batch := range w.batches {
		for w.reads.Load() < int64((k+1)*w.sz.BatchEvery) {
			select {
			case <-w.wake:
			case <-w.stop:
				return
			}
		}
		labels := make([]int64, len(batch))
		if w.err = timed("segment.ingest", &w.ingest, func() (err error) {
			w.firstID[k], err = w.db.Ingest(batch, labels)
			return err
		}); w.err != nil {
			return
		}
		w.acked.Store(int64(k + 1))
		w.ack <- struct{}{}
		if (k+1)%w.sz.CompactEvery == 0 {
			if w.err = timed("segment.compact", &w.compact, func() error {
				_, err := w.db.Compact(0)
				return err
			}); w.err != nil {
				return
			}
		}
	}
}

// readDone tells the writer one more read completed and, when that read
// was a batch's cue, waits for the batch to be acknowledged.
func (w *storeWriter) readDone() {
	n := int(w.reads.Add(1))
	select {
	case w.wake <- struct{}{}:
	default:
	}
	if n%w.sz.BatchEvery == 0 && n/w.sz.BatchEvery <= len(w.batches) {
		select {
		case <-w.ack:
		case <-w.done: // the writer failed; finish reports why
		}
	}
}

// finish stops the writer and waits for it.
func (w *storeWriter) finish() error {
	close(w.stop)
	<-w.done
	return w.err
}

// readResult is the outcome of one store-rw read. held is the time inside
// Acquire+Rows+Release; gen and rows describe the snapshot it scanned.
type readResult struct {
	a                     answer
	rows                  int
	gen, steps            int64
	newQuery, held, total time.Duration
}

// storeRead is store-rw's op: pin a snapshot, build a query, scan the
// snapshot's rows, release.
func storeRead(db *segment.DB, s []float64) (readResult, error) {
	t0 := time.Now()
	snap := db.Acquire()
	view := snap.Rows()
	t1 := time.Now()
	q, err := lbkeogh.NewQuery(s, lbkeogh.Euclidean())
	if err != nil {
		snap.Release()
		return readResult{total: time.Since(t0)}, err
	}
	t2 := time.Now()
	res, err := q.Search(view)
	t3 := time.Now()
	gen := snap.Generation()
	snap.Release()
	t4 := time.Now()
	if err == nil && !q.Stats().Reconciles() {
		err = fmt.Errorf("stats do not reconcile")
	}
	return readResult{
		a: answer{res.Index, res.Dist}, rows: len(view), gen: gen, steps: q.Steps(),
		newQuery: t2.Sub(t1), held: t1.Sub(t0) + t4.Sub(t3), total: t4.Sub(t0),
	}, err
}

// runStore is store-rw.
func runStore(b *bench, w io.Writer) error {
	sz := b.sz
	var in *inputs
	b.timeGen(func() { in = generate(synth.ProjectilePoints, sz, sz.Batches*sz.BatchRows, b.seed) })
	batches := make([][][]float64, sz.Batches)
	for k := range batches {
		batches[k] = in.extra[k*sz.BatchRows : (k+1)*sz.BatchRows]
	}

	var (
		db    *segment.DB
		dir   string
		inAdd time.Duration
	)
	teardown, err := b.setup(func() (func(), error) {
		var err error
		if dir, err = os.MkdirTemp(b.workDir, "store-rw-"); err != nil {
			return nil, err
		}
		if inAdd, err = bulkLoad(dir, in.db, sz); err != nil {
			return nil, err
		}
		if db, err = segment.OpenDB(dir, sz.Dims, segment.WithoutDataCRC()); err != nil {
			return nil, err
		}
		for i := 0; i < sz.Warmup; i++ {
			if _, err := storeRead(db, in.asked[i%len(in.asked)]); err != nil {
				return nil, err
			}
		}
		held, d := db, dir
		return func() {
			held.Close()
			os.RemoveAll(d)
		}, nil
	})
	if err != nil {
		return err
	}
	defer func() { teardown() }()
	b.set("segment.bulk_ingest_s", inAdd.Seconds(), sz.M)
	b.set("segment.bulk_ingest_rows_per_s", float64(sz.M)/inAdd.Seconds(), sz.M)

	l := newSpanLog()
	var wlog *spanLog
	if b.trace {
		wlog = &spanLog{t0: l.t0}
	}
	wr := startWriter(db, batches, sz, wlog)

	// read is one checked read; wantID >= 0 says s is a row of an
	// acknowledged batch and must be found at that global ID, at distance 0.
	var lat, newQ, search, held samples
	read := func(s []float64, wantID int) readResult {
		r, err := storeRead(db, s)
		wr.readDone()
		if err == nil {
			err = validAnswer(r.a, r.rows)
		}
		if err == nil && wantID >= 0 && (r.a.Index != wantID || r.a.Dist > 1e-9) {
			err = fmt.Errorf("read-your-writes: row %d of an acknowledged batch answered as %+v", wantID, r.a)
		}
		if err != nil {
			b.fail("read: %v", err)
		}
		lat = append(lat, int64(r.total))
		newQ, held = append(newQ, int64(r.newQuery)), append(held, int64(r.held))
		search = append(search, int64(r.total-r.newQuery-r.held))
		return r
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	j := 0
	var steps int64 // first pass
	walls := b.passes(len(in.asked), func(p int) {
		for _, s := range in.asked {
			// Every batchEvery-th read asks for a row of the last
			// acknowledged batch instead.
			wantID := -1
			if k := int(wr.acked.Load()); k > 0 && j%sz.BatchEvery == sz.BatchEvery-1 {
				r := j % sz.BatchRows
				s, wantID = batches[k-1][r], wr.firstID[k-1]+r
			}
			if r := read(s, wantID); p == 0 {
				steps += r.steps
			}
			j++
		}
	})
	b.reportMem(&mem, len(lat))
	b.finishOps(lat, len(in.asked), walls, steps, len(in.asked))
	b.setMedian("lbkeogh.newquery_ms_p50", newQ, 1e6)
	b.setMedian("lbkeogh.search_ms_p50", search, 1e6)
	b.setMedian("segment.acquire_us_p50", held, 1e3)

	if b.trace {
		// Each traced read is paired with an untraced one of the same query,
		// taken just before or just after it by turns (the second of a pair
		// finds the rows warm); their answers are compared when no manifest
		// swap came between.
		n := prefixLen(len(in.asked))
		var got answer
		var gotGen int64
		traced := tracePrefix(l, n, func(i int, op func()) {
			var pair readResult
			if i%2 == 0 {
				pair = read(in.asked[i], -1)
				op()
			} else {
				op()
				pair = read(in.asked[i], -1)
			}
			wr.readDone() // the traced read's, outside its span: it may wait for an ack
			if gotGen == pair.gen && got != pair.a {
				b.fail("read %d: traced answer %+v, untraced %+v", i, got, pair.a)
			}
		}, func(i, root int) {
			id := l.begin("segment.acquire", i, root)
			snap := db.Acquire()
			view := snap.Rows()
			l.end(id)
			got, _ = tracedScan(l, i, root, wedge.ED{}, in.asked[i], view)
			gotGen = snap.Generation()
			id = l.begin("segment.release", i, root)
			snap.Release()
			l.end(id)
		})
		b.reportTraceOverhead(traced, lat[len(lat)-n:])
	}
	if err := wr.finish(); err != nil {
		b.fail("writer: %v", err)
	}
	acked := int(wr.acked.Load())
	b.setMedian("segment.ingest_batch_ms_p50", wr.ingest, 1e6)
	b.setMedian("segment.compact_ms_p50", wr.compact, 1e6)
	if t := wr.ingest.sum(); t > 0 {
		b.set("segment.online_ingest_rows_per_s", float64(len(wr.ingest)*sz.BatchRows)/(float64(t)/1e9), len(wr.ingest))
	}
	st := db.Stats()
	b.set("segment.segments_final", float64(len(st.Segments)), 0)
	b.reportStore(dir, st.Records, st.MappedBytes)

	// Reopen with full CRC verification: every acknowledged row must be
	// there, byte for byte.
	b.timeOracle(func() {
		if err := db.Close(); err != nil {
			b.fail("close: %v", err)
		}
		t := time.Now()
		re, err := segment.OpenDB(dir, sz.Dims)
		if err != nil {
			b.fail("reopen: %v", err)
			return
		}
		b.set("segment.reopen_verify_s", time.Since(t).Seconds(), 0)
		db = re
		teardown = func() {
			re.Close()
			os.RemoveAll(dir)
		}
		want := sz.M + acked*sz.BatchRows
		if re.Len() != want {
			b.fail("reopened store has %d rows, want %d + %d acknowledged", re.Len(), sz.M, acked*sz.BatchRows)
			return
		}
		for id := 0; id < want; id += 97 {
			src := in.db
			at := id
			if id >= sz.M {
				src, at = in.extra, id-sz.M
			}
			if !sameBits(re.Fetch(id), src[at]) {
				b.fail("reopened row %d differs from what was written", id)
			}
			b.oracleN++
		}
	})

	if b.trace {
		runLadder(b, in, wedge.ED{})
		return b.finish(w, in, l, wlog)
	}
	return b.finish(w, in, l)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
