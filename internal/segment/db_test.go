package segment

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

const (
	testN = 24
	testD = 6
)

func ingestBatch(t *testing.T, db *DB, from, count int) {
	t.Helper()
	rows := make([][]float64, count)
	labels := make([]int64, count)
	for i := range rows {
		rows[i] = testSeries(from+i, testN)
		labels[i] = int64(from + i)
	}
	first, err := db.Ingest(rows, labels)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if first != from {
		t.Fatalf("Ingest first ID = %d, want %d", first, from)
	}
}

func verifyAll(t *testing.T, db *DB, total int) {
	t.Helper()
	s := db.Acquire()
	defer s.Release()
	if s.Len() != total {
		t.Fatalf("Len = %d, want %d", s.Len(), total)
	}
	for id := 0; id < total; id++ {
		if !floatsEqual(s.Series(id), testSeries(id, testN)) {
			t.Fatalf("record %d content mismatch", id)
		}
		if s.Label(id) != int64(id) {
			t.Fatalf("record %d label mismatch", id)
		}
	}
}

func TestDBIngestCompactReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, testD)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 0 || db.Generation() != 0 {
		t.Fatalf("fresh store: len=%d gen=%d", db.Len(), db.Generation())
	}

	for i := 0; i < 5; i++ {
		ingestBatch(t, db, i*40, 40)
	}
	verifyAll(t, db, 200)
	if got := db.Stats(); len(got.Segments) != 5 || got.Ingests != 5 || got.IngestedRecords != 200 {
		t.Fatalf("stats after ingest: %+v", got)
	}

	// Fetch contract: private copies.
	for id := 0; id < 200; id += 17 {
		got := db.Fetch(id)
		if !floatsEqual(got, testSeries(id, testN)) {
			t.Fatalf("Fetch(%d) mismatch", id)
		}
		got[0]++
		if !floatsEqual(db.Fetch(id), testSeries(id, testN)) {
			t.Fatalf("writing Fetch(%d)'s result changed the store", id)
		}
	}

	// Compact everything into one segment; IDs and contents must not move.
	merged, err := db.Compact(0)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if merged != 5 {
		t.Fatalf("merged %d segments, want 5", merged)
	}
	verifyAll(t, db, 200)
	st := db.Stats()
	if len(st.Segments) != 1 || st.Records != 200 || st.Compactions != 1 {
		t.Fatalf("stats after compact: %+v", st)
	}

	// Replaced files are unlinked once no snapshot holds them.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == segSuffix {
			segFiles++
		}
	}
	if segFiles != 1 {
		t.Fatalf("%d segment files on disk after compaction, want 1", segFiles)
	}

	// A compaction with nothing to merge is a no-op.
	if merged, err := db.Compact(10); err != nil || merged != 0 {
		t.Fatalf("no-op compact: merged=%d err=%v", merged, err)
	}

	// Reopen from the manifest.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(dir, testD)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	verifyAll(t, db2, 200)
	ingestBatch(t, db2, 200, 10)
	verifyAll(t, db2, 210)
}

func TestDBCompactPartialRuns(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, testD)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// small(10) small(10) big(50) small(10) small(10) small(10)
	sizes := []int{10, 10, 50, 10, 10, 10}
	from := 0
	for _, sz := range sizes {
		ingestBatch(t, db, from, sz)
		from += sz
	}
	merged, err := db.Compact(20)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 5 {
		t.Fatalf("merged %d, want 5 (two runs of 2 and 3)", merged)
	}
	st := db.Stats()
	if len(st.Segments) != 3 {
		t.Fatalf("%d segments after compact, want 3 (merged, big, merged)", len(st.Segments))
	}
	if st.Segments[0].Records != 20 || st.Segments[1].Records != 50 || st.Segments[2].Records != 30 {
		t.Fatalf("segment sizes %+v", st.Segments)
	}
	verifyAll(t, db, from)
}

func TestSnapshotRowsAndFeatures(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, testD)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingestBatch(t, db, 0, 30)
	ingestBatch(t, db, 30, 30)

	s := db.Acquire()
	defer s.Release()
	rows := s.Rows()
	labels := s.Labels()
	mags, paas := s.Features()
	if len(rows) != 60 || len(labels) != 60 || len(mags) != 60 || len(paas) != 60 {
		t.Fatalf("lengths: %d/%d/%d/%d", len(rows), len(labels), len(mags), len(paas))
	}
	for id := 0; id < 60; id++ {
		want := testSeries(id, testN)
		if !floatsEqual(rows[id], want) {
			t.Fatalf("row %d mismatch", id)
		}
		if labels[id] != id {
			t.Fatalf("label %d mismatch", id)
		}
		wm, wp := Features(want, testD)
		if !floatsEqual(mags[id], wm) || !floatsEqual(paas[id], wp) {
			t.Fatalf("features %d mismatch", id)
		}
	}
}

// TestDBConcurrentCompactSwap is the satellite race test: one goroutine
// ingesting and compacting (manifest swaps, segment retirement) while N
// reader goroutines fetch and verify record contents. Run under -race. It
// asserts no torn reads (every fetched record matches its deterministic
// content) and exact read-count reconciliation afterward.
func TestDBConcurrentCompactSwap(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, testD)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingestBatch(t, db, 0, 50)

	const readers = 8
	stop := make(chan struct{})
	var fetches atomic.Int64
	var wg sync.WaitGroup

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Alternate the two read planes: one-shot Fetch (copying)
				// and snapshot views (zero-copy, pinned).
				s := db.Acquire()
				total := s.Len()
				id := i % total
				if got := s.Series(id); !floatsEqual(got, testSeries(id, testN)) {
					s.Release()
					t.Errorf("torn/stale snapshot read at id %d", id)
					return
				}
				s.Release()
				id = (i * 7) % total
				if got := db.Fetch(id); !floatsEqual(got, testSeries(id, testN)) {
					t.Errorf("torn Fetch read at id %d", id)
					return
				}
				fetches.Add(1)
				i++
			}
		}(g * 1000)
	}

	// Writer goroutine: grow and compact, swapping generations under load.
	next := 50
	for round := 0; round < 20; round++ {
		rows := make([][]float64, 25)
		labels := make([]int64, 25)
		for i := range rows {
			rows[i] = testSeries(next+i, testN)
			labels[i] = int64(next + i)
		}
		if _, err := db.Ingest(rows, labels); err != nil {
			t.Fatalf("round %d ingest: %v", round, err)
		}
		next += 25
		if round%3 == 2 {
			if _, err := db.Compact(1 << 20); err != nil {
				t.Fatalf("round %d compact: %v", round, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if t.Failed() {
		return
	}
	if fetches.Load() == 0 {
		t.Fatal("no reader completed a Fetch during the swaps")
	}
	verifyAll(t, db, next)
	if db.Stats().Generation < 20 {
		t.Fatalf("generation %d, want >= 20 swaps", db.Stats().Generation)
	}
}
