package segment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// storeFiles reads every file of a store directory into memory.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = buf
	}
	return files
}

// layFiles writes the union of sets into a fresh directory; a later set
// wins a name two sets share.
func layFiles(t *testing.T, sets ...map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for _, files := range sets {
		for name, buf := range files {
			if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// pick returns the named files of files.
func pick(files map[string][]byte, names ...string) map[string][]byte {
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		out[name] = files[name]
	}
	return out
}

// manifestOf decodes the manifest held in files.
func manifestOf(t *testing.T, files map[string][]byte) Manifest {
	t.Helper()
	var m Manifest
	if err := json.Unmarshal(files[ManifestName], &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// Crash-point reopen: each state a crash can leave between an ingest's or a
// compaction's first write and its manifest swap is laid out from the files
// of real runs, with no hook in the store. OpenDB must serve exactly the old
// or the new generation, sweep the temp debris and name exactly the
// unlisted .lbseg files as orphans. The store must then take one more
// mutation — an Ingest, or a bulk load — without writing over an orphan.
func TestCrashPointReopen(t *testing.T) {
	// before: seg-0, seg-1 (20 rows, generation 2). ingested: one more
	// ingest adds seg-2 (30 rows, generation 3). compacted: Compact(0)
	// merges those into seg-3 and unlinks them (generation 4).
	dir := t.TempDir()
	db, err := OpenDB(dir, testD)
	if err != nil {
		t.Fatal(err)
	}
	ingestBatch(t, db, 0, 10)
	ingestBatch(t, db, 10, 10)
	before := storeFiles(t, dir)
	ingestBatch(t, db, 20, 10)
	ingested := storeFiles(t, dir)
	if merged, err := db.Compact(0); err != nil || merged != 3 {
		t.Fatalf("Compact = %d, %v; want 3 merged", merged, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	compacted := storeFiles(t, dir)
	for name, files := range map[string]map[string][]byte{"before": before, "ingested": ingested, "compacted": compacted} {
		for f := range files {
			if strings.HasPrefix(f, ".lbseg-") {
				t.Fatalf("%s: temp file %s left by a finished mutation", name, f)
			}
		}
	}
	if got := len(compacted); got != 2 {
		t.Fatalf("compacted store holds %d files, want the manifest and seg-000003", got)
	}
	seg := segFileName

	debris := map[string][]byte{
		".lbseg-col-1234":   ingested[seg(2)][:100], // a column spill
		".lbseg-final-5678": ingested[seg(2)][:300], // a half-assembled segment
	}
	manifestTemp := map[string][]byte{".lbseg-manifest-42": ingested[ManifestName]}

	cases := []struct {
		name    string
		files   []map[string][]byte
		serves  map[string][]byte // the generation OpenDB must serve
		rows    int
		orphans []string
	}{
		{"a ingest spill and assembly debris", []map[string][]byte{before, debris},
			before, 20, nil},
		{"b ingest segment renamed, manifest not swapped", []map[string][]byte{before, pick(ingested, seg(2))},
			before, 20, []string{seg(2)}},
		{"c ingest manifest temp beside the old manifest", []map[string][]byte{before, pick(ingested, seg(2)), manifestTemp},
			before, 20, []string{seg(2)}},
		{"d ingest manifest swapped", []map[string][]byte{ingested},
			ingested, 30, nil},
		{"a compact assembly debris", []map[string][]byte{ingested, {".lbseg-final-9": compacted[seg(3)][:300]}},
			ingested, 30, nil},
		{"e compact merged file renamed, manifest not swapped", []map[string][]byte{ingested, pick(compacted, seg(3))},
			ingested, 30, []string{seg(3)}},
		{"f compact manifest swapped, merged-away files on disk", []map[string][]byte{ingested, compacted},
			compacted, 30, []string{seg(0), seg(1), seg(2)}},
	}
	followUps := []struct {
		name string
		add  func(t *testing.T, dir string, from, count int)
	}{
		{"ingest", func(t *testing.T, dir string, from, count int) {
			db, err := OpenDB(dir, testD)
			if err != nil {
				t.Fatal(err)
			}
			ingestBatch(t, db, from, count)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"bulk", func(t *testing.T, dir string, from, count int) {
			bw, err := NewBulkWriter(dir, testN, testD, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			for i := from; i < from+count; i++ {
				if err := bw.Add(testSeries(i, testN), int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := bw.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		for _, fu := range followUps {
			t.Run(tc.name+"/"+fu.name, func(t *testing.T) {
				dir := layFiles(t, tc.files...)
				state := storeFiles(t, dir)
				want := manifestOf(t, tc.serves)

				db, err := OpenDB(dir, testD)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if db.Generation() != want.Generation || !reflect.DeepEqual(db.Stats().Segments, want.Segments) {
					t.Fatalf("serves generation %d %v, want %d %v",
						db.Generation(), db.Stats().Segments, want.Generation, want.Segments)
				}
				verifyAll(t, db, tc.rows)
				if got := db.Stats().Orphans; !slices.Equal(got, tc.orphans) {
					t.Fatalf("Stats.Orphans = %v, want %v", got, tc.orphans)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				for name := range storeFiles(t, dir) {
					if strings.HasPrefix(name, ".lbseg-") {
						t.Fatalf("temp file %s survived the open", name)
					}
				}

				// A different row count from the crashed ingest's, so a
				// segment written over an orphan changes its bytes.
				fu.add(t, dir, tc.rows, 5)
				db, err = OpenDB(dir, testD)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer db.Close()
				verifyAll(t, db, tc.rows+5)
				st := db.Stats()
				if !slices.Equal(st.Orphans, tc.orphans) {
					t.Fatalf("after one more %s, Stats.Orphans = %v, want %v", fu.name, st.Orphans, tc.orphans)
				}
				for _, o := range st.Orphans {
					if slices.ContainsFunc(st.Segments, func(s ManifestSegment) bool { return s.File == o }) {
						t.Fatalf("orphan %s is a live segment of %v", o, st.Segments)
					}
					buf, err := os.ReadFile(filepath.Join(dir, o))
					if err != nil || !bytes.Equal(buf, state[o]) {
						t.Fatalf("orphan %s changed on disk (err %v)", o, err)
					}
				}
			})
		}
	}
}
