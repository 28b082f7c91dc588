package segment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// bulkStore writes count records into dir as segments of perSegment records,
// returning the journal-free store directory.
func bulkStore(t *testing.T, dir string, count int, perSegment int64) {
	t.Helper()
	bw, err := NewBulkWriter(dir, testN, testD, perSegment)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		if err := bw.Add(testSeries(i, testN), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
}

// editManifest rewrites dir's manifest through edit.
func editManifest(t *testing.T, dir string, edit func(*Manifest)) {
	t.Helper()
	m, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: ok=%v err=%v", ok, err)
	}
	edit(&m)
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
}

// A panicking fetch (here: an out-of-range ID) must not leak its snapshot
// reference — a leaked reference would pin merged-away segments on disk
// forever.
func TestFetchPanicReleasesSnapshot(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, testD)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingestBatch(t, db, 0, 5)
	ingestBatch(t, db, 5, 5)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range fetch did not panic")
			}
		}()
		db.Fetch(10)
	}()

	old, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if merged, err := db.Compact(0); err != nil || merged != 2 {
		t.Fatalf("Compact = %d, %v; want 2 merged", merged, err)
	}
	now, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Both pre-compaction segments must be gone: nothing pins the old
	// generation once the failed fetch released its reference.
	left := 0
	for _, e := range now {
		if strings.HasSuffix(e.Name(), segSuffix) {
			left++
		}
	}
	if left != 1 {
		t.Fatalf("%d segment files remain after compaction (had %d entries before), want 1", left, len(old))
	}
}

func TestManifestRecovery(t *testing.T) {
	writeStore := func(t *testing.T) string {
		dir := t.TempDir()
		bulkStore(t, dir, 20, 10)
		return dir
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		wantErr string // empty: open must succeed
		orphans int
	}{
		{
			name: "truncated manifest",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, ManifestName)
				buf, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "corrupt or truncated",
		},
		{
			name: "garbage manifest",
			corrupt: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("not json{"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "corrupt or truncated",
		},
		{
			name: "truncated segment file",
			corrupt: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, segFileName(0)), []byte("stub"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "smaller than",
		},
		{
			name: "segment listed twice",
			corrupt: func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) { m.Segments = append(m.Segments, m.Segments[0]) })
			},
			wantErr: `"seg-000000.lbseg" is listed twice`,
		},
		{
			name: "segments of two series lengths",
			corrupt: func(t *testing.T, dir string) {
				writeTestSegment(t, filepath.Join(dir, segFileName(2)), 32, testD, 5)
				editManifest(t, dir, func(m *Manifest) {
					m.Segments = append(m.Segments, ManifestSegment{File: segFileName(2), Records: 5})
				})
			},
			wantErr: "seg-000002.lbseg: series length 32 and dims 6 disagree",
		},
		{
			name: "manifest shape disagrees with its segments",
			corrupt: func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) { m.Dims++ })
			},
			wantErr: "seg-000000.lbseg: series length 24 and dims 6 disagree",
		},
		{
			name: "orphaned segment is ignored",
			corrupt: func(t *testing.T, dir string) {
				buf, err := os.ReadFile(filepath.Join(dir, segFileName(0)))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "seg-000099.lbseg"), buf, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			orphans: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeStore(t)
			tc.corrupt(t, dir)
			db, err := OpenDB(dir, testD)
			if tc.wantErr != "" {
				if err == nil {
					db.Close()
					t.Fatalf("open succeeded, want error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("open failed: %v", err)
			}
			defer db.Close()
			if db.Len() != 20 {
				t.Fatalf("store serves %d records, want 20 (orphan must not be served)", db.Len())
			}
			st := db.Stats()
			if len(st.Orphans) != tc.orphans {
				t.Fatalf("Stats.Orphans = %v, want %d entries", st.Orphans, tc.orphans)
			}
		})
	}
}

// FuzzLoadManifest holds OpenDB to its contract on an arbitrary MANIFEST.json
// beside two valid segments of different series lengths: the open is refused,
// or the store serves each distinct listed segment's records once and every
// row at SeriesLen() samples. It never panics.
func FuzzLoadManifest(f *testing.F) {
	dir := f.TempDir()
	records := map[string]int{segFileName(0): 4, segFileName(1): 3}
	writeTestSegment(f, filepath.Join(dir, segFileName(0)), testN, testD, 4)
	writeTestSegment(f, filepath.Join(dir, segFileName(1)), 32, testD, 3)
	a := ManifestSegment{File: segFileName(0), Records: 4}
	b := ManifestSegment{File: segFileName(1), Records: 3}
	for _, m := range []Manifest{
		{SeriesLen: testN, Dims: testD, Segments: []ManifestSegment{a}},     // valid
		{SeriesLen: testN, Dims: testD, Segments: []ManifestSegment{a, a}},  // listed twice
		{SeriesLen: testN, Dims: testD, Segments: []ManifestSegment{a, b}},  // two series lengths
		{SeriesLen: testN, Dims: testD + 1, Segments: []ManifestSegment{a}}, // shape disagrees
	} {
		m.Version = manifestVersion
		buf, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenDB(dir, testD)
		if err != nil {
			return
		}
		defer db.Close()
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("opened a manifest that does not decode: %v", err)
		}
		want := 0
		seen := map[string]bool{}
		for _, s := range m.Segments {
			if !seen[s.File] {
				seen[s.File] = true
				want += records[s.File]
			}
		}
		if db.Len() != want {
			t.Fatalf("Len() = %d, want %d, the records of the distinct listed segments", db.Len(), want)
		}
		for id := 0; id < db.Len(); id++ {
			if got := len(db.Fetch(id)); got != db.SeriesLen() {
				t.Fatalf("row %d has %d samples, SeriesLen() = %d", id, got, db.SeriesLen())
			}
		}
	})
}

// Pinned.Fetch is DB.Fetch minus the Acquire/Release pair and the copy: same
// rows, same range panic — and rows that stay readable through a compaction
// because the pin outlives it.
func TestPinnedFetchMatchesFetch(t *testing.T) {
	dir := t.TempDir()
	bulkStore(t, dir, 100, 40)

	db, err := OpenDB(dir, testD)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Acquire()
	defer snap.Release()
	pin := db.Pinned(snap)
	for id := 0; id < 100; id += 3 {
		if want := testSeries(id, testN); !floatsEqual(pin.Fetch(id), want) || !floatsEqual(db.Fetch(id), want) {
			t.Fatalf("fetch(%d) mismatch", id)
		}
	}
	if pin.Len() != 100 {
		t.Fatalf("pinned Len = %d", pin.Len())
	}
	row := pin.Fetch(41)
	if canViewFloats && snap.segs[0].ZeroCopy() && &row[0] != &pin.Fetch(41)[0] {
		t.Fatal("pinned Fetch copies under a zero-copy backend")
	}
	if &db.Fetch(41)[0] == &db.Fetch(41)[0] {
		t.Fatal("DB.Fetch no longer returns a private copy")
	}
	ingestBatch(t, db, 100, 20)
	if _, err := db.Compact(0); err != nil {
		t.Fatal(err)
	}
	if pin.Len() != 100 || !floatsEqual(row, testSeries(41, testN)) || !floatsEqual(pin.Fetch(99), testSeries(99, testN)) {
		t.Fatal("pinned rows did not survive a compaction under the pin")
	}
	for _, fetch := range []func(int) []float64{db.Fetch, pin.Fetch} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "out of range [0,") {
					t.Errorf("bad id: panic %q, want the range message", msg)
				}
			}()
			fetch(-1)
		}()
	}
}
