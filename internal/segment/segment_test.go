package segment

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbkeogh/internal/fourier"
	"lbkeogh/internal/paa"
)

// testSeries builds a deterministic series for a record ID so readers can
// verify content integrity without reference to the writer's inputs.
func testSeries(id, n int) []float64 {
	s := make([]float64, n)
	for j := range s {
		s[j] = math.Sin(float64(id)*0.1+float64(j)*0.05) + float64(id)
	}
	return s
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func writeTestSegment(t testing.TB, path string, n, d, count int) {
	t.Helper()
	w, err := NewWriter(path, n, d)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < count; i++ {
		if err := w.Add(testSeries(i, n), int64(i%7)); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000000.lbseg")
	const n, d, count = 32, 8, 57
	writeTestSegment(t, path, n, d, count)

	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if r.Len() != count || r.SeriesLen() != n || r.Dims() != d {
		t.Fatalf("shape: len=%d n=%d d=%d, want %d/%d/%d", r.Len(), r.SeriesLen(), r.Dims(), count, n, d)
	}
	for i := 0; i < count; i++ {
		want := testSeries(i, n)
		if got := r.Series(i); !floatsEqual(got, want) {
			t.Fatalf("Series(%d) mismatch", i)
		}
		if got := r.Magnitudes(i); !floatsEqual(got, fourier.Magnitudes(want, d)) {
			t.Fatalf("Magnitudes(%d) mismatch", i)
		}
		if got := r.PAA(i); !floatsEqual(got, paa.Reduce(want, d)) {
			t.Fatalf("PAA(%d) mismatch", i)
		}
		if got := r.Label(i); got != int64(i%7) {
			t.Fatalf("Label(%d) = %d, want %d", i, got, i%7)
		}
	}
	if r.ZeroCopy() && r.MappedBytes() == 0 {
		t.Fatal("zero-copy reader reports no mapped bytes")
	}

	// Spill and assembly temp files must all be gone.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".lbseg-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestWriterRejectsBadShapes(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewWriter(filepath.Join(dir, "a.lbseg"), 1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewWriter(filepath.Join(dir, "a.lbseg"), 32, 17); err == nil {
		t.Fatal("d>n/2 accepted")
	}
	w, err := NewWriter(filepath.Join(dir, "a.lbseg"), 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(make([]float64, 31), 0); err == nil {
		t.Fatal("wrong-length series accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("empty segment accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, "a.lbseg")); !os.IsNotExist(err) {
		t.Fatal("failed close left a segment file")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.lbseg")
	writeTestSegment(t, path, 16, 4, 20)

	flip := func(t *testing.T, off int64) string {
		t.Helper()
		cp := filepath.Join(t.TempDir(), "corrupt.lbseg")
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[off] ^= 0xff
		if err := os.WriteFile(cp, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return cp
	}

	t.Run("header", func(t *testing.T) {
		if _, err := Open(flip(t, 17)); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("want header CRC error, got %v", err)
		}
	})
	t.Run("table", func(t *testing.T) {
		if _, err := Open(flip(t, headerSize+9)); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("want table CRC error, got %v", err)
		}
	})
	t.Run("section-data", func(t *testing.T) {
		cp := flip(t, 300) // inside the raw section (first section starts at 256)
		if _, err := Open(cp); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("want section CRC error, got %v", err)
		}
		// WithoutDataCRC skips only the data checksums.
		r, err := Open(cp, WithoutDataCRC())
		if err != nil {
			t.Fatalf("WithoutDataCRC open: %v", err)
		}
		r.Close()
	})
	t.Run("truncated", func(t *testing.T) {
		cp := filepath.Join(t.TempDir(), "short.lbseg")
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cp, buf[:len(buf)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(cp); err == nil {
			t.Fatal("truncated file accepted")
		}
	})
	// Headers the writer never produces, with every CRC valid: a section
	// length that matches count·width·8 only because the product wraps, and
	// shapes outside n ≥ 2, 1 ≤ d ≤ n/2.
	for name, b := range map[string][]byte{
		"count-overflow-n1": craftSegment(1, 1, 1<<61+1),
		"count-overflow-n2": craftSegment(2, 1, 1<<61+1),
		"d-above-half-n":    craftSegment(4, 3, 1),
	} {
		t.Run(name, func(t *testing.T) {
			cp := filepath.Join(t.TempDir(), "crafted.lbseg")
			if err := os.WriteFile(cp, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if r, err := Open(cp); err == nil {
				r.Close()
				t.Fatalf("crafted header accepted: Len() = %d", r.Len())
			}
		})
	}
	t.Run("not-a-segment", func(t *testing.T) {
		cp := filepath.Join(t.TempDir(), "junk.lbseg")
		if err := os.WriteFile(cp, []byte("not a segment file at all, sorry"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(cp); err == nil {
			t.Fatal("junk file accepted")
		}
	})
}

func TestDecodeFloatsMatchesView(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.lbseg")
	writeTestSegment(t, path, 16, 4, 5)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	raw, err := r.be.record(r.secs[0].off, 16*8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := decodeFloats(raw, 16), r.Series(0); !floatsEqual(got, want) {
		t.Fatal("decodeFloats disagrees with the platform view")
	}
}

func TestBulkWriter(t *testing.T) {
	dir := t.TempDir()
	const n, d = 24, 6
	b, err := NewBulkWriter(dir, n, d, 64)
	if err != nil {
		t.Fatal(err)
	}
	const first = 250
	for i := 0; i < first; i++ {
		if err := b.Add(testSeries(i, n), int64(i)); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if got := b.Count(); got != first {
		t.Fatalf("Count = %d, want %d", got, first)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	m, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: ok=%v err=%v", ok, err)
	}
	if m.Generation != 1 || m.SeriesLen != n || m.Dims != d {
		t.Fatalf("manifest %+v", m)
	}
	if want := (first + 63) / 64; len(m.Segments) != want {
		t.Fatalf("%d segments, want %d", len(m.Segments), want)
	}

	// Append run: shapes must match, IDs continue, generation bumps.
	if _, err := NewBulkWriter(dir, n+1, d, 64); err == nil {
		t.Fatal("mismatched series length accepted")
	}
	b2, err := NewBulkWriter(dir, n, d, 64)
	if err != nil {
		t.Fatal(err)
	}
	const second = 30
	for i := 0; i < second; i++ {
		if err := b2.Add(testSeries(first+i, n), int64(first+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := b2.Count(); got != second {
		t.Fatalf("append-run Count = %d, want %d", got, second)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := OpenDB(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != first+second {
		t.Fatalf("Len = %d, want %d", db.Len(), first+second)
	}
	if db.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", db.Generation())
	}
	s := db.Acquire()
	defer s.Release()
	for _, id := range []int{0, 63, 64, first - 1, first, first + second - 1} {
		if !floatsEqual(s.Series(id), testSeries(id, n)) {
			t.Fatalf("record %d mismatch", id)
		}
		if s.Label(id) != int64(id) {
			t.Fatalf("label %d mismatch", id)
		}
	}
}

// craftSegment assembles a 512-byte segment file with valid header, table
// and section CRCs for an arbitrary header: each of the four sections sits in
// its own 64-byte slot from offset 256 and records count·width·8 bytes as a
// wrapping uint64 product, the way a writer with an overflowing multiply
// would. Widths must keep every length within 64 bytes.
func craftSegment(n, d int, count uint64) []byte {
	buf := make([]byte, 512)
	copy(buf, encodeHeader(header{n: n, d: d, count: int64(count), sections: numSections, tableOff: headerSize}))
	secs := make([]section, numSections)
	for i, w := range []int{n, d, d, 1} {
		length := int64(count * uint64(w) * 8)
		off := int64(256 + 64*i)
		secs[i] = section{kind: sectionKinds[i], off: off, length: length, crc: crc32.ChecksumIEEE(buf[off : off+length])}
	}
	copy(buf[headerSize:], encodeTable(secs))
	return buf
}

// restampCRCs rewrites the header and section-table checksums of a candidate
// segment file in place, so that fuzzed field values reach the checks behind
// them instead of stopping at a CRC mismatch.
func restampCRCs(b []byte) {
	tableEnd := headerSize + numSections*entrySize
	if len(b) < tableEnd+4 {
		return
	}
	binary.LittleEndian.PutUint32(b[40:], crc32.ChecksumIEEE(b[:40]))
	binary.LittleEndian.PutUint32(b[tableEnd:], crc32.ChecksumIEEE(b[headerSize:tableEnd]))
}

// FuzzOpen holds Open to its contract on arbitrary bytes: a file is either
// refused or every record of every column reads back without a panic,
// through the mapping and through positioned reads, with and without the
// section checksums verified.
func FuzzOpen(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.lbseg")
	writeTestSegment(f, seed, 16, 4, 3)
	valid, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(craftSegment(1, 1, 1<<61+1))
	f.Add(craftSegment(2, 1, 1<<61+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		restampCRCs(data)
		path := filepath.Join(t.TempDir(), "fuzz.lbseg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range [][]OpenOption{nil, {WithPread()}, {WithoutDataCRC()}, {WithoutDataCRC(), WithPread()}} {
			r, err := Open(path, opts...)
			if err != nil {
				continue
			}
			for i := 0; i < r.Len(); i++ {
				r.Series(i)
				r.Magnitudes(i)
				r.PAA(i)
				r.Label(i)
			}
			r.Close()
		}
	})
}

// Every feature producer computes the stored magnitudes through the one
// fourier.Magnitudes, so the path it takes depends only on (n, d): rows
// stored by BulkWriter.Add and by DB.Ingest are fourier.Magnitudes' bits,
// at a d the direct sums serve and at n/2, which the transform serves.
func TestStoredMagnitudesAreMagnitudes(t *testing.T) {
	const n, count = 251, 40
	for _, d := range []int{8, n / 2} {
		bulkDir, ingestDir := t.TempDir(), t.TempDir()
		b, err := NewBulkWriter(bulkDir, n, d, 16)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, count)
		for i := range rows {
			rows[i] = testSeries(i, n)
			if err := b.Add(rows[i], int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		ing, err := OpenDB(ingestDir, d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ing.Ingest(rows[:count/2], nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ing.Ingest(rows[count/2:], nil); err != nil {
			t.Fatal(err)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{bulkDir, ingestDir} {
			db, err := OpenDB(dir, d)
			if err != nil {
				t.Fatal(err)
			}
			snap := db.Acquire()
			mags, _ := snap.Features()
			if len(mags) != count {
				t.Fatalf("d=%d: %d magnitude rows, want %d", d, len(mags), count)
			}
			for id, m := range mags {
				if !floatsEqual(m, fourier.Magnitudes(rows[id], d)) {
					t.Fatalf("d=%d %s: stored magnitudes of row %d are not fourier.Magnitudes' bits", d, dir, id)
				}
			}
			snap.Release()
			db.Close()
		}
	}
}

// Reader.Series and Snapshot.Series are views under mmap and allocate
// nothing. Under WithPread each call is a private copy: a read buffer and
// the decoded row.
func TestSeriesAllocations(t *testing.T) {
	dir := t.TempDir()
	bulkStore(t, dir, 100, 40)
	for _, pread := range []bool{false, true} {
		var opts []OpenOption
		if pread {
			opts = append(opts, WithPread())
		}
		db, err := OpenDB(dir, testD, opts...)
		if err != nil {
			t.Fatal(err)
		}
		snap := db.Acquire()
		r := snap.segs[1]
		want := 0
		if !r.ZeroCopy() {
			want = 2
		}
		if pread && want == 0 {
			t.Fatal("WithPread reader reports zero-copy views")
		}
		var row []float64
		if a := int(testing.AllocsPerRun(100, func() { row = r.Series(3) })); a != want {
			t.Errorf("pread=%v: Reader.Series allocates %d times per call, want %d", pread, a, want)
		}
		if a := int(testing.AllocsPerRun(100, func() { row = snap.Series(77) })); a != want {
			t.Errorf("pread=%v: Snapshot.Series allocates %d times per call, want %d", pread, a, want)
		}
		if view := &snap.Series(77)[0] == &row[0]; view != (want == 0) {
			t.Errorf("pread=%v: two Series(77) calls share memory: %v, want %v", pread, view, want == 0)
		}
		snap.Release()
		db.Close()
	}
}

// TestFeatureDims: the one feature-dimensionality rule — d < 1 selects 8,
// then at most n/2 — for every caller that sizes a feature column.
func TestFeatureDims(t *testing.T) {
	for _, c := range []struct{ d, n, want int }{
		{0, 64, 8}, {-3, 64, 8}, {8, 64, 8}, {16, 64, 16}, {40, 64, 32},
		{0, 10, 5}, {1, 2, 1}, {0, 2, 1}, {4, 9, 4}, {5, 9, 4},
	} {
		if got := FeatureDims(c.d, c.n); got != c.want {
			t.Errorf("FeatureDims(%d, %d) = %d, want %d", c.d, c.n, got, c.want)
		}
	}
}
