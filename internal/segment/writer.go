package segment

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"lbkeogh/internal/fourier"
	"lbkeogh/internal/paa"
	"lbkeogh/internal/ts"
)

// ErrInvalidRecords is wrapped by every error the records handed to a store
// cause themselves — none at all, a label count that does not match them, a
// length that does not match the store's or is below 2, a NaN or ±Inf sample
// — and by no error the store meets writing them.
var ErrInvalidRecords = errors.New("invalid records")

// invalid formats an error wrapping ErrInvalidRecords.
func invalid(format string, args ...any) error {
	return fmt.Errorf("segment: %w: "+format, append([]any{ErrInvalidRecords}, args...)...)
}

// Features computes the per-record compressed columns a segment stores
// alongside the raw series: the rotation-invariant Fourier magnitudes and
// the PAA means, both at dimensionality d. Ingest pipelines call it from
// worker goroutines and hand the results to Writer.AddPrecomputed so the
// single writer goroutine only streams bytes. The magnitudes are
// fourier.Magnitudes' bits, so at the usual d they cost O(n·d) direct sums,
// not a transform; a store whose column came from the transform answers
// exactly too, within the rounding bound of DESIGN.md §6.
func Features(series []float64, d int) (mags, paas []float64) {
	return fourier.Magnitudes(series, d), paa.Reduce(series, d)
}

// FeatureDims is the one rule for a store's feature dimensionality: d
// requested dimensions (d < 1 selects 8) for series of length n, clamped to
// n/2, the magnitudes a length-n series has.
func FeatureDims(d, n int) int {
	if d < 1 {
		d = 8
	}
	return min(d, n/2)
}

// colSpill is one column's spill state: a temporary file written through a
// buffered writer, with the section CRC accumulated as bytes stream through.
type colSpill struct {
	f   *os.File
	bw  *bufio.Writer
	crc hash.Hash32
	n   int64 // bytes written
}

func newColSpill(dir string) (*colSpill, error) {
	f, err := os.CreateTemp(dir, ".lbseg-col-*")
	if err != nil {
		return nil, err
	}
	c := &colSpill{f: f, crc: crc32.NewIEEE()}
	c.bw = bufio.NewWriterSize(io.MultiWriter(f, c.crc), 1<<16)
	return c, nil
}

func (c *colSpill) write(p []byte) error {
	n, err := c.bw.Write(p)
	c.n += int64(n)
	return err
}

func (c *colSpill) discard() {
	c.f.Close()
	os.Remove(c.f.Name())
}

// Writer builds one immutable segment file. Records stream through
// per-column spill files (nothing accumulates in memory), and Close
// assembles the final file under a temporary name before renaming it into
// place, so path either holds a complete, checksummed segment or nothing.
//
// A Writer is single-goroutine; parallel ingest pipelines precompute
// features in workers and funnel records through one Writer.
type Writer struct {
	path  string
	n, d  int
	count int64
	cols  [numSections]*colSpill
	buf   []byte // encode scratch, one record of the widest column
	done  bool
}

// NewWriter starts a segment at path for series of length n with d feature
// dimensions. The spill files live next to path so the final rename stays on
// one filesystem.
func NewWriter(path string, n, d int) (*Writer, error) {
	if n < 2 {
		return nil, invalid("series length %d < 2", n)
	}
	if d < 1 || d > n/2 {
		return nil, fmt.Errorf("segment: dims %d outside [1, n/2=%d]", d, n/2)
	}
	w := &Writer{path: path, n: n, d: d, buf: make([]byte, 8*n)}
	dir := filepath.Dir(path)
	for i := range w.cols {
		c, err := newColSpill(dir)
		if err != nil {
			w.Abort()
			return nil, fmt.Errorf("segment: %w", err)
		}
		w.cols[i] = c
	}
	return w, nil
}

// Add appends one record, computing its feature columns. Use AddPrecomputed
// when features were computed elsewhere (e.g. by ingest workers).
func (w *Writer) Add(series []float64, label int64) error {
	if len(series) != w.n {
		return invalid("series length %d != %d", len(series), w.n)
	}
	mags, paas := Features(series, w.d)
	return w.AddPrecomputed(series, mags, paas, label)
}

// AddPrecomputed appends one record with caller-computed feature columns. A
// series ts.CheckRow refuses is refused, naming the record (counted from the
// start of this segment): a NaN or ±Inf sample makes its bounds NaN, so an
// index over the store would never propose it or its neighbours, and a
// squared norm that overflows puts it at +Inf from every query.
func (w *Writer) AddPrecomputed(series, mags, paas []float64, label int64) error {
	if w.done {
		return fmt.Errorf("segment: writer already closed")
	}
	if len(series) != w.n {
		return invalid("series length %d != %d", len(series), w.n)
	}
	if err := ts.CheckRow(series); err != nil {
		return invalid("record %d %w", w.count, err)
	}
	if len(mags) != w.d || len(paas) != w.d {
		return fmt.Errorf("segment: feature lengths %d/%d != dims %d", len(mags), len(paas), w.d)
	}
	if err := w.writeFloats(w.cols[0], series); err != nil {
		return err
	}
	if err := w.writeFloats(w.cols[1], mags); err != nil {
		return err
	}
	if err := w.writeFloats(w.cols[2], paas); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(w.buf, uint64(label))
	if err := w.cols[3].write(w.buf[:8]); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	w.count++
	return nil
}

func (w *Writer) writeFloats(c *colSpill, vals []float64) error {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(w.buf[8*i:], math.Float64bits(v))
	}
	if err := c.write(w.buf[:8*len(vals)]); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	return nil
}

// Count returns the number of records appended so far.
func (w *Writer) Count() int64 { return w.count }

// Abort discards the writer and every temporary file. Safe after Close.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	for _, c := range w.cols {
		if c != nil {
			c.discard()
		}
	}
}

// Close assembles the segment and atomically renames it into place. A
// zero-record writer is an error (an empty segment has no reason to exist).
func (w *Writer) Close() error {
	if w.done {
		return fmt.Errorf("segment: writer already closed")
	}
	if w.count == 0 {
		w.Abort()
		return fmt.Errorf("segment: refusing to write an empty segment")
	}
	w.done = true
	defer func() {
		for _, c := range w.cols {
			c.discard()
		}
	}()

	secs := make([]section, numSections)
	off := alignUp(int64(headerSize + numSections*entrySize + 4))
	for i, c := range w.cols {
		if err := c.bw.Flush(); err != nil {
			return fmt.Errorf("segment: %w", err)
		}
		secs[i] = section{kind: sectionKinds[i], off: off, length: c.n, crc: c.crc.Sum32()}
		off = alignUp(off + c.n)
	}

	out, err := os.CreateTemp(filepath.Dir(w.path), ".lbseg-final-*")
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	defer func() {
		if out != nil {
			out.Close()
			os.Remove(out.Name())
		}
	}()
	h := header{n: w.n, d: w.d, count: w.count, sections: numSections, tableOff: headerSize}
	if _, err := out.Write(encodeHeader(h)); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	if _, err := out.Write(encodeTable(secs)); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	for i, c := range w.cols {
		if err := copyAt(out, secs[i].off, c.f); err != nil {
			return fmt.Errorf("segment: assembling column %d: %w", i, err)
		}
	}
	if err := out.Sync(); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	tmpName := out.Name()
	if err := out.Close(); err != nil {
		out = nil
		os.Remove(tmpName)
		return fmt.Errorf("segment: %w", err)
	}
	out = nil
	if err := os.Rename(tmpName, w.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("segment: %w", err)
	}
	return syncDir(filepath.Dir(w.path))
}

// copyAt seeks dst to off (zero-filling the alignment gap) and copies src
// from its start.
func copyAt(dst *os.File, off int64, src *os.File) error {
	if _, err := dst.Seek(off, io.SeekStart); err != nil {
		return err
	}
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err := io.Copy(dst, src)
	return err
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
// Filesystems that refuse directory fsync (some network mounts) are
// tolerated: the rename itself is still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync() //nolint:errcheck // best-effort durability, see above
	return nil
}
