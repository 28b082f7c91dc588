package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync/atomic"
)

// backend abstracts how an open segment's bytes are reached: a whole-file
// memory mapping (mmap_unix.go) or positioned reads (pread.go, also the
// fallback when mapping fails). record either returns a view into the
// mapping (zero copy, valid until close) or fills scratch.
type backend interface {
	// record returns size bytes at off. A mmap backend returns a subslice of
	// the mapping and ignores scratch; a pread backend reads into scratch
	// (allocating when scratch is short) and returns it.
	record(off int64, size int, scratch []byte) ([]byte, error)
	// zeroCopy reports whether record returns mapping views.
	zeroCopy() bool
	// mappedBytes is the size of the live mapping (0 for pread).
	mappedBytes() int64
	close() error
}

// OpenOption customizes Open.
type OpenOption func(*openConfig)

type openConfig struct {
	skipDataCRC bool
	forcePread  bool
}

// WithoutDataCRC skips the per-section CRC verification on open. The header
// and section-table CRCs are always checked. Intended for reopening segments
// this process just wrote and verified; default opens verify everything.
func WithoutDataCRC() OpenOption {
	return func(c *openConfig) { c.skipDataCRC = true }
}

// WithPread forces the positioned-read backend even where mmap is available
// — the same code path as non-Unix platforms and the lbkeogh_pread build
// tag. Lets tests and the fuzzer read every file through both backends
// without cross-compiling.
func WithPread() OpenOption {
	return func(c *openConfig) { c.forcePread = true }
}

// Reader is one open, immutable segment. All accessors are safe for
// concurrent use. Series/Magnitudes/PAA return zero-copy views into the
// mapping when the platform allows it (Unix mmap on a little-endian
// architecture); the views stay valid until Close, which the owning DB only
// calls once every snapshot holding the reader is released.
type Reader struct {
	path string
	n, d int
	m    int64
	secs [numSections]section // indexed by sectionKinds order
	be   backend

	// refs is the retain count managed by the owning DB (segments shared
	// across snapshots close only when the last holder releases). A
	// standalone Reader (refs untouched) is closed directly.
	refs atomic.Int64

	// removeOnClose unlinks the file when the reader finally closes —
	// compaction marks replaced segments with it.
	removeOnClose atomic.Bool
}

// Open validates path's header, section table, and (unless WithoutDataCRC)
// every section checksum, then maps the file.
func Open(path string, opts ...OpenOption) (*Reader, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: %w", err)
	}
	size := info.Size()
	head := make([]byte, headerSize+numSections*entrySize+4)
	if size < int64(len(head)) {
		f.Close()
		return nil, fmt.Errorf("segment: %s: file is %d bytes, smaller than the %d-byte header and section table — truncated or not a segment file",
			path, size, len(head))
	}
	if _, err := f.ReadAt(head, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: %s: reading header: %w", path, err)
	}
	h, err := decodeHeader(head)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	secs, err := decodeTable(head[headerSize:], h.sections)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	r := &Reader{path: path, n: h.n, d: h.d, m: h.count}
	for i, want := range sectionKinds {
		s := secs[i]
		if s.kind != want {
			f.Close()
			return nil, fmt.Errorf("segment: %s: section %d has kind %d, want %d", path, i, s.kind, want)
		}
		// A section holds count records of recBytes each. Checked by division:
		// count·recBytes can wrap int64 and match a short section.
		recBytes := int64(8)
		switch want {
		case kindRaw:
			recBytes *= int64(h.n)
		case kindFFT, kindPAA:
			recBytes *= int64(h.d)
		}
		if s.length%recBytes != 0 || s.length/recBytes != h.count {
			f.Close()
			return nil, fmt.Errorf("segment: %s: section %d length %d is not %d records of %d bytes",
				path, i, s.length, h.count, recBytes)
		}
		if s.off > size || s.length > size-s.off {
			f.Close()
			return nil, fmt.Errorf("segment: %s: truncated (section %d spans %d+%d bytes, file is %d bytes)",
				path, i, s.off, s.length, size)
		}
		r.secs[i] = s
	}
	if cfg.forcePread {
		r.be = newPreadBackend(f, size)
	} else {
		be, err := openBackend(f, size)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("segment: %s: %w", path, err)
		}
		r.be = be
	}
	if !cfg.skipDataCRC {
		if err := r.verifySections(); err != nil {
			r.Close()
			return nil, fmt.Errorf("segment: %s: %w", path, err)
		}
	}
	return r, nil
}

// verifySections recomputes every section CRC through the backend in chunks.
func (r *Reader) verifySections() error {
	const chunk = 1 << 20
	scratch := make([]byte, chunk)
	for i, s := range r.secs {
		h := crc32.NewIEEE()
		for off := int64(0); off < s.length; off += chunk {
			size := int(min(chunk, s.length-off))
			b, err := r.be.record(s.off+off, size, scratch[:size])
			if err != nil {
				return err
			}
			h.Write(b)
		}
		if got := h.Sum32(); got != s.crc {
			return fmt.Errorf("section %d (kind %d) CRC mismatch (file %#x, computed %#x)",
				i, s.kind, s.crc, got)
		}
	}
	return nil
}

// Len returns the number of records.
func (r *Reader) Len() int { return int(r.m) }

// SeriesLen returns the length of every stored series.
func (r *Reader) SeriesLen() int { return r.n }

// Dims returns the feature dimensionality of the FFT and PAA columns.
func (r *Reader) Dims() int { return r.d }

// Path returns the segment's file path.
func (r *Reader) Path() string { return r.path }

// MappedBytes reports the size of the live memory mapping (0 under the
// pread fallback).
func (r *Reader) MappedBytes() int64 { return r.be.mappedBytes() }

// ZeroCopy reports whether record accessors return mapping views.
func (r *Reader) ZeroCopy() bool { return r.be.zeroCopy() && canViewFloats }

// floatRecord returns record i of a float64 column as a []float64: a
// zero-copy view when the backend maps and the architecture is
// little-endian, a decoded heap copy otherwise.
func (r *Reader) floatRecord(sec int, i int, width int) []float64 {
	b, err := r.be.record(r.secs[sec].off+int64(i)*int64(width)*8, width*8, nil)
	if err != nil {
		panic(fmt.Sprintf("segment: %s record %d: %v", r.path, i, err))
	}
	if r.be.zeroCopy() {
		return floatsOf(b, width)
	}
	return decodeFloats(b, width)
}

// Series returns record i's full-resolution series. Zero-copy under mmap on
// little-endian platforms; the view is valid until the reader closes.
//
//lbkeogh:hotpath
func (r *Reader) Series(i int) []float64 {
	return r.floatRecord(0, i, r.n)
}

// Magnitudes returns record i's rotation-invariant Fourier magnitudes.
func (r *Reader) Magnitudes(i int) []float64 {
	return r.floatRecord(1, i, r.d)
}

// PAA returns record i's PAA means.
func (r *Reader) PAA(i int) []float64 {
	return r.floatRecord(2, i, r.d)
}

// Label returns record i's metadata label.
func (r *Reader) Label(i int) int64 {
	var scratch [8]byte
	b, err := r.be.record(r.secs[3].off+int64(i)*8, 8, scratch[:])
	if err != nil {
		panic(fmt.Sprintf("segment: %s meta %d: %v", r.path, i, err))
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// retain/release implement the DB-managed share count: a reader held by k
// snapshots closes only when the last releases it.
func (r *Reader) retain() { r.refs.Add(1) }

func (r *Reader) release() {
	if r.refs.Add(-1) == 0 {
		r.Close() //nolint:errcheck // close of an immutable read-only mapping
	}
}

// Close unmaps and closes the segment (and unlinks it when compaction marked
// it replaced). Views returned earlier must no longer be used.
func (r *Reader) Close() error {
	err := r.be.close()
	if r.removeOnClose.Load() {
		os.Remove(r.path)
	}
	return err
}

// decodeFloats is the portable (copying) float decode.
func decodeFloats(b []byte, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
