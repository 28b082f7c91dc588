package segment

import (
	"fmt"
	"os"
	"path/filepath"
)

// BulkWriter streams a large ingest into a store directory, cutting a new
// segment every perSegment records and committing the whole batch with one
// manifest swap at Close. It appends to an existing store (shape parameters
// must match) or initializes an empty one. Unlike DB.Ingest it never opens
// readers or builds snapshots, so a million-record load costs only
// sequential writes.
//
// Not safe for concurrent use; parallel pipelines precompute features in
// workers and funnel through one BulkWriter (see cmd/shapeingest).
type BulkWriter struct {
	dir        string
	n, d       int
	perSegment int64

	cur      *Writer
	seq      int64
	gen      int64
	segs     []ManifestSegment
	total    int64 // records in finished segments, preexisting included
	preexist int64 // records already in the store when the run began
	done     bool

	bytesWritten int64 // finished segment files, this run
}

// BytesWritten returns the bytes of finished segment files this run wrote.
func (b *BulkWriter) BytesWritten() int64 { return b.bytesWritten }

// NewBulkWriter opens dir for bulk ingest of series of length n with d
// feature dims, cutting segments at perSegment records (min 1). If dir
// already holds a store, n and d must match it and new segments append
// after the existing ones.
func NewBulkWriter(dir string, n, d int, perSegment int64) (*BulkWriter, error) {
	if perSegment < 1 {
		return nil, fmt.Errorf("segment: per-segment record count %d < 1", perSegment)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	m, ok, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	b := &BulkWriter{dir: dir, n: n, d: d, perSegment: perSegment}
	if ok {
		if m.SeriesLen != n || m.Dims != d {
			return nil, fmt.Errorf("segment: store is n=%d d=%d, ingest is n=%d d=%d",
				m.SeriesLen, m.Dims, n, d)
		}
		b.gen = m.Generation
		b.segs = append(b.segs, m.Segments...)
		for _, s := range m.Segments {
			b.total += s.Records
		}
		b.preexist = b.total
	}
	b.seq, _ = scanSegments(dir, m)
	return b, nil
}

// Count returns the number of records appended by this bulk run.
func (b *BulkWriter) Count() int64 {
	return b.Total() - b.preexist
}

// Total returns the record count the store will hold after Close.
func (b *BulkWriter) Total() int64 {
	n := b.total
	if b.cur != nil {
		n += b.cur.Count()
	}
	return n
}

// Add appends one record, computing its feature columns inline.
func (b *BulkWriter) Add(series []float64, label int64) error {
	if err := b.roll(); err != nil {
		return err
	}
	return b.cur.Add(series, label)
}

// AddPrecomputed appends one record with features computed elsewhere.
func (b *BulkWriter) AddPrecomputed(series, mags, paas []float64, label int64) error {
	if err := b.roll(); err != nil {
		return err
	}
	return b.cur.AddPrecomputed(series, mags, paas, label)
}

// roll cuts the current segment when full and starts the next one.
func (b *BulkWriter) roll() error {
	if b.done {
		return fmt.Errorf("segment: bulk writer already closed")
	}
	if b.cur != nil && b.cur.Count() >= b.perSegment {
		if err := b.finishSegment(); err != nil {
			return err
		}
	}
	if b.cur == nil {
		w, err := NewWriter(filepath.Join(b.dir, segFileName(b.seq)), b.n, b.d)
		if err != nil {
			return err
		}
		b.cur = w
	}
	return nil
}

func (b *BulkWriter) finishSegment() error {
	count := b.cur.Count()
	if err := b.cur.Close(); err != nil {
		return err
	}
	name := segFileName(b.seq)
	b.segs = append(b.segs, ManifestSegment{File: name, Records: count})
	b.total += count
	b.seq++
	b.cur = nil
	var size int64
	if info, err := os.Stat(filepath.Join(b.dir, name)); err == nil {
		size = info.Size()
	}
	b.bytesWritten += size
	return nil
}

// Abort discards the in-progress segment. Already-finished segment files
// remain on disk but are never named by a manifest, so a reopened store
// ignores them.
func (b *BulkWriter) Abort() {
	if b.done {
		return
	}
	b.done = true
	if b.cur != nil {
		b.cur.Abort()
		b.cur = nil
	}
}

// Close finishes the last segment and atomically publishes the manifest.
// Closing a bulk run that appended nothing to an empty store is an error.
func (b *BulkWriter) Close() error {
	if b.done {
		return fmt.Errorf("segment: bulk writer already closed")
	}
	b.done = true
	if b.cur != nil {
		if b.cur.Count() == 0 {
			b.cur.Abort()
			b.cur = nil
		} else if err := b.finishSegment(); err != nil {
			return err
		}
	}
	if len(b.segs) == 0 {
		return fmt.Errorf("segment: bulk ingest wrote no records")
	}
	if err := WriteManifest(b.dir, Manifest{
		Generation: b.gen + 1,
		SeriesLen:  b.n,
		Dims:       b.d,
		Segments:   b.segs,
	}); err != nil {
		return err
	}
	return nil
}
