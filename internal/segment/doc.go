// Package segment implements the million-shape storage plane: immutable,
// memory-mapped, columnar segment files plus a manifest-managed, growable
// multi-segment store (DB) with online ingest and compaction.
//
// The paper's disk experiments (Section 4.2, Figure 24) assume the database
// lives on disk and only the candidates an index cannot exclude are fetched.
// This package makes that assumption real at scale: the cheap representations
// the screening literature presumes — raw series for envelope bounds, Fourier
// magnitudes for the FFT screen, PAA sketches for the DTW index walk — are
// laid out as separate, sequentially scannable columns, computed once at
// ingest time, and mapped (not loaded) at serve time, so a search touches
// pages rather than a boot-time heap slice. Every sample written is finite
// (Writer.AddPrecomputed refuses the rest).
//
// # Segment file format
//
// One segment is a single little-endian file (conventionally *.lbseg):
//
//	offset 0              header (64 bytes):
//	  0..8      magic "LBKSEG01"
//	  8..12     uint32 version (1)
//	  12..16    uint32 section count
//	  16..20    uint32 n  — series length
//	  20..24    uint32 d  — feature dims (FFT magnitudes, PAA segments)
//	  24..32    uint64 record count
//	  32..40    uint64 section-table offset (64)
//	  40..44    uint32 CRC32 (IEEE) of header bytes [0,40)
//	  44..64    zero padding
//	offset 64             section table (32 bytes per section):
//	  0..4      uint32 kind (1 raw, 2 fft, 3 paa, 4 meta)
//	  4..8      reserved
//	  8..16     uint64 section offset (64-byte aligned)
//	  16..24    uint64 section length in bytes
//	  24..28    uint32 CRC32 (IEEE) of the section bytes
//	  28..32    reserved
//	followed by           uint32 CRC32 of the section-table bytes
//	aligned sections      each starting on a 64-byte boundary:
//	  raw   count × n float64   full-resolution series, row major
//	  fft   count × d float64   rotation-invariant Fourier magnitudes
//	  paa   count × d float64   PAA means
//	  meta  count × int64       per-record metadata (class label)
//
// Records inside a segment, and segments inside a manifest, are strictly
// append-ordered, so a record's global ID never changes across ingests or
// compactions.
//
// # Writer, Reader, DB
//
// Writer streams batches through per-column temporary spill files (running
// CRC32, nothing buffered in memory) and assembles the final file with a
// temp-file + rename, so a crash never leaves a partial segment visible.
//
// Reader validates the header and section CRCs, then maps the file with mmap
// on Unix platforms; a positioned-read (pread) fallback is selected on other
// platforms or with the lbkeogh_pread build tag. On little-endian
// architectures mapped records are returned as zero-copy float64 views.
//
// DB manages the live set of segments named by a manifest file
// (MANIFEST.json, swapped atomically by temp-file + rename). Readers acquire
// an immutable Snapshot (reference counted, so compaction can never unmap a
// page under an in-flight query); Ingest appends a new segment and Compact
// merges consecutive runs of small segments — both publish a new snapshot
// with one atomic pointer swap and retire replaced segment files only once
// the last snapshot holding them is released.
package segment
