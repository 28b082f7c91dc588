package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	magic   = "LBKSEG01"
	version = 1

	headerSize = 64
	entrySize  = 32

	// align is the section alignment: one cache line, which also keeps every
	// float64 record 8-byte aligned inside the mapping (the zero-copy view
	// requirement).
	align = 64
)

// Section kinds, in file order.
const (
	kindRaw  = 1 // count × n float64 full-resolution series
	kindFFT  = 2 // count × d float64 rotation-invariant Fourier magnitudes
	kindPAA  = 3 // count × d float64 PAA means
	kindMeta = 4 // count × int64 per-record metadata (label)
)

// sectionKinds lists every section a version-1 segment carries, in the order
// they are written.
var sectionKinds = [...]uint32{kindRaw, kindFFT, kindPAA, kindMeta}

// numSections is the fixed section count of a version-1 segment.
const numSections = len(sectionKinds)

// section locates one column inside an open segment.
type section struct {
	kind   uint32
	off    int64
	length int64
	crc    uint32
}

// header is the decoded 64-byte segment header.
type header struct {
	n, d     int
	count    int64
	sections int
	tableOff int64
}

// alignUp rounds off up to the next multiple of align.
func alignUp(off int64) int64 {
	return (off + align - 1) &^ (align - 1)
}

// encodeHeader serializes h into a fresh 64-byte header, CRC included.
func encodeHeader(h header) []byte {
	buf := make([]byte, headerSize)
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[8:], version)
	binary.LittleEndian.PutUint32(buf[12:], uint32(h.sections))
	binary.LittleEndian.PutUint32(buf[16:], uint32(h.n))
	binary.LittleEndian.PutUint32(buf[20:], uint32(h.d))
	binary.LittleEndian.PutUint64(buf[24:], uint64(h.count))
	binary.LittleEndian.PutUint64(buf[32:], uint64(h.tableOff))
	binary.LittleEndian.PutUint32(buf[40:], crc32.ChecksumIEEE(buf[:40]))
	return buf
}

// decodeHeader validates magic, version, and the header CRC, returning the
// decoded fields.
func decodeHeader(buf []byte) (header, error) {
	var h header
	if len(buf) < headerSize {
		return h, fmt.Errorf("segment: short header (%d bytes)", len(buf))
	}
	if string(buf[:8]) != magic {
		return h, fmt.Errorf("segment: bad magic (not a segment file)")
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != version {
		return h, fmt.Errorf("segment: unsupported version %d", v)
	}
	if got, want := crc32.ChecksumIEEE(buf[:40]), binary.LittleEndian.Uint32(buf[40:]); got != want {
		return h, fmt.Errorf("segment: header CRC mismatch (file %#x, computed %#x)", want, got)
	}
	h.sections = int(binary.LittleEndian.Uint32(buf[12:]))
	h.n = int(binary.LittleEndian.Uint32(buf[16:]))
	h.d = int(binary.LittleEndian.Uint32(buf[20:]))
	h.count = int64(binary.LittleEndian.Uint64(buf[24:]))
	h.tableOff = int64(binary.LittleEndian.Uint64(buf[32:]))
	// The writer never produces n < 2 or d outside [1, n/2] (NewWriter).
	if h.n < 2 || h.d < 1 || h.d > h.n/2 || h.count < 0 || h.sections != numSections || h.tableOff != headerSize {
		return h, fmt.Errorf("segment: corrupt header (n=%d d=%d count=%d sections=%d table=%d)",
			h.n, h.d, h.count, h.sections, h.tableOff)
	}
	return h, nil
}

// encodeTable serializes the section table plus its trailing CRC32.
func encodeTable(secs []section) []byte {
	buf := make([]byte, len(secs)*entrySize+4)
	for i, s := range secs {
		e := buf[i*entrySize:]
		binary.LittleEndian.PutUint32(e[0:], s.kind)
		binary.LittleEndian.PutUint64(e[8:], uint64(s.off))
		binary.LittleEndian.PutUint64(e[16:], uint64(s.length))
		binary.LittleEndian.PutUint32(e[24:], s.crc)
	}
	binary.LittleEndian.PutUint32(buf[len(secs)*entrySize:], crc32.ChecksumIEEE(buf[:len(secs)*entrySize]))
	return buf
}

// decodeTable validates the table CRC and decodes the entries.
func decodeTable(buf []byte, sections int) ([]section, error) {
	want := sections*entrySize + 4
	if len(buf) < want {
		return nil, fmt.Errorf("segment: short section table (%d bytes, want %d)", len(buf), want)
	}
	body := buf[:sections*entrySize]
	if got, stored := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(buf[sections*entrySize:]); got != stored {
		return nil, fmt.Errorf("segment: section-table CRC mismatch (file %#x, computed %#x)", stored, got)
	}
	out := make([]section, sections)
	for i := range out {
		e := body[i*entrySize:]
		out[i] = section{
			kind:   binary.LittleEndian.Uint32(e[0:]),
			off:    int64(binary.LittleEndian.Uint64(e[8:])),
			length: int64(binary.LittleEndian.Uint64(e[16:])),
			crc:    binary.LittleEndian.Uint32(e[24:]),
		}
		if out[i].off%align != 0 || out[i].off < 0 || out[i].length < 0 {
			return nil, fmt.Errorf("segment: section %d misaligned (offset %d)", i, out[i].off)
		}
	}
	return out, nil
}
