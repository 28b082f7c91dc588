package segment

import (
	"fmt"
	"os"
	"sync"
)

// preadBackend serves records with positioned reads — the portability
// fallback (non-Unix platforms, the lbkeogh_pread build tag, or a failed
// mmap). Safe for concurrent use: ReadAt carries its own offset.
type preadBackend struct {
	f    *os.File
	size int64

	mu     sync.Mutex
	closed bool
}

func newPreadBackend(f *os.File, size int64) *preadBackend {
	return &preadBackend{f: f, size: size}
}

func (b *preadBackend) record(off int64, size int, scratch []byte) ([]byte, error) {
	if off < 0 || off+int64(size) > b.size {
		return nil, fmt.Errorf("record at %d+%d outside file of %d bytes", off, size, b.size)
	}
	if cap(scratch) < size {
		scratch = make([]byte, size)
	}
	scratch = scratch[:size]
	if _, err := b.f.ReadAt(scratch, off); err != nil {
		return nil, err
	}
	return scratch, nil
}

func (b *preadBackend) zeroCopy() bool { return false }

func (b *preadBackend) mappedBytes() int64 { return 0 }

func (b *preadBackend) close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	return b.f.Close()
}
