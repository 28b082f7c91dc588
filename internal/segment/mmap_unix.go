//go:build unix && !lbkeogh_pread

package segment

import (
	"fmt"
	"os"
	"syscall"
)

// mmapBackend maps the whole segment file read-only. Records are subslices
// of the mapping: no copies, no heap growth with database size — the kernel
// pages data in on demand and evicts under pressure.
type mmapBackend struct {
	data []byte
}

// openBackend maps f whole. Mapping failures (e.g. exotic filesystems) fall
// back to positioned reads rather than failing the open.
func openBackend(f *os.File, size int64) (backend, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return newPreadBackend(f, size), nil
	}
	// The mapping survives the descriptor; close it so open segments don't
	// hold fds against the process limit.
	f.Close()
	return &mmapBackend{data: data}, nil
}

func (b *mmapBackend) record(off int64, size int, _ []byte) ([]byte, error) {
	if off < 0 || off+int64(size) > int64(len(b.data)) {
		return nil, fmt.Errorf("record at %d+%d outside mapping of %d bytes", off, size, len(b.data))
	}
	return b.data[off : off+int64(size) : off+int64(size)], nil
}

func (b *mmapBackend) zeroCopy() bool { return true }

func (b *mmapBackend) mappedBytes() int64 { return int64(len(b.data)) }

func (b *mmapBackend) close() error {
	if b.data == nil {
		return nil
	}
	err := syscall.Munmap(b.data)
	b.data = nil
	return err
}
