//go:build unix

package checker

import (
	"os"
	"syscall"
	"unsafe"
)

// mapFile memory-maps size bytes of f read-write and shared, so the
// tiered store's disk-tier table lives in the page cache instead of the
// Go heap. The returned unmap releases the mapping.
func mapFile(f *os.File, size int) ([]byte, func() error, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

// bytesToWords views an 8-byte-aligned mmap region as []uint64 (mmap
// returns page-aligned memory, so the alignment always holds).
func bytesToWords(b []byte) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}
