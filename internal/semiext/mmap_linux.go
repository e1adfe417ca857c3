//go:build linux && !appengine

package semiext

import (
	"fmt"
	"os"
	"syscall"
)

// mmapFile maps the whole file read-only. The returned slice stays valid
// after f is closed (the mapping pins the inode) and must be released with
// munmapFile.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 || size != int64(int(size)) {
		return nil, fmt.Errorf("semiext: cannot map %d-byte file", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("semiext: mmap: %w", err)
	}
	return data, nil
}

func munmapFile(data []byte) error {
	return syscall.Munmap(data)
}
