//go:build !linux || appengine

package semiext

import (
	"errors"
	"os"
)

// mmapFile always fails here: on platforms without the Linux mmap path the
// View serves the same API through positioned ReaderAt reads.
func mmapFile(*os.File, int64) ([]byte, error) {
	return nil, errors.New("semiext: mmap not available on this platform")
}

func munmapFile([]byte) error { return nil }
