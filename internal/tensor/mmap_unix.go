//go:build unix

package tensor

import (
	"os"
	"syscall"
)

// mapFile maps f read-only when it is a non-empty regular file and
// returns the mapping and the call that unmaps it, or nil when f is
// anything else or does not map. No slice of the mapping may outlive
// the unmap.
func mapFile(f *os.File) ([]byte, func()) {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() || fi.Size() <= 0 || int64(int(fi.Size())) != fi.Size() {
		return nil, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil
	}
	return data, func() { syscall.Munmap(data) }
}
