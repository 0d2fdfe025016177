//go:build unix

package framelog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// Lock takes an exclusive, non-blocking advisory flock on the lock file
// name, so two processes can never replay, truncate, append to, or
// compact the same files concurrently. The kernel releases the lock when
// the handle closes — including on process crash — so a stale lock can
// never wedge a store.
func (osFS) Lock(name string) (io.Closer, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s is already open in another process (flock: %w)", filepath.Dir(name), err)
	}
	return f, nil
}
