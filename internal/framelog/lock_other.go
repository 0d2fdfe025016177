//go:build !unix

package framelog

import (
	"io"
	"os"
)

// Lock on platforms without flock creates the lock file but provides no
// cross-process exclusion; single-process use (the tested configuration)
// is unaffected.
func (osFS) Lock(name string) (io.Closer, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
}
