package staccatodb

import "github.com/paper-repo/staccato-go/internal/framelog"

// OpenFS opens a database whose store and index log live at the root of
// fsys: OpenMem over a file system the test holds.
func OpenFS(fsys framelog.FS, opts ...Option) (*DB, error) { return open(fsys, "", opts) }
