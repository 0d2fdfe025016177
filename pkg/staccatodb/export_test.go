package staccatodb

import (
	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// OpenFS opens a database whose store and index log live at the root of
// fsys: OpenMem over a file system the test holds.
func OpenFS(fsys framelog.FS, opts ...Option) (*DB, error) { return open(fsys, "", opts) }

// Store is the database's document store, for tests that read it
// directly.
func (db *DB) Store() *diskstore.Store { return db.disk }

// WithMaxSegmentBytes sets the store's segment roll size, on disk and in
// memory alike (see diskstore.Options.MaxSegmentBytes), so that a test's
// small corpus rolls segments.
func WithMaxSegmentBytes(n int64) Option {
	return func(c *config) { c.maxSegmentBytes = n }
}
