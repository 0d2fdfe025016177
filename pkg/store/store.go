// Package store persists Staccato documents. The DocStore interface is
// the contract the query layer reads through, and pkg/store/diskstore is
// its one implementation — append-only segments on disk, or the same
// segments over an in-memory file system. Documents cross the interface
// through a versioned binary codec, so every store (and any wire
// protocol) shares one serialized form.
package store

import (
	"context"
	"errors"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// ErrNotFound is returned by Get when no document has the requested ID.
var ErrNotFound = errors.New("store: document not found")

// ErrStopScan can be returned by a Scan callback to end the scan early
// without Scan reporting an error.
var ErrStopScan = errors.New("store: stop scan")

// DocStore stores Staccato documents keyed by their ID.
//
// Implementations must be safe for concurrent use, must not retain or
// alias documents passed to Put (callers may mutate them afterwards), and
// Scan must visit documents in ascending ID order so results are
// deterministic and pagination can be layered on top later.
type DocStore interface {
	// Put stores doc, replacing any existing document with the same ID.
	Put(ctx context.Context, doc *staccato.Doc) error
	// Get returns the document with the given ID, or ErrNotFound.
	Get(ctx context.Context, id string) (*staccato.Doc, error)
	// Delete removes the document with the given ID. Deleting an ID that
	// is not present is a no-op, not an error, so Delete is idempotent.
	Delete(ctx context.Context, id string) error
	// Scan calls fn for each stored document in ascending ID order. If fn
	// returns ErrStopScan the scan ends and Scan returns nil; any other
	// error ends the scan and is returned.
	Scan(ctx context.Context, fn func(doc *staccato.Doc) error) error
	// ListDocIDs returns the IDs of all stored documents in ascending
	// order without reading or decoding document bodies. The listing is a
	// snapshot: concurrent writes may or may not be reflected.
	ListDocIDs(ctx context.Context) ([]string, error)
	// GetBatch returns the documents for ids, aligned with the input:
	// out[i] is the document for ids[i], or nil when no document has
	// that ID (a missing ID is not an error — ID lists are snapshots, and
	// a concurrent delete must not fail the whole batch). A non-nil error
	// means the batch as a whole failed and out is meaningless. A batch
	// lets the backend amortize its locking and, for disk-backed stores,
	// reorder the reads by physical offset so IDs clustered in one
	// segment become a near-sequential read.
	GetBatch(ctx context.Context, ids []string) ([]*staccato.Doc, error)
	// Len returns the number of stored documents without a scan.
	Len() int
}
