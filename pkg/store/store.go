// Package store persists Staccato documents. The DocStore interface is
// the contract the query layer reads through, and pkg/store/diskstore is
// its one implementation — append-only segments on disk, or the same
// segments over an in-memory file system. Documents cross the interface
// through a versioned binary codec — decoded whole, or read in place as a
// View — so every store (and any wire protocol) shares one serialized
// form.
package store

import (
	"context"
	"errors"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// ErrNotFound is returned by Get when no document has the requested ID.
var ErrNotFound = errors.New("store: document not found")

// ErrInvalidDoc is returned, wrapped with the offending chunk, by a write
// of a document whose chunks are not probability distributions.
var ErrInvalidDoc = errors.New("store: invalid document")

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
	// snapshot: concurrent writes may or may not be reflected. The caller
	// owns the returned slice.
	ListDocIDs(ctx context.Context) ([]string, error)
	// ViewBatch calls fn once for every ID of ids that names a stored
	// document, with i its position in ids and v the document's record
	// parsed in place, in whatever order the store reads them. An ID with
	// no document is skipped, not an error: ID lists are snapshots, and a
	// concurrent delete must not fail the whole batch. v and the bytes it
	// spans belong to the store and are valid only until fn returns, so fn
	// must copy whatever it keeps. An error from fn ends the batch and is
	// returned; any other error means the batch as a whole failed. A batch
	// lets the backend amortize its locking and, for disk-backed stores,
	// sort the records by physical offset and make one read per run of
	// adjacent records, so IDs clustered in one segment cost one read and
	// no document is ever decoded.
	ViewBatch(ctx context.Context, ids []string, fn func(i int, v *View) error) error
	// Len returns the number of stored documents without a scan.
	Len() int
}
