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
)

// ErrNotFound is returned by a store's Get when no document has the
// requested ID.
var ErrNotFound = errors.New("store: document not found")

// ErrInvalidDoc is returned, wrapped with what is wrong, by a write of a
// nil document, of one whose ID is empty or too long, or of one whose
// chunks are not probability distributions.
var ErrInvalidDoc = errors.New("store: invalid document")

// ErrStopScan can be returned by a store's Scan callback to end the scan
// early without Scan reporting an error.
var ErrStopScan = errors.New("store: stop scan")

// DocStore is what the query engine reads documents through: the live
// IDs, their records read in place, and their count. Writes, whole-document
// reads and scans are methods of the store itself (diskstore.Store).
//
// Implementations must be safe for concurrent use.
type DocStore interface {
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
