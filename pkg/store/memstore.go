package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// MemStore is an in-memory DocStore. Documents are held in their encoded
// binary form: Put/Get round-trip through the codec, which both exercises
// the serialization path that disk and SQL backends will share and gives
// the store value semantics — callers can never alias stored state.
type MemStore struct {
	mu   sync.RWMutex
	docs map[string][]byte
}

var _ DocStore = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{docs: make(map[string][]byte)}
}

// Put stores doc, replacing any existing document with the same ID.
func (m *MemStore) Put(ctx context.Context, doc *staccato.Doc) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if doc == nil || doc.ID == "" {
		return fmt.Errorf("store: Put: document must have a non-empty ID")
	}
	data, err := Encode(doc)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.docs[doc.ID] = data
	return nil
}

// Get returns the document with the given ID, or ErrNotFound.
func (m *MemStore) Get(ctx context.Context, id string) (*staccato.Doc, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	data, ok := m.docs[id]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return Decode(data)
}

// Delete removes the document with the given ID; deleting a missing ID
// is a no-op.
func (m *MemStore) Delete(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.docs, id)
	return nil
}

// GetBatch returns the documents for ids, aligned with the input (nil
// for missing IDs). The lock is taken once for the whole batch; decoding
// happens outside it.
func (m *MemStore) GetBatch(ctx context.Context, ids []string) ([]*staccato.Doc, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	encoded := make([][]byte, len(ids))
	m.mu.RLock()
	for i, id := range ids {
		encoded[i] = m.docs[id]
	}
	m.mu.RUnlock()
	out := make([]*staccato.Doc, len(ids))
	for i, data := range encoded {
		if data == nil {
			continue
		}
		doc, err := Decode(data)
		if err != nil {
			return nil, err
		}
		out[i] = doc
	}
	return out, nil
}

// ListDocIDs returns every stored document ID in ascending order without
// decoding documents.
func (m *MemStore) ListDocIDs(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	ids := make([]string, 0, len(m.docs))
	for id := range m.docs {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sort.Strings(ids)
	return ids, nil
}

// Len returns the number of stored documents.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.docs)
}

// Scan visits all documents in ascending ID order. The snapshot of IDs is
// taken up front, so fn may call back into the store without deadlocking.
func (m *MemStore) Scan(ctx context.Context, fn func(doc *staccato.Doc) error) error {
	m.mu.RLock()
	ids := make([]string, 0, len(m.docs))
	for id := range m.docs {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sort.Strings(ids)

	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		doc, err := m.Get(ctx, id)
		if errors.Is(err, ErrNotFound) {
			// Deleted between snapshot and visit: skip.
			continue
		}
		if err != nil {
			return err
		}
		if err := fn(doc); err != nil {
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
	}
	return nil
}
