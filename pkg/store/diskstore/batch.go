package diskstore

import (
	"context"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// Batch accumulates Puts and Deletes in memory and commits them in one
// append and one fsync per touched segment — the batched ingest path.
// A Batch is not safe for concurrent use; build it on one goroutine and
// Commit. The store itself stays safe for concurrent use throughout.
type Batch struct {
	s   *Store
	ops []op
	err error
}

// Batch returns an empty write batch against s.
func (s *Store) Batch() *Batch {
	return &Batch{s: s}
}

// Put adds doc to the batch, replacing any same-ID document when the
// batch commits. The document is encoded immediately, so the caller may
// mutate it after Put returns. An encoding error is latched and returned
// by this Put and by Commit.
func (b *Batch) Put(doc *staccato.Doc) error {
	o, err := putOp(doc)
	if err != nil {
		b.err = err
		return err
	}
	b.ops = append(b.ops, o)
	return nil
}

// Delete adds a tombstone for id to the batch.
func (b *Batch) Delete(id string) {
	b.ops = append(b.ops, op{kind: recDelete, id: id})
}

// Len returns the number of pending operations.
func (b *Batch) Len() int { return len(b.ops) }

// Commit durably applies the batch in order — later operations on the
// same ID supersede earlier ones — with a single fsync per touched
// segment file, then resets the batch for reuse. Commit is all or none:
// on error no operation is visible, and the records it had written are
// truncated away so none replays on the next Open (best effort; see
// writeOps). Retrying the whole batch is safe because every operation is
// an idempotent overwrite or tombstone.
func (b *Batch) Commit(ctx context.Context) error {
	if b.err != nil {
		return b.err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	//lint:allow lockio the write path is serialized by design: the batch's append+fsync must be atomic with the index update
	if err := b.s.writeOps(b.ops); err != nil {
		return err
	}
	b.ops = b.ops[:0]
	return nil
}
