package index

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// DocGrams returns the sorted set of q-grams (in runes) that occur in any
// retained reading of doc, including grams spanning chunk boundaries — the
// Grams of EntryFor. The second result is false when the boundary DP
// exceeded its frontier budget; the grams are then incomplete and the
// document must be treated as matching everything.
func DocGrams(doc *staccato.Doc, q int) ([]string, bool) {
	e := EntryFor(doc, q)
	return e.Grams, !e.Overflow
}

// DocGramBounds is DocGrams plus, per gram, its quantized admissible
// upper bound (see extractor.extract), and whether doc has a reading
// shorter than q runes.
func DocGramBounds(doc *staccato.Doc, q int) (grams []string, bounds []uint16, short, ok bool) {
	e := EntryFor(doc, q)
	return e.Grams, e.Bounds, e.Short, !e.Overflow
}

// Add indexes doc as a commit of its own, superseding any indexed
// document with the same ID.
func (ix *Index) Add(doc *staccato.Doc) { ix.Apply([]Entry{EntryFor(doc, ix.q)}, nil) }

// Delete removes the document with the given ID as a commit of its own;
// unknown IDs are a no-op.
func (ix *Index) Delete(id string) { ix.Apply(nil, []string{id}) }

// encodeCommit returns the payload of one commit record, and holds
// commitSize to its length: every test that encodes a commit checks it.
func encodeCommit(adds *Batch, dels []string, st diskstore.CommitState) []byte {
	n := commitSize(adds, dels, st)
	payload := appendPayload(make([]byte, 0, n), adds, dels, st)
	if len(payload) != n {
		panic(fmt.Sprintf("commitSize is %d for a %d-byte payload", n, len(payload)))
	}
	return payload
}

// Entries un-inverts b: its documents in add order, each with its sorted
// grams and their bounds. Test-only; production code never needs the
// doc-major view back.
func (b *Batch) Entries() []Entry {
	out := make([]Entry, len(b.ids))
	for i, id := range b.ids {
		out[i] = Entry{ID: id, Overflow: b.flags[i]&flagOverflow != 0, Short: b.flags[i]&flagShort != 0}
	}
	for k, g := range b.grams {
		run := b.run(k)
		for j, o := range run.ords {
			out[o].Grams = append(out[o].Grams, g)
			out[o].Bounds = append(out[o].Bounds, run.bnds[j])
		}
	}
	return out
}

// Snapshot is the live documents as one Batch: the base a rewrite would
// build now.
func (ix *Index) Snapshot() *Batch { return ix.cur.Load().merged() }

// Entries is the live documents' entries, sorted by ID.
func (ix *Index) Entries() []Entry {
	out := ix.Snapshot().Entries()
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// ByID returns a lookup's answer — (ID, bound) pairs in no particular
// order — sorted by ID, bounds kept aligned, for a test to compare with a
// list; nil bounds stay nil.
func ByID(ids []string, bounds []float64) ([]string, []float64) {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(ids[a], ids[b]) })
	sorted := make([]string, len(ids))
	var sortedBounds []float64
	if bounds != nil {
		sortedBounds = make([]float64, len(ids))
	}
	for i, o := range order {
		sorted[i] = ids[o]
		if bounds != nil {
			sortedBounds[i] = bounds[o]
		}
	}
	return sorted, sortedBounds
}

// SetRewriteFloor lowers the length below which Commit never rewrites a
// log to n until the test ends, so that a small corpus
// rewrites its log many times.
func SetRewriteFloor(t testing.TB, n int64) {
	saved := rewriteFloor
	rewriteFloor = n
	t.Cleanup(func() { rewriteFloor = saved })
}
