package index

import (
	"slices"
	"strings"

	"github.com/paper-repo/staccato-go/pkg/staccato"
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

// Entries is the live documents' entries, sorted by ID.
func (ix *Index) Entries() []Entry {
	out := ix.Snapshot().Entries()
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.ID, b.ID) })
	return out
}
