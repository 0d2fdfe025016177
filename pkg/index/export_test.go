package index

import (
	"slices"
	"strings"
)

// Entries un-inverts b: its documents in add order, each with its sorted
// grams and their bounds. Test-only; production code never needs the
// doc-major view back.
func (b *Batch) Entries() []Entry {
	out := make([]Entry, len(b.ids))
	for i, id := range b.ids {
		out[i] = Entry{ID: id, Overflow: b.flags[i]&flagOverflow != 0, Short: b.flags[i]&flagShort != 0}
	}
	for k, g := range b.grams {
		for j, o := range b.lists[k].ords {
			out[o].Grams = append(out[o].Grams, g)
			out[o].Bounds = append(out[o].Bounds, b.lists[k].bnds[j])
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
