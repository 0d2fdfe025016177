package index

import (
	"slices"
	"sort"
	"sync"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// Index is an in-memory inverted q-gram index over documents. It is safe
// for concurrent use: lookups run in parallel, mutations are serialized.
//
// Internally every live document holds an ordinal; posting lists are
// ascending ordinal slices that only ever have new (larger) ordinals
// appended, so they stay sorted without re-sorting. Deletes and
// supersedes just kill the old ordinal — posting lists keep the stale
// entry and lookups filter it out — which makes mutation O(grams) and
// defers all garbage collection to the next snapshot rewrite.
type Index struct {
	q int

	mu   sync.RWMutex
	ord  map[string]uint32 // live doc ID -> ordinal
	ids  []string          // ordinal -> doc ID; "" marks a dead ordinal
	post map[string]*postings
	// npost is the total length of the lists in post, dead postings
	// included (Stats.Postings).
	npost int
	// always holds ordinals of overflow documents, which are candidates
	// for every query.
	always map[uint32]struct{}
	// short holds ordinals of non-overflow documents with a reading
	// shorter than q runes (Entry.Short), which are candidates for every
	// wildcard lookup.
	short map[uint32]struct{}
	// alphabet is every rune of every gram ever indexed, ascending and
	// grow-only: the values a wildcard position is probed with.
	alphabet []rune
	ascii    [2]uint64 // bitmap of the alphabet's runes below utf8.RuneSelf

	// accums recycles the ordinal-sized scratch of a lookup's Patterns and
	// Or nodes.
	accums sync.Pool
}

// New returns an empty index over q-rune grams. q < 1 selects
// DefaultGramSize.
func New(q int) *Index {
	if q < 1 {
		q = DefaultGramSize
	}
	return &Index{
		q:      q,
		ord:    make(map[string]uint32),
		post:   make(map[string]*postings),
		always: make(map[uint32]struct{}),
		short:  make(map[uint32]struct{}),
	}
}

// GramSize returns the q the index was built with. Plans must be extracted
// at the same gram size or lookups would be meaningless.
func (ix *Index) GramSize() int { return ix.q }

// Add indexes doc, superseding any previously indexed document with the
// same ID. The document is read synchronously and not retained.
func (ix *Index) Add(doc *staccato.Doc) {
	ix.Apply([]Entry{EntryFor(doc, ix.q)}, nil)
}

// Delete removes the document with the given ID; unknown IDs are a no-op.
func (ix *Index) Delete(id string) {
	ix.Apply(nil, []string{id})
}

// Apply atomically applies one commit's worth of mutations: deletions
// first, then additions in order, so an ID repeated within adds ends at
// its last entry. An ID must not appear in both adds and dels: the
// dels-then-adds order cannot represent an intra-commit interleaving
// (staccatodb's writes are puts only or one delete, never both).
func (ix *Index) Apply(adds []Entry, dels []string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, id := range dels {
		ix.kill(id)
	}
	for _, e := range adds {
		ix.kill(e.ID)
		o := uint32(len(ix.ids))
		ix.ids = append(ix.ids, e.ID)
		ix.ord[e.ID] = o
		if e.Overflow {
			ix.always[o] = struct{}{}
			continue
		}
		if e.Short {
			ix.short[o] = struct{}{}
		}
		for i, g := range e.Grams {
			p := ix.post[g]
			if p == nil {
				p = new(postings)
				ix.post[g] = p
				ix.learnRunes(g)
			}
			p.ords = append(p.ords, o)
			p.bnds = append(p.bnds, e.Bound(i))
		}
		ix.npost += len(e.Grams)
	}
}

// kill marks id's current ordinal dead. Callers hold ix.mu.
func (ix *Index) kill(id string) {
	if o, ok := ix.ord[id]; ok {
		delete(ix.ord, id)
		delete(ix.always, o)
		delete(ix.short, o)
		ix.ids[o] = ""
	}
}

// learnRunes adds a new gram's runes to the alphabet. Callers hold ix.mu.
func (ix *Index) learnRunes(g string) {
	for _, r := range g {
		// A bulk load meets every gram as a new one; the bitmap keeps its
		// ASCII runes, nearly all already known, off the search below.
		if r < utf8.RuneSelf && ix.ascii[r/64]&(1<<(r%64)) != 0 {
			continue
		}
		if at, known := slices.BinarySearch(ix.alphabet, r); !known {
			ix.alphabet = slices.Insert(ix.alphabet, at, r)
		}
		if r < utf8.RuneSelf {
			ix.ascii[r/64] |= 1 << (r % 64)
		}
	}
}

// postings is one gram's posting list: ascending document ordinals and,
// aligned with them, each document's probability upper bound for the
// gram (see Entry.Bounds). Apply appends to both slices together, so
// bnds[i] always belongs to ords[i].
type postings struct {
	ords []uint32
	bnds []float64
}

// intersect merges two ascending ordinal lists, keeping the min bound at
// each shared ordinal.
func intersect(a, b postings) postings {
	var out postings // fresh backing; a may be a shared posting list
	i, j := 0, 0
	for i < len(a.ords) && j < len(b.ords) {
		switch {
		case a.ords[i] < b.ords[j]:
			i++
		case a.ords[i] > b.ords[j]:
			j++
		default:
			out.ords = append(out.ords, a.ords[i])
			out.bnds = append(out.bnds, min(a.bnds[i], b.bnds[j]))
			i++
			j++
		}
	}
	return out
}

// Len returns the number of live indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.ord)
}

// Stats describes the index's current shape.
type Stats struct {
	// Docs is the number of live indexed documents.
	Docs int
	// Grams is the number of distinct grams with at least one posting
	// (dead postings included until the next snapshot rewrite).
	Grams int
	// Postings is the total posting-list length across all grams (dead
	// postings included until the next snapshot rewrite).
	Postings int
	// OverflowDocs counts live documents indexed as always-matching.
	OverflowDocs int
}

// Stats reports document, gram, and posting counts.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := Stats{Docs: len(ix.ord), Grams: len(ix.post), Postings: ix.npost}
	for o := range ix.always {
		if ix.ids[o] != "" {
			st.OverflowDocs++
		}
	}
	return st
}

// Entries snapshots the live documents as sorted Entries — the inverse of
// Apply, used to rewrite the on-disk log without the dead postings that
// accumulate between compactions.
func (ix *Index) Entries() []Entry {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	byID := make(map[string]*Entry, len(ix.ord))
	ids := make([]string, 0, len(ix.ord))
	for id, o := range ix.ord {
		e := &Entry{ID: id}
		_, e.Overflow = ix.always[o]
		_, e.Short = ix.short[o]
		byID[id] = e
		ids = append(ids, id)
	}
	// Walk the posting map in sorted gram order so each entry's gram
	// slice is assembled deterministically (map iteration order is
	// randomized; appending under it would shuffle Grams run to run).
	grams := make([]string, 0, len(ix.post))
	for g := range ix.post {
		grams = append(grams, g)
	}
	sort.Strings(grams)
	for _, g := range grams {
		p := ix.post[g]
		for k, o := range p.ords {
			id := ix.ids[o]
			if id == "" || ix.ord[id] != o {
				continue
			}
			e := byID[id]
			// The sorted-gram walk appends each entry's grams in sorted
			// order already; sorting afterwards would desync Bounds.
			e.Grams = append(e.Grams, g)
			e.Bounds = append(e.Bounds, p.bnds[k])
		}
	}
	sort.Strings(ids)
	out := make([]Entry, len(ids))
	for i, id := range ids {
		out[i] = *byID[id]
	}
	return out
}
