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
	ix.ApplyBatch(BatchOf([]*staccato.Doc{doc}, ix.q, 1), nil)
}

// Delete removes the document with the given ID; unknown IDs are a no-op.
func (ix *Index) Delete(id string) {
	ix.ApplyBatch(&Batch{}, []string{id})
}

// Apply is ApplyBatch over Invert(adds), for callers that have not
// inverted their entries already.
func (ix *Index) Apply(adds []Entry, dels []string) {
	ix.ApplyBatch(Invert(adds), dels)
}

// ApplyBatch atomically applies one commit's worth of mutations: deletions
// first, then b's additions in order, so an ID repeated within b ends at
// its last entry. An ID must not appear in both b and dels: the
// dels-then-adds order cannot represent an intra-commit interleaving
// (staccatodb's writes are puts only or one delete, never both). It costs
// one dictionary lookup per distinct gram of b and one append per run.
func (ix *Index) ApplyBatch(b *Batch, dels []string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, id := range dels {
		ix.kill(id)
	}
	base := uint32(len(ix.ids))
	for i, id := range b.ids {
		ix.kill(id)
		o := base + uint32(i)
		ix.ids = append(ix.ids, id)
		ix.ord[id] = o
		switch {
		case b.flags[i]&flagOverflow != 0:
			ix.always[o] = struct{}{}
		case b.flags[i]&flagShort != 0:
			ix.short[o] = struct{}{}
		}
	}
	for k, g := range b.grams {
		p := ix.post[g]
		if p == nil {
			p = new(postings)
			ix.post[g] = p
			ix.learnRunes(g)
		}
		run := b.run(k)
		p.ords = slices.Grow(p.ords, len(run.ords))
		for _, local := range run.ords {
			p.ords = append(p.ords, base+local)
		}
		p.bnds = append(p.bnds, run.bnds...)
		ix.npost += len(run.ords)
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
// gram, quantized (see Entry.Bounds). ApplyBatch appends to both slices
// together, so bnds[i] always belongs to ords[i]. A lookup's intermediate
// results have the same shape.
type postings struct {
	ords []uint32
	bnds []uint16
}

// intersect returns the ordinals two ascending lists share, each at the
// min of its two bounds. It walks the shorter list and finds each of its
// ordinals in the longer one: by a linear merge when the lengths are
// comparable, and by galloping when the longer list is at least
// gallopRatio times as long, so a small running set costs a few probes
// per member instead of a pass over a long posting list. Either way the
// result is the same set at the same bounds, in a fresh backing sized to
// the shorter list (a may be a shared posting list).
func intersect(a, b postings) postings {
	if len(a.ords) > len(b.ords) {
		a, b = b, a
	}
	if len(b.ords) >= gallopRatio*len(a.ords) {
		return intersectGallop(a, b)
	}
	return intersectMerge(a, b)
}

// intersectMerge is intersect by one linear pass over both lists; a is
// the shorter.
func intersectMerge(a, b postings) postings {
	out := postings{ords: make([]uint32, 0, len(a.ords)), bnds: make([]uint16, 0, len(a.ords))}
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

// intersectGallop is intersect by galloping through b for each ordinal
// of a, the shorter, from where the previous search stopped.
func intersectGallop(a, b postings) postings {
	out := postings{ords: make([]uint32, 0, len(a.ords)), bnds: make([]uint16, 0, len(a.ords))}
	j := 0
	for i, o := range a.ords {
		if j += gallop(b.ords[j:], o); j == len(b.ords) {
			break
		}
		if b.ords[j] == o {
			out.ords = append(out.ords, o)
			out.bnds = append(out.bnds, min(a.bnds[i], b.bnds[j]))
			j++
		}
	}
	return out
}

// gallopRatio is how many times longer than the other list a list must be
// for intersect to gallop through it. BenchmarkIntersect sets it: the
// merge is well ahead at 1:4 and as fast or faster at 1:8, and galloping
// is about twice as fast at 1:16 and pulls away after.
const gallopRatio = 16

// gallop returns the index of the first element of the ascending s that
// is not below x, len(s) if none is. It probes s[0], s[1], s[3], s[7], …
// until one is not below x, then binary-searches from just past the last
// probe below x up to and including that one, which may itself be the
// answer.
func gallop(s []uint32, x uint32) int {
	hi := 1
	for hi <= len(s) && s[hi-1] < x {
		hi *= 2
	}
	lo := hi / 2 // s[:lo] is below x
	at, _ := slices.BinarySearch(s[lo:min(hi, len(s))], x)
	return lo + at
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

// Snapshot returns the live documents as one Batch — the inverse of
// ApplyBatch, without the dead ordinals and stale postings that write churn
// accumulates. Live ordinals are renumbered densely in ordinal order, so
// the posting runs stay ascending as they are copied and a snapshot of an
// index without dead ordinals reproduces its layout exactly.
func (ix *Index) Snapshot() *Batch {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	const dead = ^uint32(0)
	b := &Batch{ids: make([]string, 0, len(ix.ord)), flags: make([]byte, 0, len(ix.ord))}
	renumber := make([]uint32, len(ix.ids))
	for o, id := range ix.ids {
		if id == "" {
			renumber[o] = dead
			continue
		}
		renumber[o] = uint32(len(b.ids))
		var flags byte
		if _, overflow := ix.always[uint32(o)]; overflow {
			flags |= flagOverflow
		}
		if _, short := ix.short[uint32(o)]; short {
			flags |= flagShort
		}
		b.ids, b.flags = append(b.ids, id), append(b.flags, flags)
	}
	grams := make([]string, 0, len(ix.post))
	for g := range ix.post {
		grams = append(grams, g)
	}
	sort.Strings(grams)
	b.ords, b.bnds = make([]uint32, 0, ix.npost), make([]uint16, 0, ix.npost)
	for _, g := range grams {
		p, from := ix.post[g], len(b.ords)
		for k, o := range p.ords {
			if n := renumber[o]; n != dead {
				b.ords, b.bnds = append(b.ords, n), append(b.bnds, p.bnds[k])
			}
		}
		if len(b.ords) > from {
			b.grams, b.ends = append(b.grams, g), append(b.ends, uint32(len(b.ords)))
		}
	}
	return b
}
