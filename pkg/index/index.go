package index

import (
	"slices"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// Index is an in-memory inverted q-gram index over documents. It is safe
// for concurrent use: lookups run in parallel, mutations are serialized.
//
// Internally every live document holds an ordinal, and the posting lists
// come in two parts, the pattern of LSM trees (O'Neil et al., 1996) and of
// Lucene's immutable segments. The base is one immutable Batch — sorted
// grams and their runs back to back in flat arrays — as a snapshot left
// it: loading adopts the log's first commit as it stands. The delta holds,
// per gram, the postings of every commit since, as ascending ordinal
// slices that only ever have new (larger) ordinals appended. Every delta
// ordinal is above every base ordinal, so a gram's list is its base run
// followed by its delta run, and a lookup answers each part on its own.
// Deletes and supersedes just kill the old ordinal — posting lists keep
// the stale entry and lookups filter it out — which makes mutation
// O(grams). A rewrite (Commit past its trigger, Persist) merges both
// parts into a new base without the dead ordinals.
type Index struct {
	q int

	// wmu serializes mutations and the log: ApplyBatch, Commit from the
	// apply through the record's append, and a rewrite from the merge that
	// reads the index to the swap that replaces it. Lock order: wmu, then
	// mu; lookups take only mu, which no file I/O holds.
	wmu sync.Mutex
	mu  sync.RWMutex
	tables

	// accums recycles the ordinal-sized scratch of a lookup's Patterns and
	// Or nodes.
	accums sync.Pool

	// log is the index's log, under wmu (see Open); logEnd is its length,
	// where the next record goes, and 0 while the index is unpersisted.
	log    logFile
	logEnd atomic.Int64
}

// tables is everything a rewrite replaces at once.
type tables struct {
	ord map[string]uint32 // live doc ID -> ordinal
	ids []string          // ordinal -> doc ID; "" marks a dead ordinal
	// base is the immutable part; its documents hold ordinals [0, nbase)
	// and its runs name them directly. Only its grams and runs are read.
	base  *Batch
	nbase uint32
	// dict maps each gram to its slot. Slot k below len(base.grams) is
	// base gram k; the slots after it are grams no base run holds, named
	// in order by extra. delta is each slot's delta run, possibly empty.
	dict  map[string]uint32
	extra []string
	delta []postings
	// npost is the total length of the base runs and delta runs, dead
	// postings included (Stats.Postings).
	npost int
	// always holds ordinals of overflow documents, which are candidates
	// for every query.
	always map[uint32]struct{}
	// short holds ordinals of non-overflow documents with a reading
	// shorter than q runes (Entry.Short), which are candidates for every
	// wildcard lookup.
	short map[uint32]struct{}
	// alphabet is every rune of every gram in the dictionary, ascending and
	// grow-only until the next rewrite: the values a wildcard position is
	// probed with.
	alphabet []rune
	ascii    [2]uint64 // bitmap of the alphabet's runes below utf8.RuneSelf
	// logBase is the length of an index log holding just the base, which
	// sets when a log built on it is rewritten (Commit).
	logBase int64
}

// New returns an empty index over q-rune grams. q < 1 selects
// DefaultGramSize.
func New(q int) *Index {
	if q < 1 {
		q = DefaultGramSize
	}
	return &Index{q: q, tables: adopt(&Batch{}, 0)}
}

// adopt returns the tables of an index whose base is b, as it stands, and
// whose log holding just b is logBase bytes long: one dictionary entry per
// gram of b and no posting copied. The index takes b's ID list as its
// own, marking dead ordinals in it. An ID that b repeats ends at its last
// document, as in ApplyBatch.
func adopt(b *Batch, logBase int64) tables {
	t := tables{
		ord:     make(map[string]uint32, len(b.ids)),
		ids:     b.ids,
		base:    b,
		nbase:   uint32(len(b.ids)),
		dict:    make(map[string]uint32, len(b.grams)),
		delta:   make([]postings, len(b.grams)),
		npost:   len(b.ords),
		always:  make(map[uint32]struct{}),
		short:   make(map[uint32]struct{}),
		logBase: logBase,
	}
	for i, id := range b.ids {
		t.kill(id)
		t.add(id, uint32(i), b.flags[i])
	}
	for k, g := range b.grams {
		t.dict[g] = uint32(k)
		t.learnRunes(g)
	}
	return t
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

// ApplyBatch atomically applies one commit's worth of mutations to the
// delta: deletions first, then b's additions in order, so an ID repeated
// within b ends at its last entry. An ID must not appear in both b and
// dels: the dels-then-adds order cannot represent an intra-commit
// interleaving (staccatodb's writes are puts only or one delete, never
// both). It costs one dictionary lookup per distinct gram of b and one
// append per run.
func (ix *Index) ApplyBatch(b *Batch, dels []string) {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.apply(b, dels)
}

// apply is ApplyBatch. Callers hold wmu.
func (ix *Index) apply(b *Batch, dels []string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, id := range dels {
		ix.kill(id)
	}
	first := uint32(len(ix.ids))
	for i, id := range b.ids {
		ix.kill(id)
		ix.ids = append(ix.ids, id)
		ix.add(id, first+uint32(i), b.flags[i])
	}
	for k, g := range b.grams {
		s, known := ix.dict[g]
		if !known {
			s = uint32(len(ix.delta))
			ix.dict[g] = s
			ix.extra, ix.delta = append(ix.extra, g), append(ix.delta, postings{})
			ix.learnRunes(g)
		}
		p, run := &ix.delta[s], b.run(k)
		p.ords = slices.Grow(p.ords, len(run.ords))
		for _, local := range run.ords {
			p.ords = append(p.ords, first+local)
		}
		p.bnds = append(p.bnds, run.bnds...)
		ix.npost += len(run.ords)
	}
}

// add makes o, which ids already names, id's live ordinal.
func (t *tables) add(id string, o uint32, flags byte) {
	t.ord[id] = o
	switch {
	case flags&flagOverflow != 0:
		t.always[o] = struct{}{}
	case flags&flagShort != 0:
		t.short[o] = struct{}{}
	}
}

// kill marks id's current ordinal dead.
func (t *tables) kill(id string) {
	if o, ok := t.ord[id]; ok {
		delete(t.ord, id)
		delete(t.always, o)
		delete(t.short, o)
		t.ids[o] = ""
	}
}

// learnRunes adds a new gram's runes to the alphabet.
func (t *tables) learnRunes(g string) {
	for _, r := range g {
		// A load meets every gram as a new one; the bitmap keeps its ASCII
		// runes, nearly all already known, off the search below.
		if r < utf8.RuneSelf && t.ascii[r/64]&(1<<(r%64)) != 0 {
			continue
		}
		if at, known := slices.BinarySearch(t.alphabet, r); !known {
			t.alphabet = slices.Insert(t.alphabet, at, r)
		}
		if r < utf8.RuneSelf {
			t.ascii[r/64] |= 1 << (r % 64)
		}
	}
}

// runs returns slot s's base run and delta run.
func (t *tables) runs(s uint32) parts {
	var p parts
	if int(s) < len(t.base.grams) {
		p[0] = t.base.run(int(s))
	}
	p[1] = t.delta[s]
	return p
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

// parts is a gram's list, or a lookup node's result, split where the base
// ends: [0] holds base ordinals and [1] the ordinals added since, each
// ascending, so the two end to end are the whole list. A node is answered
// part by part — an intersection of lists is the intersection of their
// base parts followed by that of their delta parts — and no part is ever
// copied just to join it to the other.
type parts [2]postings

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
	// (dead postings included until the next rewrite).
	Grams int
	// Postings is the total posting-list length across all grams (dead
	// postings included until the next rewrite).
	Postings int
	// OverflowDocs counts live documents indexed as always-matching.
	OverflowDocs int
	// LogBytes is the length of the index's log; 0 while the index is
	// unpersisted.
	LogBytes int64
}

// Stats reports document, gram, and posting counts.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Stats{Docs: len(ix.ord), Grams: len(ix.dict), Postings: ix.npost, OverflowDocs: len(ix.always), LogBytes: ix.logEnd.Load()}
}

// merged returns the live documents as one Batch, without the dead
// ordinals and stale postings that write churn accumulates: the new base
// of a rewrite. Live ordinals are renumbered densely in ordinal order, so
// each gram's base run followed by its delta run stays ascending as it is
// copied, and runs are copied as they stand while no ordinal is dead.
// Callers hold ix.mu.
func (t *tables) merged() *Batch {
	const dead = ^uint32(0)
	b := &Batch{ids: make([]string, 0, len(t.ord)), flags: make([]byte, 0, len(t.ord))}
	var renumber []uint32 // nil while no ordinal is dead
	if len(t.ord) < len(t.ids) {
		renumber = make([]uint32, len(t.ids))
	}
	for o, id := range t.ids {
		if id == "" {
			renumber[o] = dead
			continue
		}
		if renumber != nil {
			renumber[o] = uint32(len(b.ids))
		}
		var flags byte
		if _, overflow := t.always[uint32(o)]; overflow {
			flags |= flagOverflow
		}
		if _, short := t.short[uint32(o)]; short {
			flags |= flagShort
		}
		b.ids, b.flags = append(b.ids, id), append(b.flags, flags)
	}
	slots := t.order()
	live := t.npost
	if renumber != nil {
		live = 0
		for _, s := range slots {
			for _, run := range t.runs(s) {
				for _, o := range run.ords {
					if renumber[o] != dead {
						live++
					}
				}
			}
		}
	}
	b.grams, b.ends = make([]string, 0, len(slots)), make([]uint32, 0, len(slots))
	b.ords, b.bnds = make([]uint32, live), make([]uint16, live)
	n := 0
	for _, s := range slots {
		from := n
		for _, run := range t.runs(s) {
			if renumber == nil {
				copy(b.ords[n:], run.ords)
				n += copy(b.bnds[n:], run.bnds)
				continue
			}
			for j, o := range run.ords {
				if o = renumber[o]; o != dead {
					b.ords[n], b.bnds[n] = o, run.bnds[j]
					n++
				}
			}
		}
		if n > from {
			b.grams, b.ends = append(b.grams, t.gram(s)), append(b.ends, uint32(n))
		}
	}
	return b
}

// gram returns slot s's gram.
func (t *tables) gram(s uint32) string {
	if int(s) < len(t.base.grams) {
		return t.base.grams[s]
	}
	return t.extra[int(s)-len(t.base.grams)]
}

// order returns every slot in ascending gram order: the base's, already
// in order, merged with the extra slots, sorted.
func (t *tables) order() []uint32 {
	extra := make([]uint32, len(t.extra))
	for i := range extra {
		extra[i] = uint32(len(t.base.grams) + i)
	}
	sortByGram(extra, t.gram)
	out := make([]uint32, 0, len(t.base.grams)+len(extra))
	k := 0
	for _, e := range extra {
		for ; k < len(t.base.grams) && t.base.grams[k] < t.gram(e); k++ {
			out = append(out, uint32(k))
		}
		out = append(out, e)
	}
	for ; k < len(t.base.grams); k++ {
		out = append(out, uint32(k))
	}
	return out
}
