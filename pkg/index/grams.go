// Package index maintains a persistent inverted q-gram index over
// Staccato documents, the structure that lets the query engine answer
// selective queries without scanning every document — the "use the
// database's text indexing" half of the Staccato thesis (Kumar & Ré,
// VLDB 2011).
//
// A Staccato document is not one string but a product distribution over
// per-chunk path sets, so the indexed unit is the set of q-grams that
// occur in ANY retained reading. That set is computed by a left-to-right
// dynamic program over the chunks which carries every reachable (q-1)-rune
// suffix across each chunk boundary, so grams formed from an
// adjacent-chunk suffix×prefix concatenation — including grams spanning
// three or more chunks through empty or very short alternatives — are
// never missed. The resulting contract is the one the planner builds on:
// if a document's gram set lacks any q-gram of a term, no retained reading
// of that document contains the term, and its match probability is exactly
// zero.
//
// Alongside each gram the DP accumulates an admissible probability upper
// bound: the probability that any retained reading contains that gram is
// at most the stored bound (see BatchOf), which is rounded up to 16
// bits (see Quantize) so that it stays admissible. Bounds ride the posting
// lists and let the engine process top-k candidates best-bound-first and
// stop early once the running k-th result beats every remaining bound.
//
// The index lives in memory as immutable versions, one per commit, each
// a few parts in the postings-major shape of a commit (Batch), and
// persists to a single crc-framed log file (see file.go) inside the store
// directory, commit by commit in that same shape.
// The Index owns that log from Open, which loads it or persists a rebuild
// from a store scan when it is missing or stale, through Commit, which
// applies and appends each diskstore commit, to the rewrites that bound
// its growth and drop what deletes and supersedes leave dead (file.go).
package index

import (
	"math"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// DefaultGramSize is the q used when callers do not choose one. Trigrams
// are the classic text-index compromise: selective enough to prune, small
// enough that the gram universe stays bounded.
const DefaultGramSize = 3

// maxSuffixes bounds the boundary-DP frontier. A document whose reachable
// suffix set outgrows it is declared an overflow: it is indexed as
// matching every query rather than risking a dropped gram. With q=3 the
// frontier is capped by the number of distinct 2-rune strings the
// alternatives can produce, so ordinary OCR documents stay far below this.
const maxSuffixes = 1024

// Entry is one document's indexed gram set: EntryFor's view of it, and
// the unit of hand-built additions, which Invert turns into the
// postings-major Batch the index and its log consume.
type Entry struct {
	ID string
	// Grams is the sorted set of q-grams occurring in at least one
	// retained reading. Empty (with Overflow false) means no reading is as
	// long as q runes.
	Grams []string
	// Bounds is aligned with Grams: Bounds[i] is an admissible upper bound
	// on the probability that any retained reading contains Grams[i],
	// quantized upward (see Quantize). A nil or short Bounds (hand-built
	// entries) is read as all-ones, which is always admissible.
	Bounds []uint16
	// Overflow marks a document whose gram extraction exceeded its budget;
	// the index treats it as a candidate for every query.
	Overflow bool
	// Short marks a document with a retained reading shorter than q runes.
	// No gram covers such a reading, yet it can satisfy a query whose match
	// is itself shorter than q, so the index treats the document as a
	// candidate for every wildcard lookup (Lookup.Patterns).
	// Overflow subsumes it: the index ignores Short on an overflow entry.
	Short bool
}

// Bound returns the quantized upper bound for gram position i, defaulting
// to 1 when the entry carries no bound there (the always-admissible
// fallback).
func (e *Entry) Bound(i int) uint16 {
	if i < len(e.Bounds) {
		return e.Bounds[i]
	}
	return maxBound
}

// EntryFor extracts doc's gram set at gram size q: the view of a
// one-document BatchOf. Overflow is reported in the Entry rather than as
// an error, because the only safe response — treat the document as always
// matching — is the index's to make, not the caller's.
func EntryFor(doc *staccato.Doc, q int) Entry {
	b := batchOf([]*staccato.Doc{doc}, q, 1)
	e := Entry{ID: doc.ID, Overflow: b.flags[0]&flagOverflow != 0, Short: b.flags[0]&flagShort != 0}
	if !e.Overflow {
		// One document: every run is the one posting ordinal 0.
		e.Grams, e.Bounds = b.grams, b.bnds
	}
	return e
}

// minRange is the fewest documents BatchOf hands a goroutine of its own.
// A split commit builds a dictionary per range and merges them, so a
// range must be long enough to win that back. Extracting error-model
// documents on 2 vCPUs, two ranges against one took 26.2 → 29.2 µs/doc at
// 64 documents, 24.7 → 23.9 at 128 and 20.1 → 18.5 at 256;
// BenchmarkIngest/256 went from a median of 46.5 to 43.7 µs/doc. A Put and
// mixed-rw's 4-document writes stay inline.
const minRange = 128

// BatchOf extracts the gram sets of docs at the index's gram size into one
// commit's Batch, writing its postings straight from the boundary DP: each
// gram is interned once per range of documents, and each range sorts its
// distinct grams once. With workers > 1 and at least minRange documents
// per worker, docs is split into that many contiguous ranges, extracted
// concurrently and merged; the Batch is the same however docs is split.
// It reads nothing of the index but its gram size, so it runs outside
// every lock.
func (ix *Index) BatchOf(docs []*staccato.Doc, workers int) *Batch {
	return batchOf(docs, ix.q, workers)
}

// batchOf is BatchOf at gram size q.
func batchOf(docs []*staccato.Doc, q, workers int) *Batch {
	n := max(1, min(workers, len(docs)/minRange))
	parts := make([][]*staccato.Doc, n)
	for i := range parts {
		parts[i] = docs[i*len(docs)/n : (i+1)*len(docs)/n]
	}
	return build(parts, q)
}

// build extracts each of parts, the first inline and the rest on
// goroutines of their own, and merges them in order.
func build(parts [][]*staccato.Doc, q int) *Batch {
	out := make([]*Batch, len(parts))
	var wg sync.WaitGroup
	for i := 1; i < len(parts); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = newExtractor(parts[i], q).batch(parts[i])
		}()
	}
	out[0] = newExtractor(parts[0], q).batch(parts[0])
	wg.Wait()
	if len(out) == 1 {
		return out[0]
	}
	return merge(out, nil)
}

// extractor runs the boundary DP over a range of documents, numbering
// every gram and every frontier suffix it meets once for the whole range:
// a window or a tail is a byte range of a reused buffer, looked up by
// string(bytes), which does not allocate, so only a first sighting does.
type extractor struct {
	q int
	// slot numbers the grams; texts, n and marks are indexed by number.
	slot  map[string]int32
	texts []string
	n     []int32 // postings in the range
	marks []gramMark
	// tailAt and tails number the frontier's suffixes the same way.
	tailAt map[string]int32
	tails  []tailSlot
	chunk  int32 // chunks extracted so far: the stamp of next's members

	// touched is the current document's grams, each with its event mass
	// (see extract).
	touched        []gramMass
	frontier, next []suffix
	text           []byte    // the event's window tail+alt.Text
	runeAt         []int     // byte offset of each rune of text, then len(text)
	post           []posting // the range's postings, in document order
}

// gramMark is where a gram stands in the current document: the document
// that touched it last, its position in touched while that document is
// the current one, and the last event of that document that counted it.
type gramMark struct{ doc, at, event int32 }

// tailSlot is one numbered suffix and its position in next, valid while
// chunk is the current chunk.
type tailSlot struct {
	text      string
	chunk, at int32
}

type gramMass struct {
	slot int32
	mass float64
}

// suffix is one entry of the DP's frontier: a distinct last-(≤ q-1)-rune
// string of a reading prefix ending at a chunk boundary, and the total
// probability of the prefixes ending in it.
type suffix struct {
	tail string
	mass float64
}

// newExtractor returns an extractor for docs at gram size q, with room
// for what they are likely to hold: a document has about one posting per
// two bytes of alternatives, while a range's distinct grams grow like the
// square root of its bytes (Heaps' law; ≈ 24·√bytes on the error-model
// corpus, from 2,700 grams at 64 documents to 5,900 at 256).
func newExtractor(docs []*staccato.Doc, q int) *extractor {
	size := 0
	for _, d := range docs {
		for _, ch := range d.Chunks {
			for _, alt := range ch.Alts {
				size += len(alt.Text)
			}
		}
	}
	grams := int(min(float64(size/2), 24*math.Sqrt(float64(size))))
	return &extractor{
		q:        q,
		slot:     make(map[string]int32, grams),
		texts:    make([]string, 0, grams),
		n:        make([]int32, 0, grams),
		marks:    make([]gramMark, 0, grams),
		tailAt:   make(map[string]int32, 32),
		tails:    make([]tailSlot, 0, 32),
		touched:  make([]gramMass, 0, min(grams, 256)),
		frontier: make([]suffix, 0, 32),
		next:     make([]suffix, 0, 32),
		text:     make([]byte, 0, 64),
		runeAt:   make([]int, 0, 64),
		post:     make([]posting, 0, size/2),
	}
}

// batch extracts docs, the i-th at local ordinal i, straight into the
// range's postings, and inverts them.
func (x *extractor) batch(docs []*staccato.Doc) *Batch {
	b := &Batch{ids: make([]string, len(docs)), flags: make([]byte, len(docs))}
	for i, d := range docs {
		b.ids[i] = d.ID
		short, ok := x.extract(d, int32(i))
		if !ok {
			b.flags[i] = flagOverflow
			continue
		}
		if short {
			b.flags[i] = flagShort
		}
		for _, t := range x.touched {
			x.n[t.slot]++
			x.post = append(x.post, posting{slot: t.slot, ord: int32(i), bnd: Quantize(min(1, t.mass))})
		}
	}
	b.invert(x.texts, x.n, x.post) // a gram met only in overflow documents has no posting
	return b
}

// extract runs the boundary DP over doc, the range's document ord, and
// leaves in x.touched every gram doc holds with its event mass, in the
// order the DP met them; ok is false when the frontier outgrew
// maxSuffixes, and then x.touched is incomplete. short reports whether doc
// has a retained reading shorter than q runes — the shortest reading takes
// each chunk's shortest alternative — which is what Entry.Short records;
// it is exact even when the DP overflows.
//
// A gram's mass, capped at 1, is an admissible upper bound on the
// probability that a reading drawn from doc's distribution contains it: a
// union bound over disjoint boundary events. The DP carries, for every
// reachable (≤ q-1)-rune suffix of a reading prefix, the total
// probability mass of the prefixes ending in it. For a fixed chunk, the
// events "the prefix ends in suffix tail AND this chunk reads alternative
// alt" are pairwise disjoint and have probability mass(tail)·P(alt). Every
// occurrence of a gram in a reading ends inside exactly one chunk and is
// contained in that chunk's window tail+alt.Text, so summing
// mass(tail)·P(alt) over every event whose window contains the gram
// (counting each event once per gram, however many times the gram repeats
// inside one window) over-counts the probability that the gram occurs at
// all. The frontier is walked in ascending tail order and the
// alternatives as given, so every sum runs in one fixed order.
//
// The gram set is exact, not merely conservative: every gram occurs in at
// least one retained reading, because each window is a real reachable
// suffix concatenated with a real alternative. Each event's window is laid
// out as UTF-8, with invalid bytes normalized as a []rune conversion would.
func (x *extractor) extract(doc *staccato.Doc, ord int32) (short, ok bool) {
	x.touched = x.touched[:0]
	q := x.q
	if q < 1 {
		return false, false
	}
	shortest := 0
	for _, ch := range doc.Chunks {
		least := 0 // a chunk without alternatives reads as the empty string below
		for i, alt := range ch.Alts {
			if n := utf8.RuneCountInString(alt.Text); i == 0 || n < least {
				least = n
			}
		}
		shortest += least
	}
	short = shortest < q

	x.frontier = append(x.frontier[:0], suffix{"", 1})
	event := int32(0)
	for _, ch := range doc.Chunks {
		alts := ch.Alts
		if len(alts) == 0 {
			// A chunk with no retained alternatives encodes no readings at
			// all; treating it as a single empty zero-probability alternative
			// keeps the DP running and only ever adds grams (at bound 0),
			// never drops them.
			alts = []staccato.Alt{{}}
		}
		x.chunk++
		x.next = x.next[:0]
		for _, from := range x.frontier {
			for _, alt := range alts {
				w := from.mass * alt.Prob
				event++
				text, runeAt := x.text[:0], x.runeAt[:0]
				for _, s := range [2]string{from.tail, alt.Text} {
					for _, r := range s {
						runeAt = append(runeAt, len(text))
						text = utf8.AppendRune(text, r)
					}
				}
				n := len(runeAt)
				runeAt = append(runeAt, len(text))
				x.text, x.runeAt = text, runeAt
				for i := 0; i+q <= n; i++ {
					g := text[runeAt[i]:runeAt[i+q]]
					s, known := x.slot[string(g)]
					if !known {
						s = int32(len(x.texts))
						x.texts = append(x.texts, string(g))
						x.n, x.marks = append(x.n, 0), append(x.marks, gramMark{doc: -1})
						x.slot[x.texts[s]] = s
					}
					m := &x.marks[s]
					if m.doc != ord {
						m.doc, m.at, m.event = ord, int32(len(x.touched)), 0
						x.touched = append(x.touched, gramMass{slot: s})
					}
					if m.event != event { // once per event, however often it repeats
						m.event = event
						x.touched[m.at].mass += w
					}
				}
				tail := text[runeAt[max(0, n-(q-1))]:]
				s, known := x.tailAt[string(tail)]
				if !known {
					s = int32(len(x.tails))
					x.tails = append(x.tails, tailSlot{text: string(tail)})
					x.tailAt[x.tails[s].text] = s
				}
				ts := &x.tails[s]
				if ts.chunk != x.chunk {
					ts.chunk, ts.at = x.chunk, int32(len(x.next))
					x.next = append(x.next, suffix{tail: ts.text})
				}
				x.next[ts.at].mass += w
			}
		}
		if len(x.next) > maxSuffixes {
			return short, false
		}
		slices.SortFunc(x.next, func(a, b suffix) int { return strings.Compare(a.tail, b.tail) })
		x.frontier, x.next = x.next, x.frontier
	}
	return short, true
}
