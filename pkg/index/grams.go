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
// at most the stored bound (see DocGramBounds), which is rounded up to 16
// bits (see Quantize) so that it stays admissible. Bounds ride the posting
// lists and let the engine process top-k candidates best-bound-first and
// stop early once the running k-th result beats every remaining bound.
//
// The index lives in memory as gram → posting list and persists to a
// single crc-framed log file (see file.go) inside the store directory,
// commit by commit in the postings-major shape it applies them in (Batch),
// maintained transactionally with diskstore commits and rebuilt from a
// store scan whenever it is missing or stale.
package index

import (
	"slices"
	"strings"
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

// Entry is one document's indexed gram set, the unit gram extraction
// produces; Invert turns a commit's entries into the postings-major Batch
// the index and its log consume.
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

// EntryFor extracts doc's gram set at gram size q. Overflow is reported in
// the Entry rather than as an error, because the only safe response — treat
// the document as always matching — is the index's to make, not the
// caller's.
func EntryFor(doc *staccato.Doc, q int) Entry {
	grams, bounds, short, ok := DocGramBounds(doc, q)
	return Entry{ID: doc.ID, Grams: grams, Bounds: bounds, Overflow: !ok, Short: short}
}

// DocGrams returns the sorted set of q-grams (in runes) that occur in any
// retained reading of doc, including grams spanning chunk boundaries. The
// second result is false when the boundary DP exceeded its frontier
// budget; the returned grams are then incomplete and the document must be
// treated as matching everything.
//
// The DP is exact, not merely conservative: every returned gram occurs in
// at least one retained reading, because each emitted window is a real
// reachable suffix concatenated with a real alternative.
func DocGrams(doc *staccato.Doc, q int) ([]string, bool) {
	grams, _, _, ok := docGramMass(doc, q)
	return grams, ok
}

// DocGramBounds is DocGrams plus, per gram, an admissible upper bound on
// the probability that a reading drawn from doc's distribution contains
// that gram, quantized upward to 16 bits (Quantize) — here, once, so the
// live index, the log and a reload all carry the same value.
//
// The bound is a union bound over disjoint boundary events. The DP
// carries, for every reachable (≤ q-1)-rune suffix of a reading prefix,
// the total probability mass of the prefixes ending in it. For a fixed
// chunk, the events "the prefix ends in suffix tail AND this chunk reads
// alternative alt" are pairwise disjoint and have probability
// mass(tail)·P(alt). Every occurrence of a gram in a reading ends inside
// exactly one chunk and is contained in that chunk's window tail+alt.Text,
// so summing mass(tail)·P(alt) over every event whose window contains the
// gram (counting each event once per gram, however many times the gram
// repeats inside one window) over-counts the probability that the gram
// occurs at all. Bounds are clamped to [0, 1].
//
// The returned bound slice is aligned with the gram slice. short reports
// whether doc has a retained reading shorter than q runes — the shortest
// reading takes each chunk's shortest alternative — which is what
// Entry.Short records; it is exact even when the DP overflows.
func DocGramBounds(doc *staccato.Doc, q int) (grams []string, bounds []uint16, short, ok bool) {
	grams, mass, short, ok := docGramMass(doc, q)
	if !ok {
		return nil, nil, short, false
	}
	bounds = make([]uint16, len(mass))
	for i, m := range mass {
		bounds[i] = Quantize(m)
	}
	return grams, bounds, short, true
}

// docGramMass is the boundary DP behind DocGramBounds: the sorted grams
// and, aligned, each gram's accumulated event mass capped at 1.
//
// Every (tail, alternative) event is laid out once, UTF-8 with invalid
// bytes normalized as a []rune conversion would, in a reused buffer; its
// windows and its new suffix are byte ranges of that buffer, looked up in
// maps that hand back a slot — a lookup by string(bytes) does not allocate,
// so only a gram's or a suffix's first sighting does.
func docGramMass(doc *staccato.Doc, q int) (grams []string, mass []float64, short, ok bool) {
	if q < 1 {
		return nil, nil, false, false
	}
	shortest, size := 0, 0
	for _, ch := range doc.Chunks {
		least := 0 // a chunk without alternatives reads as the empty string below
		for i, alt := range ch.Alts {
			if n := utf8.RuneCountInString(alt.Text); i == 0 || n < least {
				least = n
			}
			size += len(alt.Text)
		}
		shortest += least
	}
	short = shortest < q

	type gram struct {
		text   string
		mass   float64
		seenIn int32 // the last event that counted it
	}
	// suffix is one entry of the DP's frontier: a distinct last-(≤ q-1)-rune
	// string of a reading prefix ending at a chunk boundary, and the total
	// probability of the prefixes ending in it.
	type suffix struct {
		tail string
		mass float64
	}
	// A chunk's alternatives mostly repeat one another's grams: half the
	// document's bytes is room for nearly every one without regrowing.
	found := make([]gram, 0, size/2)
	slot := make(map[string]int32, size/2) // gram -> position in found
	event := int32(0)
	frontier := []suffix{{"", 1}} // ascending by tail
	var next []suffix
	nextAt := make(map[string]int32) // tail -> position in next
	var text []byte                  // the event's window tail+alt.Text
	var runeAt []int                 // byte offset of each rune of text, then len(text)
	for _, ch := range doc.Chunks {
		alts := ch.Alts
		if len(alts) == 0 {
			// A chunk with no retained alternatives encodes no readings at
			// all; treating it as a single empty zero-probability alternative
			// keeps the DP running and only ever adds grams (at bound 0),
			// never drops them.
			alts = []staccato.Alt{{}}
		}
		next = next[:0]
		clear(nextAt)
		// The frontier is walked in ascending tail order and the
		// alternatives as given, so every float accumulation below runs in
		// one fixed order.
		for _, from := range frontier {
			for _, alt := range alts {
				w := from.mass * alt.Prob
				event++
				text, runeAt = text[:0], runeAt[:0]
				for _, s := range [2]string{from.tail, alt.Text} {
					for _, r := range s {
						runeAt = append(runeAt, len(text))
						text = utf8.AppendRune(text, r)
					}
				}
				n := len(runeAt)
				runeAt = append(runeAt, len(text))
				for i := 0; i+q <= n; i++ {
					g := text[runeAt[i]:runeAt[i+q]]
					at, known := slot[string(g)]
					if !known {
						at = int32(len(found))
						found = append(found, gram{text: string(g)})
						slot[found[at].text] = at
					}
					if found[at].seenIn != event { // once per event, however often it repeats
						found[at].seenIn = event
						found[at].mass += w
					}
				}
				tail := text[runeAt[max(0, n-(q-1))]:]
				at, known := nextAt[string(tail)]
				if !known {
					at = int32(len(next))
					next = append(next, suffix{tail: string(tail)})
					nextAt[next[at].tail] = at
				}
				next[at].mass += w
			}
		}
		if len(next) > maxSuffixes {
			return nil, nil, short, false
		}
		slices.SortFunc(next, func(a, b suffix) int { return strings.Compare(a.tail, b.tail) })
		frontier, next = next, frontier
	}
	grams, mass = make([]string, len(found)), make([]float64, len(found))
	for i, g := range found {
		grams[i] = g.text
	}
	slices.Sort(grams) // on bare strings: several times faster than sorting found by a comparator
	for i, g := range grams {
		mass[i] = min(1, found[slot[g]].mass)
	}
	return grams, mass, short, true
}
