package index

import (
	"math/bits"
	"slices"
	"sort"
	"unicode/utf8"
)

// maxWildProbes bounds the dictionary probes one Patterns node may spend
// expanding wildcard windows — each wildcard position multiplies a
// window's probes by the alphabet size, so a large alphabet or a window
// that is mostly wildcards is refused rather than paid for.
const maxWildProbes = 1 << 15

// patterns evaluates a Patterns node (see Lookup and Candidates). A
// document can hold a string matching a pattern in a reading of q runes or
// more only if, for every q-rune window of the pattern, its gram set holds
// some gram matching that window; the result is every document for which
// that is true of at least one pattern — per pattern the intersection
// over windows of the union over matching dictionary grams — plus, at
// bound 1, every document with a reading shorter than q, which no gram
// covers. Windows are expanded by probing the posting map with every
// alphabet rune at each wildcard position.
func (e *evaluator) patterns(patterns [][]rune) (parts, bool) {
	ix := e.ix
	probes, grams := maxWildProbes, 0
	scratch, total := ix.getAccum(), ix.getAccum()
	for _, pat := range patterns {
		// Expand every window first: probing is cheap next to reading the
		// posting lists, and the rarest window is worth reading first.
		var windows [][]uint32
		for i := 0; i+ix.q <= len(pat); i++ {
			hits, constrains, ok := ix.expand(pat[i:i+ix.q], &probes)
			if !ok {
				return parts{}, false
			}
			if constrains {
				windows = append(windows, hits)
				grams += len(hits)
			}
		}
		if len(windows) == 0 {
			return parts{}, false
		}
		if len(windows) == 1 {
			// A pattern of exactly q runes: the window's bound sum is the
			// pattern's, and capping it before or after it joins the other
			// patterns' gives the same capped total — add it straight in.
			for _, s := range windows[0] {
				total.add(ix.runs(s))
			}
			continue
		}
		sort.SliceStable(windows, func(i, j int) bool { return ix.postingsIn(windows[i]) < ix.postingsIn(windows[j]) })
		// The first window's union is the only one built in full; every
		// later window only confirms or drops what is left.
		var acc parts
		if first := windows[0]; len(first) == 1 {
			acc = ix.runs(first[0])
		} else {
			for _, s := range first {
				scratch.add(ix.runs(s))
			}
			acc = scratch.drain(ix.nbase)
		}
		for _, hits := range windows[1:] {
			if len(acc[0].ords)+len(acc[1].ords) == 0 {
				break
			}
			acc = scratch.within(&ix.tables, acc, hits)
		}
		total.add(acc)
	}
	for o := range ix.short {
		total.put(o, maxBound) // on top of whatever its grams summed to: the drain caps it at 1
	}
	acc := total.drain(ix.nbase)
	// Both are drained, so empty; a refused lookup above leaves total
	// part-filled and simply drops the pair.
	ix.accums.Put(scratch)
	ix.accums.Put(total)
	e.grams += grams
	return acc, true
}

// expand returns, in ascending gram order, the slots of the dictionary
// grams matching one q-rune window. constrains is false for a window of
// wildcards only, which every gram matches; ok is false when the probes
// would overdraw budget. Callers hold ix.mu.
func (ix *Index) expand(window []rune, budget *int) (hits []uint32, constrains, ok bool) {
	var wild []int // wildcard positions, left to right
	for i, r := range window {
		if r < 0 {
			wild = append(wild, i)
		}
	}
	if len(wild) == len(window) {
		return nil, false, true
	}
	cost := 1
	for range wild {
		if cost *= len(ix.alphabet); cost > *budget {
			return nil, false, false
		}
	}
	if cost == 0 {
		return nil, true, true // an empty dictionary has no gram to match
	}
	*budget -= cost
	// An odometer over the wildcard positions, leftmost most significant:
	// with the literal runes fixed, that visits the grams in ascending
	// order (UTF-8 byte order is code point order).
	probe := append([]rune(nil), window...)
	at := make([]int, len(wild))
	key := make([]byte, 0, len(window)*utf8.UTFMax)
	for {
		for k, i := range wild {
			probe[i] = ix.alphabet[at[k]]
		}
		key = key[:0]
		for _, r := range probe {
			key = utf8.AppendRune(key, r)
		}
		if s, ok := ix.dict[string(key)]; ok {
			hits = append(hits, s)
		}
		k := len(wild) - 1
		for ; k >= 0; k-- {
			if at[k]++; at[k] < len(ix.alphabet) {
				break
			}
			at[k] = 0
		}
		if k < 0 {
			return hits, true, true
		}
	}
}

// postingsIn is the total length of the lists of slots.
func (t *tables) postingsIn(slots []uint32) int {
	n := 0
	for _, s := range slots {
		p := t.runs(s)
		n += len(p[0].ords) + len(p[1].ords)
	}
	return n
}

// accum unions posting lists in ordinal space, summing each ordinal's
// quantized bounds. A lookup adds at most maxWildProbes lists per window
// and a few dozen capped sums per node, far from overflowing a uint32.
type accum struct {
	sum  []uint32 // per ordinal: the bounds added so far; valid where seen
	seen []uint64 // bitmap of the ordinals added
	n    int      // bits set in seen
}

// getAccum returns an empty accum for every ordinal issued so far: a
// recycled one if it is large enough, else a new one with room to grow.
// Whoever leaves it empty again may Put it back in ix.accums. Callers hold
// ix.mu.
func (ix *Index) getAccum() *accum {
	n := len(ix.ids)
	if a, _ := ix.accums.Get().(*accum); a != nil && len(a.sum) >= n {
		return a
	}
	n += n / 4
	return &accum{sum: make([]uint32, n), seen: make([]uint64, (n+63)/64)}
}

func (a *accum) add(p parts) {
	for _, l := range p {
		for k, o := range l.ords {
			a.put(o, l.bnds[k])
		}
	}
}

// put adds a single posting.
func (a *accum) put(o uint32, b uint16) {
	if w, bit := o/64, uint64(1)<<(o%64); a.seen[w]&bit == 0 {
		a.seen[w] |= bit
		a.sum[o] = uint32(b)
		a.n++
	} else {
		a.sum[o] += uint32(b)
	}
}

// drain returns the union of the lists added — ascending ordinals, each
// with its bound sum capped at 1, split where the base's nbase ordinals
// end — and empties a for reuse.
func (a *accum) drain(nbase uint32) parts {
	out := postings{ords: make([]uint32, 0, a.n), bnds: make([]uint16, 0, a.n)}
	for w, word := range a.seen {
		for ; word != 0; word &= word - 1 {
			o := uint32(w*64 + bits.TrailingZeros64(word))
			out.ords = append(out.ords, o)
			out.bnds = append(out.bnds, uint16(min(maxBound, a.sum[o])))
		}
		a.seen[w] = 0
	}
	a.n = 0
	at, _ := slices.BinarySearch(out.ords, nbase)
	return parts{{out.ords[:at:at], out.bnds[:at:at]}, {out.ords[at:], out.bnds[at:]}}
}

// within intersects acc with the union of the lists of slots without
// building the union: it returns the postings of acc whose ordinal some
// list holds, each at the min of its bound and the sum of its bounds in
// those lists. a must be empty and is left empty.
func (a *accum) within(t *tables, acc parts, slots []uint32) parts {
	const inNone = ^uint32(0) // in acc, in no list yet; no sum reaches it
	for _, part := range acc {
		for _, o := range part.ords {
			a.seen[o/64] |= 1 << (o % 64)
			a.sum[o] = inNone
		}
	}
	for _, s := range slots {
		for _, l := range t.runs(s) {
			for k, o := range l.ords {
				if a.seen[o/64]&(1<<(o%64)) == 0 {
					continue
				}
				if a.sum[o] == inNone {
					a.sum[o] = uint32(l.bnds[k])
				} else {
					a.sum[o] += uint32(l.bnds[k])
				}
			}
		}
	}
	var out parts // fresh backing; acc may be a shared posting list
	for i, part := range acc {
		for k, o := range part.ords {
			a.seen[o/64] &^= 1 << (o % 64)
			if a.sum[o] != inNone {
				out[i].ords = append(out[i].ords, o)
				out[i].bnds = append(out[i].bnds, uint16(min(uint32(part.bnds[k]), a.sum[o])))
			}
		}
	}
	return out
}
