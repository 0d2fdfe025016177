package index

import (
	"math/bits"
	"slices"
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
// covers. Each window is expanded once, against every part, before any
// part is answered.
func (e *evaluator) patterns(patterns [][]rune) (parts, bool) {
	q := e.ix.q
	probes, grams := maxWildProbes, 0
	// Per pattern, per window that constrains: per part, the runs of the
	// grams matching it. Probing is cheap next to reading the posting
	// lists, and the rarest window is worth reading first.
	windows := make([][][][]postings, len(patterns))
	for k, pat := range patterns {
		for i := 0; i+q <= len(pat); i++ {
			runs, n, constrains, ok := e.expand(pat[i:i+q], &probes)
			if !ok {
				return nil, false
			}
			if constrains {
				windows[k] = append(windows[k], runs)
				grams += n
			}
		}
		if len(windows[k]) == 0 {
			return nil, false
		}
	}
	out := make(parts, len(e.v.parts))
	for i, p := range e.v.parts {
		scratch, total := e.getAccum(i), e.getAccum(i)
		for _, pat := range windows {
			if len(pat) == 1 {
				// A pattern of exactly q runes: the window's bound sum is the
				// pattern's, and capping it before or after it joins the other
				// patterns' gives the same capped total — add it straight in.
				for _, run := range pat[0][i] {
					total.add(run)
				}
				continue
			}
			size := func(runs [][]postings) (n int) {
				for _, run := range runs[i] {
					n += len(run.ords)
				}
				return n
			}
			slices.SortStableFunc(pat, func(a, b [][]postings) int { return size(a) - size(b) })
			// The first window's union is the only one built in full; every
			// later window only confirms or drops what is left.
			var acc postings
			if first := pat[0][i]; len(first) == 1 {
				acc = first[0]
			} else {
				for _, run := range first {
					scratch.add(run)
				}
				acc = scratch.drain()
			}
			for _, runs := range pat[1:] {
				if len(acc.ords) == 0 {
					break
				}
				acc = scratch.within(acc, runs[i])
			}
			total.add(acc)
		}
		for _, o := range p.short {
			total.put(o, maxBound) // on top of whatever its grams summed to: the drain caps it at 1
		}
		out[i] = total.drain()
		e.ix.accums.Put(scratch)
		e.ix.accums.Put(total)
	}
	e.grams += grams
	return out, true
}

// expand returns, per part, the runs of the dictionary grams matching one
// q-rune window, and how many grams match it in some part: it probes
// every part with every alphabet rune at each wildcard. constrains is
// false for a window of wildcards only, which every gram matches; ok is
// false when the probes would overdraw budget.
func (e *evaluator) expand(window []rune, budget *int) (runs [][]postings, grams int, constrains, ok bool) {
	var wild []int // wildcard positions, left to right
	for i, r := range window {
		if r < 0 {
			wild = append(wild, i)
		}
	}
	if len(wild) == len(window) {
		return nil, 0, false, true
	}
	alphabet := e.v.alphabet
	cost := 1
	for range wild {
		if cost *= len(alphabet); cost > *budget {
			return nil, 0, false, false
		}
	}
	*budget -= cost
	runs = make([][]postings, len(e.v.parts))
	if cost == 0 {
		return runs, 0, true, true // an empty dictionary has no gram to match
	}
	// An odometer over the wildcard positions, leftmost most significant.
	probe := slices.Clone(window)
	at := make([]int, len(wild))
	key := make([]byte, 0, len(window)*utf8.UTFMax)
	for {
		for k, i := range wild {
			probe[i] = alphabet[at[k]]
		}
		key = key[:0]
		for _, r := range probe {
			key = utf8.AppendRune(key, r)
		}
		hit := false
		for i := range e.v.parts {
			if run := e.v.parts[i].find(string(key)); len(run.ords) > 0 {
				runs[i], hit = append(runs[i], run), true
			}
		}
		if hit {
			grams++
		}
		k := len(wild) - 1
		for ; k >= 0; k-- {
			if at[k]++; at[k] < len(alphabet) {
				break
			}
			at[k] = 0
		}
		if k < 0 {
			return runs, grams, true, true
		}
	}
}

// accum is a lookup's scratch for one part's ordinals. It unions posting
// lists, summing each ordinal's quantized bounds; it marks the shorter
// list of an intersection step, for the longer one to probe (intersect);
// and it holds the buffers an intersection's running set shrinks in. A
// lookup adds at most maxWildProbes lists per window and a few dozen
// capped sums per node, far from overflowing a uint32.
type accum struct {
	sum  []uint32 // per ordinal: the bounds added so far; valid where seen
	seen []uint64 // bitmap of the ordinals added
	n    int      // bits set in seen
	// bufs are the two buffers an intersection shrinks its running set
	// in, in turn (evaluator.intersect).
	bufs [2]postings
}

// getAccum returns an empty accum for every ordinal of part i: a
// recycled one if it is large enough, else a new one with room to grow.
// Whoever leaves it empty again may Put it back in ix.accums.
func (e *evaluator) getAccum(i int) *accum {
	n := len(e.v.parts[i].ids)
	if a, _ := e.ix.accums.Get().(*accum); a != nil && len(a.sum) >= n {
		return a
	}
	n += n / 4
	return &accum{sum: make([]uint32, n), seen: make([]uint64, (n+63)/64)}
}

func (a *accum) add(l postings) {
	for k, o := range l.ords {
		a.put(o, l.bnds[k])
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
// with its bound sum capped at 1 — and empties a for reuse.
func (a *accum) drain() postings {
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
	return out
}

// within intersects acc with the union of runs without building the
// union: it returns the postings of acc whose ordinal some run holds,
// each at the min of its bound and the sum of its bounds in those runs. a
// must be empty and is left empty.
func (a *accum) within(acc postings, runs []postings) postings {
	const inNone = ^uint32(0) // in acc, in no run yet; no sum reaches it
	for _, o := range acc.ords {
		a.seen[o/64] |= 1 << (o % 64)
		a.sum[o] = inNone
	}
	for _, run := range runs {
		for k, o := range run.ords {
			if a.seen[o/64]&(1<<(o%64)) == 0 {
				continue
			}
			if a.sum[o] == inNone {
				a.sum[o] = uint32(run.bnds[k])
			} else {
				a.sum[o] += uint32(run.bnds[k])
			}
		}
	}
	var out postings // fresh backing; acc may be a shared posting list
	for k, o := range acc.ords {
		a.seen[o/64] &^= 1 << (o % 64)
		if a.sum[o] != inNone {
			out.ords = append(out.ords, o)
			out.bnds = append(out.bnds, uint16(min(uint32(acc.bnds[k]), a.sum[o])))
		}
	}
	return out
}
