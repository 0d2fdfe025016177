package index

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"
)

// Batch is one commit's additions, inverted: the documents in add order
// and, per distinct gram in ascending order, the run of documents holding
// it. It is the one shape additions take past gram extraction — Commit
// makes it a part of the index and stores it as it stands, Persist stores
// the merge of every part, and Load reads each back as a part — so a
// commit is inverted once, by whoever extracted it, outside every lock.
type Batch struct {
	ids   []string // the documents; a document's local ordinal is its position
	flags []byte   // aligned with ids: flagOverflow | flagShort
	grams []string // ascending, distinct
	// The runs lie back to back in ords and bnds, in gram order: gram k's
	// run ends at ends[k] and starts where gram k-1's ended. A run is
	// ascending local ordinals and their bounds, never empty, never naming
	// an overflow document.
	ends []uint32
	ords []uint32
	bnds []uint16
}

// run returns gram k's run.
func (b *Batch) run(k int) postings {
	from, to := uint32(0), b.ends[k]
	if k > 0 {
		from = b.ends[k-1]
	}
	return postings{b.ords[from:to:to], b.bnds[from:to:to]}
}

// posting is one (document, gram) pair of a commit: the gram's slot in the
// numbering of whoever collected it, and the document's local ordinal.
type posting struct {
	slot, ord int32
	bnd       uint16
}

// invert fills b's dictionary and runs from post, the commit's postings
// in document order, whose slots number the grams of texts; n counts each
// slot's postings, and a gram without postings is left out. The distinct
// grams are sorted once, and each posting is placed straight into its
// gram's run, which the document order keeps ascending. n is consumed.
func (b *Batch) invert(texts []string, n []int32, post []posting) {
	order := make([]uint32, 0, len(texts))
	for s, c := range n {
		if c > 0 {
			order = append(order, uint32(s))
		}
	}
	sortByGram(order, func(s uint32) string { return texts[s] })
	// n becomes each slot's next place in the flat arrays.
	b.grams, b.ends = make([]string, len(order)), make([]uint32, len(order))
	end := int32(0)
	for k, s := range order {
		b.grams[k] = texts[s]
		end, n[s] = end+n[s], end
		b.ends[k] = uint32(end)
	}
	b.ords, b.bnds = make([]uint32, end), make([]uint16, end)
	for _, p := range post {
		at := n[p.slot]
		b.ords[at], b.bnds[at] = uint32(p.ord), p.bnd
		n[p.slot]++
	}
}

// sortByGram sorts slots by their grams: by the first eight bytes of each,
// compared as one integer, and only the rare tie by the whole gram.
func sortByGram(slots []uint32, gram func(uint32) string) {
	type keyed struct {
		prefix uint64
		slot   uint32
	}
	keys := make([]keyed, len(slots))
	for i, s := range slots {
		keys[i] = keyed{prefix(gram(s)), s}
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		return strings.Compare(gram(a.slot), gram(b.slot))
	})
	for i, k := range keys {
		slots[i] = k.slot
	}
}

// prefix is the first eight bytes of g, zero-padded, as one integer. Two
// grams whose prefixes differ compare as their prefixes do.
func prefix(g string) uint64 {
	var p [8]byte
	copy(p[:], g)
	return binary.BigEndian.Uint64(p[:])
}

// Invert builds the Batch of hand-built entries. An overflow entry
// contributes its ID and flags only; a gram an entry lists twice is kept
// once, at the larger bound.
func Invert(adds []Entry) *Batch {
	b := &Batch{ids: make([]string, len(adds)), flags: make([]byte, len(adds))}
	slot := make(map[string]int32)
	var texts []string
	var n, last, at []int32 // per slot: postings, the last entry listing it, its posting there
	var post []posting
	for i, e := range adds {
		b.ids[i] = e.ID
		if e.Overflow {
			b.flags[i] = flagOverflow
			continue
		}
		if e.Short {
			b.flags[i] = flagShort
		}
		for j, g := range e.Grams {
			s, met := slot[g]
			if !met {
				s = int32(len(texts))
				slot[g] = s
				texts, n, last, at = append(texts, g), append(n, 0), append(last, -1), append(at, 0)
			}
			if last[s] == int32(i) {
				post[at[s]].bnd = max(post[at[s]].bnd, e.Bound(j))
				continue
			}
			last[s], at[s] = int32(i), int32(len(post))
			n[s]++
			post = append(post, posting{slot: s, ord: int32(i), bnd: e.Bound(j)})
		}
	}
	b.invert(texts, n, post)
	return b
}

// merge joins the batches of contiguous document ranges, in order, into
// one: their documents in sequence and, per gram, the runs of every range
// that holds it, each ordinal rebased by the documents of the ranges
// before its own — so a merged run is ascending as it is concatenated.
// The documents dead marks, by their ordinal across the ranges, are left
// out with their postings, the rest renumbered densely, and a gram left
// without a posting goes; a nil dead leaves out nothing. Each merged gram
// is picked by comparing every range's next one, so more than maxFanIn
// ranges — only load's one tiering of a log of small commits has them —
// are first merged maxFanIn at a time. The merged grams are copied back
// to back into one string.
func merge(parts []*Batch, dead []uint64) *Batch {
	const gone = ^uint32(0)
	for len(parts) > maxFanIn {
		var fewer []*Batch
		for from := 0; from < len(parts); from += maxFanIn {
			fewer = append(fewer, merge(parts[from:min(from+maxFanIn, len(parts))], nil))
		}
		parts = fewer
	}
	n, total := 0, 0
	for _, p := range parts {
		n, total = n+len(p.ids), total+len(p.ords)
	}
	// renumber maps an ordinal across the ranges to its merged one, when
	// some document is dead; otherwise a range's ordinals only shift by
	// base, the documents before it.
	var renumber []uint32
	if slices.ContainsFunc(dead, func(w uint64) bool { return w != 0 }) {
		renumber = make([]uint32, n)
	}
	b := &Batch{ids: make([]string, 0, n), flags: make([]byte, 0, n)}
	base, o := make([]uint32, len(parts)), uint32(0)
	for i, p := range parts {
		base[i] = o
		for j, id := range p.ids {
			if isDead(dead, o) {
				renumber[o] = gone
			} else {
				if renumber != nil {
					renumber[o] = uint32(len(b.ids))
				}
				b.ids, b.flags = append(b.ids, id), append(b.flags, p.flags[j])
			}
			o++
		}
	}
	if len(b.ids) < n { // size the runs without the dead postings
		total = 0
		for i, p := range parts {
			for _, k := range p.ords {
				if renumber[base[i]+k] != gone {
					total++
				}
			}
		}
	}
	b.ords, b.bnds = make([]uint32, 0, total), make([]uint16, 0, total)
	at := make([]int, len(parts)) // each range's next gram
	var text []byte
	var cut []uint32 // where each merged gram ends in text
	for {
		g, found := "", false
		for i, p := range parts {
			if at[i] < len(p.grams) && (!found || p.grams[at[i]] < g) {
				g, found = p.grams[at[i]], true
			}
		}
		if !found {
			break
		}
		from := len(b.ords)
		for i, p := range parts {
			if at[i] == len(p.grams) || p.grams[at[i]] != g {
				continue
			}
			run := p.run(at[i])
			at[i]++
			if renumber == nil {
				to := len(b.ords)
				b.ords, b.bnds = append(b.ords, run.ords...), append(b.bnds, run.bnds...)
				for ; to < len(b.ords); to++ {
					b.ords[to] += base[i]
				}
				continue
			}
			for j, o := range run.ords {
				if o = renumber[base[i]+o]; o != gone {
					b.ords, b.bnds = append(b.ords, o), append(b.bnds, run.bnds[j])
				}
			}
		}
		if len(b.ords) > from {
			text, cut = append(text, g...), append(cut, uint32(len(text)+len(g)))
			b.ends = append(b.ends, uint32(len(b.ords)))
		}
	}
	all, from := string(text), uint32(0)
	b.grams = make([]string, len(cut))
	for k, to := range cut {
		b.grams[k], from = all[from:to], to
	}
	return b
}

// maxFanIn is the most ranges merge joins at once. Commit's tiering joins
// a few; a group of thousands of one-document commits, merged at once,
// would cost a comparison per commit for every merged gram.
const maxFanIn = 8
