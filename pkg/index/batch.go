package index

import "sort"

// Batch is one commit's additions, inverted: the documents in add order
// and, per distinct gram in ascending order, the run of documents holding
// it. It is the one shape additions take past gram extraction — ApplyBatch
// appends its runs to the posting lists, Writer.Append and WriteSnapshot
// store it as it stands, Load reads it back — so a commit is inverted once,
// by whoever extracted its entries, outside every lock.
type Batch struct {
	ids   []string // the documents; a document's local ordinal is its position
	flags []byte   // aligned with ids: flagOverflow | flagShort
	grams []string // ascending, distinct
	// lists is aligned with grams: ascending local ordinals and their
	// bounds, never empty, never naming an overflow document.
	lists []postings
}

// Invert builds the Batch of adds. An overflow entry contributes its ID
// and flags only; a gram an entry lists twice is kept once, at the larger
// bound.
func Invert(adds []Entry) *Batch {
	b := &Batch{ids: make([]string, len(adds)), flags: make([]byte, len(adds))}
	// Hashing a gram is what inverting costs, so it is done once per posting:
	// the first pass numbers the distinct grams as it meets them, counts
	// their postings, and notes each posting's gram number in of.
	type run struct{ n, at int } // postings counted; dictionary position
	var runs []run
	var of []int32
	number := make(map[string]int32)
	for i, e := range adds {
		b.ids[i] = e.ID
		if e.Overflow {
			b.flags[i] = flagOverflow
			continue
		}
		if e.Short {
			b.flags[i] = flagShort
		}
		for _, g := range e.Grams {
			r, met := number[g]
			if !met {
				r = int32(len(runs))
				number[g] = r
				runs = append(runs, run{})
			}
			runs[r].n++
			of = append(of, r)
		}
	}
	grams := make([]string, 0, len(number))
	for g := range number {
		grams = append(grams, g)
	}
	sort.Strings(grams)
	b.grams = grams
	// The runs lie back to back in two flat arrays, each with exactly the
	// room its gram was counted to need.
	b.lists = make([]postings, len(grams))
	ords, bnds := make([]uint32, len(of)), make([]uint16, len(of))
	from := 0
	for k, g := range grams {
		r := &runs[number[g]]
		b.lists[k] = postings{ords[from : from : from+r.n], bnds[from : from : from+r.n]}
		r.at, from = k, from+r.n
	}
	next := 0
	for i, e := range adds {
		if e.Overflow {
			continue
		}
		for j := range e.Grams {
			l := &b.lists[runs[of[next]].at]
			next++
			if n := len(l.ords); n > 0 && l.ords[n-1] == uint32(i) {
				l.bnds[n-1] = max(l.bnds[n-1], e.Bound(j))
				continue
			}
			l.ords, l.bnds = append(l.ords, uint32(i)), append(l.bnds, e.Bound(j))
		}
	}
	return b
}
