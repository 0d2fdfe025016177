package index

import "slices"

// Lookup is a candidate question put to the index: a tree in which each
// node sets exactly one field. A query plan lowers itself to one Lookup
// and the index answers it whole (Candidates).
type Lookup struct {
	// Grams asks for the documents whose gram sets hold every one of these
	// grams.
	Grams []string
	// Patterns asks for the documents that may hold a string matching at
	// least one of these patterns, or a reading shorter than a gram, which
	// no gram describes. A pattern is a rune sequence at least q long in
	// which a negative rune is a wildcard standing for any one rune.
	Patterns [][]rune
	// And asks for the documents every child admits. A child the index
	// cannot answer admits every document and drops out.
	And []Lookup
	// Or asks for the documents some child admits; one child the index
	// cannot answer leaves the whole node unanswerable.
	Or []Lookup
}

// Candidates answers l: duplicate-free and in no particular order, the IDs
// of the live documents l admits, plus every overflow document, and
// aligned with them an admissible upper bound on the probability that a
// retained reading of the document satisfies l:
//
//   - Grams: the min over the grams of the per-(doc, gram) bound;
//   - Patterns: min(1, Σ_pattern min_window min(1, Σ_gram bound(doc, gram)))
//     — a union bound over patterns and over the dictionary grams matching
//     one q-rune window, the min over a pattern's windows because a match
//     needs them all — and 1 for a document with a short reading;
//   - And: the min over the children that answered;
//   - Or: the sum of the children's bounds, capped at 1;
//   - an overflow document: the vacuous 1, whatever l asks.
//
// This is the index half of the planner's no-false-negative contract: a
// live document absent from the result provably has no retained reading
// satisfying l. grams is the number of dictionary grams the Patterns nodes
// that answered expanded their wildcards to, and live the number of live
// documents the index held as it answered — read under the same lock, so
// it counts every ID returned. ok is false — the caller must not prune —
// when the root cannot be answered: a node with no field set, a pattern
// with no window holding a literal rune (it constrains nothing), a
// Patterns node whose expansion would exceed maxWildProbes, an And none of
// whose children answered, an Or one of whose children did not.
//
// The whole tree is evaluated on document ordinals under one read lock,
// and on the stored 16-bit bounds: sums and mins of integers are exact, so
// the result does not depend on the order windows expand, children are
// listed or intersections are scheduled in, and it is the same for an index
// that wrote its log and one that loaded it. The bounds become float64
// once, in materialize.
func (ix *Index) Candidates(l Lookup) (ids []string, bounds []float64, grams, live int, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	e := evaluator{ix: ix}
	acc, ok := e.eval(l)
	if !ok {
		return nil, nil, e.grams, len(ix.ord), false
	}
	ids, bounds = ix.materialize(acc)
	return ids, bounds, e.grams, len(ix.ord), true
}

// CandidatesWithBounds is Candidates for a single Grams node.
//
// Deprecated: call Candidates. Kept for bench/trace.go, and goes with the
// benchmark PR that re-points it.
func (ix *Index) CandidatesWithBounds(grams []string) ([]string, []float64, bool) {
	ids, bounds, _, _, ok := ix.Candidates(Lookup{Grams: grams})
	return ids, bounds, ok
}

// materialize is the one place a lookup leaves ordinal space: it writes
// out acc's live document IDs with their bounds in ordinal order — base
// part, then delta part, then every overflow document at bound 1.
// Nothing is sorted: the caller orders the candidates only as far as it
// reads them. A live document owns exactly one ordinal, which sits in
// always or in posting lists, never both — so no node of a Lookup ever
// sees an overflow document, and since min and the capped sum of 1s are
// both 1, joining them once here equals admitting them at every leaf.
// Callers hold ix.mu.
func (ix *Index) materialize(acc parts) ([]string, []float64) {
	n := len(acc[0].ords) + len(acc[1].ords) + len(ix.always)
	ids, bnds := make([]string, 0, n), make([]float64, 0, n)
	for _, part := range acc {
		for k, o := range part.ords {
			if id := ix.ids[o]; id != "" {
				ids, bnds = append(ids, id), append(bnds, Dequantize(part.bnds[k]))
			}
		}
	}
	over := make([]uint32, 0, len(ix.always))
	for o := range ix.always {
		over = append(over, o)
	}
	slices.Sort(over)
	for _, o := range over {
		ids, bnds = append(ids, ix.ids[o]), append(bnds, 1)
	}
	return ids, bnds
}

// evaluator carries one Candidates call's state down the Lookup tree.
// Nodes produce postings that may include dead ordinals; materialize
// drops them once, at the end. Callers hold ix.mu.
type evaluator struct {
	ix    *Index
	grams int // dictionary grams the Patterns nodes that answered read
}

func (e *evaluator) eval(l Lookup) (parts, bool) {
	switch {
	case len(l.Grams) > 0:
		return intersectParts(e.lists(newPartLists(len(l.Grams)), l.Grams)), true
	case len(l.Patterns) > 0:
		return e.patterns(l.Patterns)
	case len(l.And) > 0:
		// One rarest-first intersection per part over everything the
		// children require: a Grams child contributes its posting lists
		// unmerged, any other child its evaluated postings.
		n := 0
		for _, kid := range l.And {
			n += max(1, len(kid.Grams))
		}
		all := newPartLists(n)
		for _, kid := range l.And {
			if len(kid.Grams) > 0 {
				all = e.lists(all, kid.Grams)
			} else if p, ok := e.eval(kid); ok {
				all.push(p)
			}
		}
		if len(all[0]) == 0 {
			return parts{}, false
		}
		return intersectParts(all), true
	case len(l.Or) > 0:
		total := e.ix.getAccum()
		for _, kid := range l.Or {
			p, ok := e.eval(kid)
			if !ok {
				return parts{}, false // total, part-filled, is dropped
			}
			total.add(p)
		}
		acc := total.drain(e.ix.nbase)
		e.ix.accums.Put(total)
		return acc, true
	}
	return parts{}, false
}

// partLists is the lists an intersection joins, part by part.
type partLists [2][]postings

func newPartLists(n int) partLists {
	return partLists{make([]postings, 0, n), make([]postings, 0, n)}
}

func (ls *partLists) push(p parts) {
	ls[0], ls[1] = append(ls[0], p[0]), append(ls[1], p[1])
}

// lists appends the posting list of each of grams to into; a gram the
// dictionary lacks has the empty list.
func (e *evaluator) lists(into partLists, grams []string) partLists {
	for _, g := range grams {
		var p parts
		if s, ok := e.ix.dict[g]; ok {
			p = e.ix.runs(s)
		}
		into.push(p)
	}
	return into
}

// intersectParts intersects each part of ls on its own.
func intersectParts(ls partLists) parts {
	return parts{intersectAll(ls[0]), intersectAll(ls[1])}
}

// intersectAll intersects lists, which it reorders, rarest-first so the
// working set only shrinks, carrying the min bound through each merge.
func intersectAll(lists []postings) postings {
	for _, l := range lists {
		if len(l.ords) == 0 {
			return postings{} // nothing to intersect: skip the sort
		}
	}
	slices.SortFunc(lists, func(a, b postings) int { return len(a.ords) - len(b.ords) })
	acc := lists[0]
	for _, next := range lists[1:] {
		if len(acc.ords) == 0 {
			break
		}
		acc = intersect(acc, next)
	}
	return acc
}
