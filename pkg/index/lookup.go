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
// satisfying l. grams is the number of distinct dictionary grams the
// Patterns nodes that answered expanded their wildcards to, and live the
// number of live documents of the version it answered from, so it counts
// every ID returned. ok is false — the caller must not prune — when the
// root cannot be answered: a node with no field set, a pattern with no
// window holding a literal rune (it constrains nothing), a Patterns node
// whose expansion would exceed maxWildProbes, an And none of whose
// children answered, an Or one of whose children did not.
//
// The whole tree is evaluated on the one version Candidates loads, part
// by part — each part answers it in its own ordinals — and on the stored
// 16-bit bounds: sums and mins of integers are exact, so the result does
// not depend on the order windows expand, children are listed or
// intersections are scheduled in, nor on how the version's documents are
// split into parts, and it is the same for an index that wrote its log
// and one that loaded it. The bounds become float64 once, as the IDs are
// written out.
func (ix *Index) Candidates(l Lookup) (ids []string, bounds []float64, grams, live int, ok bool) {
	v := ix.cur.Load()
	parts := v.parts
	if len(parts) == 0 {
		parts = []part{newPart(&Batch{}, 0)} // to learn whether l can be answered at all
	}
	e := evaluator{ix: ix, v: v, parts: parts}
	accs := make([]postings, len(parts))
	n := 0
	for i := range parts {
		e.i, e.p, e.node, e.window = i, &parts[i], 0, 0
		if accs[i], ok = e.eval(l); !ok {
			return nil, nil, e.grams, v.live, false
		}
		n += len(accs[i].ords)
	}
	// A live document sits in runs or among the overflow documents, never
	// both — so no node of a Lookup ever sees an overflow document — and
	// since min and the capped sum of 1s are both 1, joining them once
	// here equals admitting them at every leaf. Nothing is sorted: the
	// caller orders the candidates only as far as it reads them.
	ids, bounds = make([]string, 0, n), make([]float64, 0, n)
	for i, acc := range accs {
		p := &parts[i]
		for k, o := range acc.ords {
			if !v.isDead(p.first + o) {
				ids, bounds = append(ids, p.ids[o]), append(bounds, Dequantize(acc.bnds[k]))
			}
		}
	}
	for _, p := range parts {
		for _, o := range p.over {
			if !v.isDead(p.first + o) {
				ids, bounds = append(ids, p.ids[o]), append(bounds, 1)
			}
		}
	}
	return ids, bounds, e.grams, v.live, true
}

// CandidatesWithBounds is Candidates for a single Grams node.
//
// Deprecated: call Candidates. Kept for bench/trace.go, and goes with the
// benchmark PR that re-points it.
func (ix *Index) CandidatesWithBounds(grams []string) ([]string, []float64, bool) {
	ids, bounds, _, _, ok := ix.Candidates(Lookup{Grams: grams})
	return ids, bounds, ok
}

// evaluator carries one Candidates call's state down the Lookup tree, in
// one part at a time. Nodes produce postings, in the part's ordinals,
// that may include dead ones; Candidates drops them once, at the end.
type evaluator struct {
	ix    *Index
	v     *version
	parts []part // the parts answered, in order
	i     int    // the part being answered
	p     *part  // and a pointer to it
	grams int    // dictionary grams the Patterns nodes that answered read
	// The tree visits its intersections and wildcard windows in the same
	// order in every part. orders holds the order the first part took the
	// lists of each intersection in, and matches each part's runs of the
	// grams each window expanded to; node and window are the next ones'.
	orders       [][]int
	matches      [][][]postings
	node, window int
}

func (e *evaluator) eval(l Lookup) (postings, bool) {
	switch {
	case len(l.Grams) > 0:
		return e.intersect(e.lists(make([]postings, 0, len(l.Grams)), l.Grams)), true
	case len(l.Patterns) > 0:
		return e.patterns(l.Patterns)
	case len(l.And) > 0:
		// One intersection over everything the children require: a Grams
		// child contributes its posting lists unmerged, any other child
		// its evaluated postings.
		n := 0
		for _, kid := range l.And {
			n += max(1, len(kid.Grams))
		}
		all, answered := make([]postings, 0, n), false
		for _, kid := range l.And {
			if len(kid.Grams) > 0 {
				all, answered = e.lists(all, kid.Grams), true
			} else if p, ok := e.eval(kid); ok {
				all, answered = append(all, p), true
			}
		}
		if !answered {
			return postings{}, false
		}
		return e.intersect(all), true
	case len(l.Or) > 0:
		total := e.getAccum()
		for _, kid := range l.Or {
			p, ok := e.eval(kid)
			if !ok {
				return postings{}, false // total, part-filled, is dropped
			}
			total.add(p)
		}
		acc := total.drain()
		e.ix.accums.Put(total)
		return acc, true
	}
	return postings{}, false
}

// lists appends the part's run of each of grams to into, the empty list
// for a gram it lacks. Past the first part, whose lists set the order of
// each intersection, an empty list empties the intersection it is in, so
// lists stops at one, and does nothing after one.
func (e *evaluator) lists(into []postings, grams []string) []postings {
	for _, g := range grams {
		if e.i > 0 && len(into) > 0 && len(into[len(into)-1].ords) == 0 {
			break
		}
		into = append(into, e.p.find(g))
	}
	return into
}

// intersect intersects lists, carrying the min bound through each step.
// The first part, the largest, sets the order in which every part takes
// the lists of each node: rarest first, so that the working set only
// shrinks.
func (e *evaluator) intersect(lists []postings) postings {
	if e.node == len(e.orders) {
		order := make([]int, len(lists))
		for j := range order {
			order[j] = j
		}
		slices.SortFunc(order, func(a, b int) int { return len(lists[a].ords) - len(lists[b].ords) })
		e.orders = append(e.orders, order)
	}
	order := e.orders[e.node]
	e.node++
	for _, l := range lists {
		if len(l.ords) == 0 {
			return postings{} // nothing to intersect
		}
	}
	acc := lists[order[0]]
	for _, o := range order[1:] {
		if len(acc.ords) == 0 {
			break
		}
		acc = intersect(acc, lists[o])
	}
	return acc
}
