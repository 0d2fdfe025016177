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
// satisfying l. grams counts, over every window of the Patterns nodes
// that answered, the dictionary grams the window matched — a gram two
// windows match counts twice — and live is the number of live documents
// of the version it answered from, so it counts every ID returned. ok is
// false — the caller must not prune — when the root cannot be answered: a
// node with no field set, a pattern with no window holding a literal rune
// (it constrains nothing), a Patterns node whose expansion would exceed
// maxWildProbes, an And none of whose children answered, an Or one of
// whose children did not.
//
// The whole tree is evaluated in one pass on the one version Candidates
// loads — every node answers for all its parts at once, each in its own
// ordinals, and the root's parts are joined at the end; a Grams or And
// node is one intersection that reads each child's rarest list first and
// stops a part, finding no more of its grams, once it is empty — and on the
// stored 16-bit bounds: sums and mins of integers are exact, so the
// result does not depend on the order windows expand, children are
// listed or intersections are scheduled in, nor on how the version's
// documents are split into parts, and it is the same for an index that
// wrote its log and one that loaded it. The bounds become float64 once,
// as the IDs are written out.
func (ix *Index) Candidates(l Lookup) (ids []string, bounds []float64, grams, live int, ok bool) {
	v := ix.cur.Load()
	e := evaluator{ix: ix, v: v}
	acc, ok := e.eval(l)
	if !ok {
		return nil, nil, e.grams, v.live, false
	}
	n := 0
	for _, a := range acc {
		n += len(a.ords)
	}
	// A live document sits in runs or among the overflow documents, never
	// both — so no node of a Lookup ever sees an overflow document — and
	// since min and the capped sum of 1s are both 1, joining them once
	// here equals admitting them at every leaf. Nothing is sorted: the
	// caller orders the candidates only as far as it reads them.
	ids, bounds = make([]string, 0, n), make([]float64, 0, n)
	for i, a := range acc {
		p := &v.parts[i]
		for k, o := range a.ords {
			if !v.isDead(p.first + o) {
				ids, bounds = append(ids, p.ids[o]), append(bounds, Dequantize(a.bnds[k]))
			}
		}
	}
	for _, p := range v.parts {
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

// evaluator carries one Candidates call's state down the Lookup tree.
// Every node answers for all the parts of the version at once, as parts
// that may include dead ordinals; Candidates drops them once, at the end.
type evaluator struct {
	ix    *Index
	v     *version
	grams int // dictionary grams the Patterns nodes that answered read
}

func (e *evaluator) eval(l Lookup) (parts, bool) {
	switch {
	case len(l.Grams) > 0:
		return e.and([]Lookup{l})
	case len(l.Patterns) > 0:
		return e.patterns(l.Patterns)
	case len(l.And) > 0:
		return e.and(l.And)
	case len(l.Or) > 0:
		kids := make([]parts, len(l.Or))
		for k, kid := range l.Or {
			var ok bool
			if kids[k], ok = e.eval(kid); !ok {
				return nil, false
			}
		}
		out := make(parts, len(e.v.parts))
		for i := range out {
			total := e.getAccum(i)
			for _, kid := range kids {
				total.add(kid[i])
			}
			out[i] = total.drain()
			e.ix.accums.Put(total)
		}
		return out, true
	}
	return nil, false
}

// and evaluates the And of kids in one intersection over everything they
// require: a Grams child contributes its posting lists unmerged, any
// other child its answer. A child the index cannot answer drops out; ok
// is false if none is left.
func (e *evaluator) and(kids []Lookup) (parts, bool) {
	var small [24]list // on the stack: three 8-rune words read 18
	all := small[:0]
	for _, kid := range kids {
		if len(kid.Grams) > 0 {
			all = e.lists(all, kid.Grams)
		} else if p, ok := e.eval(kid); ok {
			l := list{kid: p, rarest: true}
			if len(p) > 0 {
				l.head = p[0]
			}
			all = append(all, l)
		}
	}
	if len(all) == 0 {
		return nil, false
	}
	return e.intersect(all), true
}

// list is one list an intersection reads, in every part: the run of a
// gram, or a child node's answer.
type list struct {
	gram string
	kid  parts // the child's answer; nil for a gram
	// head is the list in the first part, the largest, whose lengths order
	// the intersection.
	head postings
	// rarest marks the shortest list in the first part of an And child, or
	// of a Grams node on its own.
	rarest bool
}

// in returns l in part i. A gram is found in a part after the first only
// when the intersection reaches it there.
func (e *evaluator) in(l *list, i int) postings {
	switch {
	case i == 0:
		return l.head
	case l.kid != nil:
		return l.kid[i]
	}
	return e.v.parts[i].find(l.gram)
}

// lists appends a list for each of grams to into, with its run in the
// first part, and marks the rarest of them.
func (e *evaluator) lists(into []list, grams []string) []list {
	rarest := len(into)
	for _, g := range grams {
		l := list{gram: g}
		if len(e.v.parts) > 0 {
			l.head = e.v.parts[0].find(g)
		}
		into = append(into, l)
		if len(l.head.ords) < len(into[rarest].head.ords) {
			rarest = len(into) - 1
		}
	}
	into[rarest].rarest = true
	return into
}

// intersect intersects lists part by part, carrying the min bound through
// each step. Every part takes the lists in one order, set by their
// lengths in the first part: the rarest list of each And child first,
// shortest first, then all the others by length. A word's grams nearly
// always occur together, so the running set falls to the size of the
// conjunction within one list per word, and every later list only
// confirms it. A part stops, finding no more grams, once its running set
// is empty. Each step shrinks the running set into one of two buffers of
// the part's accum, in turn, and the part's answer is copied out of them
// once, at the end.
func (e *evaluator) intersect(lists []list) parts {
	out := make(parts, len(e.v.parts))
	if len(out) == 0 {
		return out
	}
	// The lists stay put and their indexes are sorted: a list holds
	// pointers, and moving one costs write barriers while the GC marks.
	var small [24]int
	order := small[:0]
	for k := range lists {
		order = append(order, k)
	}
	slices.SortFunc(order, func(a, b int) int {
		la, lb := &lists[a], &lists[b]
		if la.rarest != lb.rarest {
			if la.rarest {
				return -1
			}
			return 1
		}
		return len(la.head.ords) - len(lb.head.ords)
	})
	for i := range out {
		acc := e.in(&lists[order[0]], i)
		if len(order) == 1 || len(acc.ords) == 0 {
			out[i] = acc // a shared run, or nothing
			continue
		}
		a := e.getAccum(i)
		for s, k := range order[1:] {
			if len(acc.ords) == 0 {
				break
			}
			acc = a.intersect(acc, e.in(&lists[k], i), a.bufs[s%2])
			a.bufs[s%2] = acc
		}
		if len(acc.ords) > 0 {
			out[i] = postings{slices.Clone(acc.ords), slices.Clone(acc.bnds)}
		}
		e.ix.accums.Put(a)
	}
	return out
}
