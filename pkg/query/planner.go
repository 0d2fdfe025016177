package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/pkg/index"
)

// This file is the planning half of indexed execution. A compiled Query
// is a boolean formula over term automata; Query.Plan extracts from it
// the gram-level evidence every match MUST leave in an inverted q-gram
// index. The plan is that evidence as one index.Lookup, built in a single
// pass over the formula, whose answer is the candidate document set the
// engine then restricts its scan to; the plan's rendering, count of named
// grams and kind (prunes, scans, matches nothing) are fixed in the same
// pass, and it renders each leaf in Query.String's form.
//
// The contract is strictly no-false-negative: a document outside the
// candidate set provably has match probability zero, so Search results
// are byte-identical with planning on, off, or unavailable. To keep that
// guarantee the extraction is conservative wherever the index cannot
// help:
//
//   - a substring or keyword leaf of at least gramSize runes requires
//     every q-gram of its term (a reading containing the term contains
//     them all), so its candidates are the intersection of those postings;
//   - a fuzzy leaf of at least gramSize runes too short for the
//     pigeonhole lowering is planned through the gram dictionary: the
//     patterns a match must leave in a reading, with wildcards where the
//     match does not fix the rune (see buildWildLeaf);
//   - a leaf shorter than gramSize scans: no gram holds its whole term
//     (padding it with wildcards at every offset would plan it the same
//     way; ROADMAP item 1(b) says why that waits);
//   - AND intersects its children's candidates (children that cannot
//     prune simply drop out of the intersection);
//   - OR unions its children's and can only prune if every child can;
//   - NOT cannot prune: a document matching the negated branch still has
//     nonzero probability of not matching it, so negations always scan.

// CandidateSet is a set of document IDs that may match a query; documents
// outside the set are guaranteed non-matches. A nil *CandidateSet means
// "no pruning information: every document is a candidate", which is why
// the methods below are defined on the nil receiver.
//
// Each candidate carries an admissible upper bound on that document's
// match probability (see Ranked): what the posting source reported, or the
// vacuous 1, which is always admissible.
//
// The set keeps the candidates as the posting source returned them, in
// no particular order, and puts them in order only as far as a reader
// asks: IDs sorts a copy by ID, Ranked sorts a copy by bound, and a top-k
// run orders them one round at a time (ranking). The stored candidates are
// never modified, so a set may be shared between goroutines.
type CandidateSet struct {
	// ids is duplicate-free, in no particular order.
	ids []string
	// bounds is aligned with ids: bounds[i] is an upper bound in [0, 1] on
	// ids[i]'s match probability.
	bounds []float64
	// live is the number of live documents the posting source held as it
	// answered, which every ID of ids was one of; 0 when it is not known.
	live int
}

// NewCandidateSet builds a set from ids, in any order, duplicates allowed,
// each at the vacuous bound 1.
func NewCandidateSet(ids ...string) *CandidateSet {
	sorted := slices.Compact(slices.Sorted(slices.Values(ids)))
	return &CandidateSet{ids: sorted, bounds: slices.Repeat([]float64{1}, len(sorted))}
}

// Len returns the number of candidates, or -1 for the nil
// (everything-is-a-candidate) set.
func (c *CandidateSet) Len() int {
	if c == nil {
		return -1
	}
	return len(c.ids)
}

// IDs returns a fresh copy of the candidates in ascending order; nil for
// the nil set.
func (c *CandidateSet) IDs() []string {
	if c == nil {
		return nil
	}
	return slices.Sorted(slices.Values(c.ids))
}

// BoundedCandidate pairs a candidate document ID with its probability
// upper bound.
type BoundedCandidate struct {
	ID    string
	Bound float64
}

// Ranked returns the candidates ordered best-bound-first (descending
// bound, ties by ascending ID — the order a top-k run walks them in, see
// ranking). Nil for the nil set.
func (c *CandidateSet) Ranked() []BoundedCandidate {
	if c == nil {
		return nil
	}
	out := make([]BoundedCandidate, len(c.ids))
	for i, id := range c.ids {
		out[i] = BoundedCandidate{ID: id, Bound: c.bounds[i]}
	}
	slices.SortFunc(out, compareBounded)
	return out
}

// compareBounded is the best-bound-first order: descending bound, ties by
// ascending ID. Over a duplicate-free set it is total.
func compareBounded(a, b BoundedCandidate) int {
	//lint:allow floateq exact equality picks the deterministic ID tiebreak; either branch is admissible
	if a.Bound != b.Bound {
		if a.Bound > b.Bound {
			return -1
		}
		return 1
	}
	return strings.Compare(a.ID, b.ID)
}

// PostingSource answers the planner's lookup — the seam at which a test
// substitutes a fake for the inverted index (index.Index satisfies it; the
// index package is imported for the Lookup type alone). Implementations
// must honor the same no-false-negative contract: every live document
// whose retained readings could satisfy the lookup must appear in the
// result.
type PostingSource interface {
	// Candidates answers l as index.Index.Candidates documents:
	// duplicate-free IDs in no particular order, aligned admissible bounds,
	// the dictionary grams the wildcard patterns expanded to, the number of
	// live documents the source held as it answered, and ok=false when the
	// source cannot answer and the caller must not prune. A source without
	// bound information returns nil bounds, which reads as 1 everywhere — it
	// still plans, just without early-termination fuel; one that does not
	// count its documents returns live 0, and the engine then reads the
	// store's count (SearchStats.DocsTotal). The caller takes both slices
	// over.
	Candidates(l index.Lookup) (ids []string, bounds []float64, grams, live int, ok bool)
}

// Plan is the pruning strategy extracted from a Query at a given gram
// size: the one index.Lookup whose answer is the candidate set, with what
// it does, its rendering and the grams it names, all fixed when the plan
// is built. A Plan is immutable, independent of any particular index, and
// may be reused across Candidates calls and goroutines — which is what
// lets its Query keep it (Query.Plan).
type Plan struct {
	lookup index.Lookup
	kind   planKind
	text   string
	// grams is the number of distinct grams lookup names.
	grams int
	// gramSize is the gram size the plan was built for.
	gramSize int
}

// planKind is what a plan, or a branch of one, asks of the index.
type planKind int

const (
	// prunes: the lookup's answer is the candidate set.
	prunes planKind = iota
	// scans: no pruning, every document is a candidate.
	scans
	// matchesNothing: the constant-false plan, no document can match.
	matchesNothing
)

// Plan extracts the conservatively-required gram sets from q. gramSize
// must match the target index's; a gramSize < 1 yields a plan that never
// prunes. A nil or zero-value q matches nothing, and at a gramSize ≥ 1
// plans to match nothing.
//
// The plan is built once per compiled query and gram size: q keeps the
// last plan it built and returns that same *Plan to every later call at
// its gram size, from any goroutine, so a cached Query plans for free.
// Two goroutines planning q for the first time at once may both build;
// their plans are equal, and the one stored last is kept.
func (q *Query) Plan(gramSize int) *Plan {
	if q == nil {
		q = &Query{}
	}
	if p := q.plan.Load(); p != nil && p.gramSize == gramSize {
		return p
	}
	p := scanPlan("planning disabled")
	if gramSize >= 1 {
		p = buildPlan(exprOf(q), q.leaves, gramSize)
	}
	p.grams = countGrams(p.lookup, map[string]bool{})
	p.gramSize = gramSize
	q.plan.Store(&p)
	return &p
}

// Candidates evaluates the plan against src. A nil result means the plan
// cannot prune and every document must be scanned; a non-nil result —
// possibly empty — restricts the scan to its members.
func (p *Plan) Candidates(src PostingSource) *CandidateSet {
	set, _ := p.Lookup(src)
	return set
}

// Lookup is Candidates plus the number of dictionary grams consulted to
// build the set: NumGrams, and for every wildcard leaf the grams src
// expanded its patterns to — a count that depends on the index, not just
// on the plan. The whole plan is one lookup: src evaluates it and hands
// back the finished set, whose every bound that the engine's slack widens
// to 1 or more is raised to exactly 1 — still admissible, and what lets
// top-k cut ties at probability 1 (see final).
func (p *Plan) Lookup(src PostingSource) (*CandidateSet, int) {
	switch p.kind {
	case scans:
		return nil, 0
	case matchesNothing:
		return NewCandidateSet(), 0
	}
	ids, bounds, expanded, live, ok := src.Candidates(p.lookup)
	if !ok {
		return nil, p.grams + expanded
	}
	if bounds == nil {
		bounds = slices.Repeat([]float64{1}, len(ids))
	}
	for i, b := range bounds {
		if b*boundSlack >= 1 {
			bounds[i] = 1
		}
	}
	return &CandidateSet{ids: ids, bounds: bounds, live: live}, p.grams + expanded
}

// Prunable reports whether the plan can restrict a scan at all, given a
// cooperative posting source: buildPlan folds every branch that cannot
// into a scanning root.
func (p *Plan) Prunable() bool { return p.kind != scans }

// NumGrams returns the number of distinct grams the plan names; wildcard
// leaves name none (see Lookup).
func (p *Plan) NumGrams() int { return p.grams }

// String renders the plan in the same lisp-ish shape as Query.String,
// marking each branch as gram-pruned or scan-forced, e.g.
// and(grams(substr("foo") ×3), scan(negation cannot prune)).
func (p *Plan) String() string { return p.text }

// countGrams adds the grams l names to seen and returns how many distinct
// ones seen holds.
func countGrams(l index.Lookup, seen map[string]bool) int {
	for _, g := range l.Grams {
		seen[g] = true
	}
	for _, kid := range slices.Concat(l.And, l.Or) {
		countGrams(kid, seen)
	}
	return len(seen)
}

func scanPlan(reason string) Plan { return Plan{kind: scans, text: "scan(" + reason + ")"} }

var nonePlan = Plan{kind: matchesNothing, text: "none"}

// gramsPlan asks for the documents holding every q-gram of lf's term.
func gramsPlan(lf leaf, gramSize int) Plan {
	grams := termGrams(lf.term, gramSize)
	return Plan{lookup: index.Lookup{Grams: grams}, text: fmt.Sprintf("grams(%s ×%d)", lf.render(), len(grams))}
}

// joinPlans joins prunable branches under and/or; one stands alone.
func joinPlans(op string, kids []Plan) Plan {
	if len(kids) == 1 {
		return kids[0]
	}
	lookups := make([]index.Lookup, len(kids))
	texts := make([]string, len(kids))
	for i, kid := range kids {
		lookups[i], texts[i] = kid.lookup, kid.text
	}
	p := Plan{text: op + "(" + strings.Join(texts, ", ") + ")"}
	if op == "and" {
		p.lookup.And = lookups
	} else {
		p.lookup.Or = lookups
	}
	return p
}

// buildPlan lowers an expr tree into the plan of its lookup, folding away
// branches that cannot influence pruning.
func buildPlan(e expr, leaves []leaf, gramSize int) Plan {
	switch t := e.(type) {
	case constExpr:
		if bool(t) {
			return scanPlan("matches every document")
		}
		return nonePlan
	case leafExpr:
		// The term's length picks the lowering. A term with no gram of its
		// own scans. Otherwise the shortest contiguous piece a match is sure
		// to leave intact — the whole term, or a fuzzy leaf's pigeonhole
		// piece — either carries a gram or the leaf, fuzzy then, goes
		// through the gram dictionary.
		lf := leaves[t]
		switch runes := []rune(lf.term); {
		case len(runes) < gramSize:
			return scanPlan(fmt.Sprintf("term %q shorter than gram size %d", lf.term, gramSize))
		case len(runes)/(lf.dist+1) < gramSize:
			return buildWildLeaf(lf, runes, gramSize)
		case lf.mode == ModeFuzzy:
			return buildFuzzyLeaf(lf, runes, gramSize)
		default:
			return gramsPlan(lf, gramSize)
		}
	case notExpr:
		// P(not q) > 0 for any document with P(q) < 1; the index records
		// possible readings, not certain ones, so negation never prunes.
		return scanPlan("negation cannot prune")
	case andExpr:
		kids := make([]Plan, 0, len(t))
		for _, kid := range t {
			switch k := buildPlan(kid, leaves, gramSize); k.kind {
			case matchesNothing:
				return k // a false conjunct kills the whole branch
			case scans:
				// an unprunable conjunct just drops out
			default:
				kids = append(kids, k)
			}
		}
		if len(kids) == 0 {
			return scanPlan("no conjunct can prune")
		}
		return joinPlans("and", kids)
	case orExpr:
		kids := make([]Plan, 0, len(t))
		for _, kid := range t {
			switch k := buildPlan(kid, leaves, gramSize); k.kind {
			case scans:
				return k // one unprunable disjunct admits any document
			case matchesNothing:
				// a false disjunct contributes nothing
			default:
				kids = append(kids, k)
			}
		}
		if len(kids) == 0 {
			return nonePlan
		}
		return joinPlans("or", kids)
	default:
		return scanPlan("unknown expression")
	}
}

// buildFuzzyLeaf lowers a fuzzy leaf by the pigeonhole argument: split
// the term's m runes into dist+1 contiguous near-equal pieces. Any
// occurrence within dist edits leaves at least one piece untouched —
// each substitution or deletion lands inside at most one piece, and an
// insertion at a piece boundary lands inside none — and that surviving
// piece appears contiguously in the matched window, so the document must
// contain every one of its q-grams. The union over pieces of "has all of
// this piece's grams" is therefore a sound superset of the matches. The
// lowering needs every piece to carry gram evidence, i.e. the shortest
// piece — floor(m/(dist+1)) runes — to be at least gramSize, which
// buildPlan has checked; shorter terms go to buildWildLeaf.
func buildFuzzyLeaf(lf leaf, runes []rune, gramSize int) Plan {
	kids := make([]Plan, 0, lf.dist+1)
	for _, piece := range splitPieces(runes, lf.dist+1) {
		kids = append(kids, gramsPlan(leaf{term: piece, mode: ModeFuzzy, dist: lf.dist}, gramSize))
	}
	return joinPlans("or", kids)
}

// maxWildPatterns caps the patterns of one wildcard leaf, and with them
// the dictionary expansions a lookup pays for; a leaf over it scans.
// Distance 1 stays under it up to 10 runes — every term too short for
// the pigeonhole at gram sizes up to 5 — and distance 2 never does: its
// patterns are many and match most of any corpus.
const maxWildPatterns = 32

// wildcard marks a pattern position that stands for any one rune.
const wildcard rune = -1

// buildWildLeaf lowers a fuzzy leaf whose match may leave no whole gram
// of the term in a reading: its pigeonhole pieces are shorter than
// gramSize. What a match does leave is a string matching one of a few
// patterns — the term under every choice of at most dist edits, with a
// wildcard at each substituted or inserted rune (see editPatterns). If
// the reading holding that string is at least gramSize runes long, each
// gramSize-rune window of the pattern (a pattern a deletion left shorter
// than gramSize is first padded with wildcards, at every offset) lies
// over a gram of the reading that matches it, so the document's gram set
// holds a matching gram for every window of some pattern; and if the
// reading is shorter, the index knows the document as one with such a
// reading. That is exactly the set an index.Lookup's Patterns asks for,
// so it is a sound superset of the matches.
func buildWildLeaf(lf leaf, runes []rune, gramSize int) Plan {
	patterns := editPatterns(runes, lf.dist)
	if patterns != nil {
		patterns = padPatterns(patterns, gramSize)
	}
	if patterns == nil {
		return scanPlan(fmt.Sprintf("fuzzy term %q at distance %d leaves pieces shorter than gram size %d", lf.term, lf.dist, gramSize))
	}
	return Plan{lookup: index.Lookup{Patterns: patterns}, text: fmt.Sprintf("wild(%s ×%d patterns)", lf.render(), len(patterns))}
}

// editPatterns returns patterns such that every string within dist edits
// of term matches at least one: term under each sequence of at most dist
// single-rune deletions, substitutions (the rune becomes a wildcard) and
// insertions (a wildcard appears), in generation order, less every
// pattern another one covers. nil means more than maxWildPatterns distinct
// edits.
func editPatterns(term []rune, dist int) [][]rune {
	var all [][]rune
	seen := map[string]bool{}
	add := func(p []rune) {
		// 0xFF occurs in no rune's UTF-8, so it keys the wildcard apart from
		// every literal.
		var key []byte
		for _, r := range p {
			if r == wildcard {
				key = append(key, 0xFF)
			} else {
				key = utf8.AppendRune(key, r)
			}
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			all = append(all, p)
		}
	}
	add(term)
	for level, from := 0, 0; level < dist; level++ {
		upto := len(all)
		for _, p := range all[from:upto] {
			for i := range p {
				add(slices.Delete(slices.Clone(p), i, i+1))
				sub := slices.Clone(p)
				sub[i] = wildcard
				add(sub)
			}
			for i := 0; i <= len(p); i++ {
				add(slices.Insert(slices.Clone(p), i, wildcard))
			}
			if len(all) > maxWildPatterns {
				return nil
			}
		}
		from = upto
	}
	// A string matching a covered pattern holds one matching its cover, so
	// the cover alone admits every document the covered pattern would. Two
	// distinct patterns never cover each other, so dropping every covered
	// one keeps a cover of each.
	var minimal [][]rune
	for i, p := range all {
		covered := false
		for j, c := range all {
			if covered = j != i && covers(c, p); covered {
				break
			}
		}
		if !covered {
			minimal = append(minimal, p)
		}
	}
	return minimal
}

// covers reports whether every string matching p contains one matching
// c: at some offset, each literal of c faces the same literal of p.
func covers(c, p []rune) bool {
next:
	for at := 0; at+len(c) <= len(p); at++ {
		for i, r := range c {
			if r != wildcard && r != p[at+i] {
				continue next
			}
		}
		return true
	}
	return false
}

// padPatterns brings every pattern shorter than q runes to q by adding
// wildcards around it, once per offset — a reading of at least q runes
// that holds the short match holds it inside some q-rune window. nil
// means more than maxWildPatterns results.
func padPatterns(patterns [][]rune, q int) [][]rune {
	var out [][]rune
	for _, p := range patterns {
		pad := slices.Repeat([]rune{wildcard}, max(0, q-len(p)))
		for lead := range len(pad) + 1 {
			out = append(out, slices.Concat(pad[:lead], p, pad[lead:]))
		}
		if len(out) > maxWildPatterns {
			return nil
		}
	}
	return out
}

// splitPieces splits runes into n contiguous pieces whose lengths differ
// by at most one; the shortest is floor(len/n) runes.
func splitPieces(runes []rune, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, string(runes[i*len(runes)/n:(i+1)*len(runes)/n]))
	}
	return out
}

// termGrams returns every q-rune window of term, deduplicated and sorted;
// empty when the term is shorter than q runes.
func termGrams(term string, q int) []string {
	runes := []rune(term)
	if len(runes) < q {
		return nil
	}
	set := make(map[string]struct{}, len(runes)-q+1)
	for i := 0; i+q <= len(runes); i++ {
		set[string(runes[i:i+q])] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}
