package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/index"
)

// modelSet is the throwaway reference for the candidate algebra: a plain
// map from member to bound, in the index's 16-bit fixed point (the algebra
// is defined on the stored integers; index.Dequantize turns the result
// into the probability bound a CandidateSet reports).
type modelSet map[string]uint32

// vacuous is the bound 1.
var vacuous = uint32(index.Quantize(1))

func modelIntersect(a, b modelSet) modelSet {
	out := modelSet{}
	for id := range a {
		if _, ok := b[id]; ok {
			out[id] = min(a[id], b[id])
		}
	}
	return out
}

// modelUnion sums each member's bounds and caps once at the end.
func modelUnion(kids []modelSet) modelSet {
	out := modelSet{}
	for _, kid := range kids {
		for id, b := range kid {
			out[id] += b
		}
	}
	for id, b := range out {
		out[id] = min(vacuous, b)
	}
	return out
}

// checkAgainstModel compares every observable of got with the model:
// IDs() carries the membership, Ranked() each member's bound.
func checkAgainstModel(t *testing.T, what string, got *CandidateSet, want modelSet) {
	t.Helper()
	ids := got.IDs()
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("%s: IDs not ascending: %v", what, ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Fatalf("%s: duplicate ID %q in %v", what, ids[i], ids)
		}
	}
	if got.Len() != len(want) || len(ids) != len(want) {
		t.Fatalf("%s: Len %d / %d IDs %v, want %d", what, got.Len(), len(ids), ids, len(want))
	}
	for _, id := range ids { // with the lengths equal, this makes the memberships equal
		if _, member := want[id]; !member {
			t.Fatalf("%s: IDs has %q, which the model does not", what, id)
		}
	}
	ranked := got.Ranked()
	wantRanked := make([]BoundedCandidate, 0, len(want))
	for id, b := range want {
		wantRanked = append(wantRanked, BoundedCandidate{ID: id, Bound: index.Dequantize(uint16(b))})
	}
	sort.Slice(wantRanked, func(i, j int) bool {
		if wantRanked[i].Bound != wantRanked[j].Bound {
			return wantRanked[i].Bound > wantRanked[j].Bound
		}
		return wantRanked[i].ID < wantRanked[j].ID
	})
	if !reflect.DeepEqual(ranked, wantRanked) {
		t.Fatalf("%s: Ranked = %v, want %v", what, ranked, wantRanked)
	}
}

// algebraIndex builds a random 3-gram index over the runes a–d whose
// documents are plain, overflow, short, superseded (indexed twice) or
// deleted, with bounds that are sometimes the vacuous 1 so that sums must
// cap. One more document spreads 200 further runes over the alphabet: a
// window with two wildcards then costs 204² probes, over the budget of a
// Patterns node, while one wildcard stays cheap. live is the model's own
// record of what the index should hold: each live document's last entry.
func algebraIndex(rng *rand.Rand) (ix *index.Index, live map[string]index.Entry) {
	randomEntry := func(id string) index.Entry {
		e := index.Entry{ID: id, Overflow: rng.Intn(8) == 0, Short: rng.Intn(5) == 0}
		seen := map[string]bool{}
		for n := 1 + rng.Intn(12); n > 0; n-- {
			g := string([]rune{rune('a' + rng.Intn(4)), rune('a' + rng.Intn(4)), rune('a' + rng.Intn(4))})
			if seen[g] {
				continue
			}
			seen[g] = true
			b := rng.Float64()
			if rng.Intn(6) == 0 {
				b = 1
			}
			e.Grams, e.Bounds = append(e.Grams, g), append(e.Bounds, index.Quantize(b))
		}
		return e
	}
	ix, live = index.New(3), map[string]index.Entry{}
	add := func(e index.Entry) {
		ix.Apply([]index.Entry{e}, nil)
		live[e.ID] = e
	}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("d%02d", i)
		add(randomEntry(id))
		switch rng.Intn(5) {
		case 0:
			add(randomEntry(id))
		case 1:
			ix.Apply(nil, []string{id})
			delete(live, id)
		}
	}
	wide := index.Entry{ID: "wide"}
	for r := rune(0x4E00); r < 0x4E00+200; r += 2 {
		wide.Grams = append(wide.Grams, string([]rune{r, r + 1, 'a'}))
	}
	add(wide)
	return ix, live
}

// modelLookup evaluates l the way the planner used to, in string space:
// every leaf is a set of its own — which admits each overflow document at
// bound 1, and if it is a Patterns leaf each short one too — and And and
// Or fold their children's sets in child order. A Grams leaf is worked out
// from the live entries alone; a Patterns leaf asks the index, of whose
// answer only the documents that are neither overflow nor short are
// believed (pkg/index's own tests pin that sum). grams counts what the
// answered Patterns leaves report, an Or stopping at its first
// unanswerable child.
func modelLookup(ix *index.Index, live map[string]index.Entry, l index.Lookup, grams *int) (modelSet, bool) {
	switch {
	case l.And != nil:
		var acc modelSet
		for _, kid := range l.And {
			set, ok := modelLookup(ix, live, kid, grams)
			switch {
			case !ok:
			case acc == nil:
				acc = set
			default:
				acc = modelIntersect(acc, set)
			}
		}
		return acc, acc != nil
	case l.Or != nil:
		var kids []modelSet
		for _, kid := range l.Or {
			set, ok := modelLookup(ix, live, kid, grams)
			if !ok {
				return nil, false
			}
			kids = append(kids, set)
		}
		return modelUnion(kids), true
	}
	set := modelSet{}
	if l.Patterns != nil {
		a, ok := ix.Candidates(l)
		if !ok {
			return nil, false
		}
		*grams += a.Grams
		for k := range a.Len() {
			set[a.ID(k)] = uint32(a.Bound(k))
		}
	}
	for id, e := range live {
		switch {
		case e.Overflow || e.Short && l.Patterns != nil:
			set[id] = vacuous
		case l.Patterns == nil:
			b, holdsAll := vacuous, true
			for _, g := range l.Grams {
				at := slices.Index(e.Grams, g)
				if holdsAll = at >= 0; !holdsAll {
					break
				}
				b = min(b, uint32(e.Bounds[at]))
			}
			if holdsAll {
				set[id] = b
			}
		}
	}
	return set, true
}

// TestCandidateSetAlgebraMatchesMapModel is the property behind evaluating
// a whole plan inside the index: on random Lookup trees over a random
// index, the one ordinal-space evaluation — overflow documents joined once
// at the root, short ones inside each Patterns node, dead ordinals dropped
// at the end — returns what folding per-leaf lookups in string space
// returns: And is membership-AND at the min bound, Or membership-OR at the
// capped sum of bounds, bit for bit; an unanswerable child drops out of an
// And and refuses an Or.
func TestCandidateSetAlgebraMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	gram := func() string {
		return string([]rune{rune('a' + rng.Intn(4)), rune('a' + rng.Intn(4)), rune('a' + rng.Intn(4))})
	}
	grams := func() index.Lookup {
		l := index.Lookup{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			l.Grams = append(l.Grams, gram())
		}
		return l
	}
	patterns := func() index.Lookup {
		l := index.Lookup{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			p := []rune(gram() + gram()[:rng.Intn(2)])
			p[rng.Intn(len(p))] = wildcard
			l.Patterns = append(l.Patterns, p)
		}
		return l
	}
	refused := index.Lookup{Patterns: [][]rune{{'a', wildcard, wildcard}}}
	some := func(kid func() index.Lookup) []index.Lookup {
		kids := make([]index.Lookup, 2+rng.Intn(3))
		for i := range kids {
			kids[i] = kid()
		}
		return kids
	}
	var tree func(depth int) index.Lookup
	tree = func(depth int) index.Lookup {
		kid := func() index.Lookup { return tree(depth - 1) }
		switch pick := rng.Intn(10); {
		case pick == 0:
			return refused
		case depth == 0 || pick < 3:
			return grams()
		case pick < 5:
			return patterns()
		case pick < 8:
			return index.Lookup{And: some(kid)}
		default:
			return index.Lookup{Or: some(kid)}
		}
	}
	orOfGrams := func() index.Lookup { return index.Lookup{Or: some(grams)} }
	shapes := []struct {
		name    string
		draw    func() index.Lookup
		refuses bool
	}{
		{"arbitrary", func() index.Lookup { return tree(3) }, false},
		// What the planner emits: a fuzzy leaf's pigeonhole pieces, a
		// conjunction of them, a conjunction of literal and wildcard leaves.
		{"or of grams", orOfGrams, false},
		{"and of ors", func() index.Lookup { return index.Lookup{And: some(orOfGrams)} }, false},
		{"and of grams and patterns", func() index.Lookup { return index.Lookup{And: []index.Lookup{grams(), patterns(), grams()}} }, false},
		{"and around a refusal", func() index.Lookup { return index.Lookup{And: []index.Lookup{patterns(), refused, grams()}} }, false},
		{"and of refusals", func() index.Lookup { return index.Lookup{And: []index.Lookup{refused, refused}} }, true},
		{"or around a refusal", func() index.Lookup { return index.Lookup{Or: []index.Lookup{patterns(), refused, patterns()}} }, true},
	}
	for round := 0; round < 4; round++ {
		ix, live := algebraIndex(rng)
		for _, shape := range shapes {
			answered := 0
			for trial := 0; trial < 40; trial++ {
				l := shape.draw()
				what := fmt.Sprintf("%s, round %d trial %d: %+v", shape.name, round, trial, l)
				wantGrams := 0
				want, wantOK := modelLookup(ix, live, l, &wantGrams)
				a, ok := ix.Candidates(l)
				if ok != wantOK || a.Grams != wantGrams {
					t.Fatalf("%s: answered %v over %d expanded grams, want %v over %d", what, ok, a.Grams, wantOK, wantGrams)
				}
				if !ok {
					continue
				}
				answered++
				checkAgainstModel(t, what, &CandidateSet{ans: a}, want)
			}
			if (answered == 0) != shape.refuses {
				t.Errorf("%s, round %d: %d of 40 lookups answered", shape.name, round, answered)
			}
		}
	}
}

// TestNewCandidateSetNormalizes: arguments may arrive unsorted and with
// duplicates; the set is ascending, duplicate-free, and vacuously bounded.
func TestNewCandidateSetNormalizes(t *testing.T) {
	args := []string{"c", "a", "b", "a", "c"}
	set := NewCandidateSet(args...)
	if got := set.IDs(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("IDs = %v, want [a b c]", got)
	}
	if !reflect.DeepEqual(args, []string{"c", "a", "b", "a", "c"}) {
		t.Errorf("NewCandidateSet reordered its caller's slice: %v", args)
	}
	if set.Len() != 3 || !reflect.DeepEqual(set.Ranked(), []BoundedCandidate{{"a", 1}, {"b", 1}, {"c", 1}}) {
		t.Errorf("set = %+v: want 3 members ranked at the vacuous bound", set)
	}
	if empty := NewCandidateSet(); empty == nil || empty.Len() != 0 || len(empty.IDs()) != 0 {
		t.Errorf("NewCandidateSet() = %+v, want the empty (prune-everything) set, not the nil one", empty)
	}
	var none *CandidateSet
	if none.Len() != -1 || none.IDs() != nil || none.Ranked() != nil {
		t.Error("the nil set must list nothing: it stands for every document")
	}
}
