package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// modelSet is the throwaway reference for CandidateSet's algebra: a plain
// map from member to bound, plus whether bounds are carried at all.
type modelSet struct {
	bound   map[string]float64
	bounded bool
}

func (m modelSet) at(id string) float64 {
	if !m.bounded {
		return 1
	}
	return m.bound[id]
}

func modelIntersect(a, b modelSet) modelSet {
	out := modelSet{bound: map[string]float64{}, bounded: a.bounded || b.bounded}
	for id := range a.bound {
		if _, ok := b.bound[id]; ok {
			out.bound[id] = min(a.at(id), b.at(id))
		}
	}
	return out
}

// modelUnion sums each member's bounds in child order and caps once at
// the end — the order-sensitive part a merge must reproduce bit for bit.
func modelUnion(kids []modelSet) modelSet {
	out := modelSet{bound: map[string]float64{}, bounded: true}
	for _, kid := range kids {
		for id := range kid.bound {
			out.bound[id] += kid.at(id)
		}
	}
	for id, b := range out.bound {
		out.bound[id] = min(1, b)
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
	if got.Len() != len(want.bound) || len(ids) != len(want.bound) {
		t.Fatalf("%s: Len %d / %d IDs, want %d", what, got.Len(), len(ids), len(want.bound))
	}
	if got.Bounded() != want.bounded {
		t.Fatalf("%s: Bounded = %v, want %v", what, got.Bounded(), want.bounded)
	}
	for _, id := range ids { // with the lengths equal, this makes the memberships equal
		if _, member := want.bound[id]; !member {
			t.Fatalf("%s: IDs has %q, which the model does not", what, id)
		}
	}
	ranked := got.Ranked()
	wantRanked := make([]BoundedCandidate, 0, len(want.bound))
	for id := range want.bound {
		wantRanked = append(wantRanked, BoundedCandidate{ID: id, Bound: want.at(id)})
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

// TestCandidateSetAlgebraMatchesMapModel is the property behind the
// slice representation: on random sorted inputs — empty, disjoint,
// identical, overlapping, either side unbounded — intersectSets is
// membership-AND at the min bound, and a left fold of unionSets is
// membership-OR at the capped sum of bounds in child order, bit for bit.
func TestCandidateSetAlgebraMatchesMapModel(t *testing.T) {
	universe := make([]string, 40)
	for i := range universe {
		universe[i] = fmt.Sprintf("d%02d", i)
	}
	rng := rand.New(rand.NewSource(19))
	// random draws a set over the universe members that pick admits.
	random := func(pick func(i int) bool) (*CandidateSet, modelSet) {
		set := &CandidateSet{}
		model := modelSet{bound: map[string]float64{}, bounded: rng.Intn(3) > 0}
		if model.bounded {
			set.bounds = []float64{}
		}
		for i, id := range universe {
			if !pick(i) {
				continue
			}
			set.ids = append(set.ids, id)
			b := 1.0
			if model.bounded {
				b = rng.Float64()
				if rng.Intn(6) == 0 {
					b = 1 // vacuous bounds inside a bounded set, and sums that must cap
				}
				set.bounds = append(set.bounds, b)
			}
			model.bound[id] = b
		}
		return set, model
	}
	shapes := map[string]func() (a, b func(int) bool){
		"overlapping": func() (a, b func(int) bool) {
			return func(int) bool { return rng.Intn(2) == 0 }, func(int) bool { return rng.Intn(2) == 0 }
		},
		"disjoint": func() (a, b func(int) bool) {
			return func(i int) bool { return i%2 == 0 }, func(i int) bool { return i%2 == 1 }
		},
		"identical": func() (a, b func(int) bool) {
			same := func(i int) bool { return i%3 != 0 }
			return same, same
		},
		"left empty": func() (a, b func(int) bool) {
			return func(int) bool { return false }, func(int) bool { return rng.Intn(2) == 0 }
		},
		"both empty": func() (a, b func(int) bool) {
			none := func(int) bool { return false }
			return none, none
		},
	}
	for name, shape := range shapes {
		for trial := 0; trial < 50; trial++ {
			pa, pb := shape()
			a, ma := random(pa)
			b, mb := random(pb)
			what := fmt.Sprintf("%s trial %d", name, trial)
			checkAgainstModel(t, what+" a", a, ma)
			checkAgainstModel(t, what+" and(a,b)", intersectSets(a, b), modelIntersect(ma, mb))
			checkAgainstModel(t, what+" and(b,a)", intersectSets(b, a), modelIntersect(mb, ma))

			// OR folds from the empty bounded set, exactly as planOr does,
			// over two to four children.
			kids, models := []*CandidateSet{a, b}, []modelSet{ma, mb}
			for extra := rng.Intn(3); extra > 0; extra-- {
				k, mk := random(func(int) bool { return rng.Intn(3) == 0 })
				kids, models = append(kids, k), append(models, mk)
			}
			acc := &CandidateSet{bounds: []float64{}}
			for _, kid := range kids {
				acc = unionSets(acc, kid)
			}
			checkAgainstModel(t, what+" or(kids...)", acc, modelUnion(models))
		}
	}
}

// TestNewCandidateSetNormalizes: arguments may arrive unsorted and with
// duplicates; the set is ascending, duplicate-free, and unbounded.
func TestNewCandidateSetNormalizes(t *testing.T) {
	args := []string{"c", "a", "b", "a", "c"}
	set := NewCandidateSet(args...)
	if got := set.IDs(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("IDs = %v, want [a b c]", got)
	}
	if !reflect.DeepEqual(args, []string{"c", "a", "b", "a", "c"}) {
		t.Errorf("NewCandidateSet reordered its caller's slice: %v", args)
	}
	if set.Len() != 3 || set.Bounded() || !reflect.DeepEqual(set.Ranked(), []BoundedCandidate{{"a", 1}, {"b", 1}, {"c", 1}}) {
		t.Errorf("set = %+v: want 3 unbounded members ranked at the vacuous bound", set)
	}
	if empty := NewCandidateSet(); empty == nil || empty.Len() != 0 || len(empty.IDs()) != 0 {
		t.Errorf("NewCandidateSet() = %+v, want the empty (prune-everything) set, not the nil one", empty)
	}
	var none *CandidateSet
	if none.Len() != -1 || none.IDs() != nil || none.Ranked() != nil || none.Bounded() {
		t.Error("the nil set must list nothing: it stands for every document, unbounded")
	}
}
