package staccato

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/fst"
)

// ErrPathExplosion is returned by TopK when path enumeration exceeds its
// internal budget — in practice only when k is AllPaths (or close to it)
// on a transducer too large to materialize exactly.
var ErrPathExplosion = errors.New("staccato: path enumeration budget exceeded (lower k or raise numChunks)")

// maxEntries bounds the total number of partial paths TopK will push.
const maxEntries = 4 << 20

// arenaShare is how many entries each state's list gets in a segment's
// shared arena. A dial's k is small; a list that outgrows its share
// (AllPaths) moves to a slice of its own on append.
const arenaShare = 4

// pathEntry is one partial path in the k-best DP, represented as a
// backpointer chain so extension is O(1) instead of copying strings.
type pathEntry struct {
	weight  float64
	prev    fst.StateID // predecessor state, NoState at the segment root
	prevIdx int32       // index into the predecessor's finalized entry list
	label   rune
}

// comparePathEntries is the k-best rank order, for slices.SortFunc: lower
// weight first, then lower predecessor state, predecessor index and
// label. Entries it calls equal are identical, so which k entries a list
// keeps, and in what order, never depends on the order they arrive in.
func comparePathEntries(a, b pathEntry) int {
	if c := cmp.Compare(a.weight, b.weight); c != 0 {
		return c
	}
	if c := cmp.Compare(a.prev, b.prev); c != 0 {
		return c
	}
	if c := cmp.Compare(a.prevIdx, b.prevIdx); c != 0 {
		return c
	}
	return cmp.Compare(a.label, b.label)
}

// admit offers e to l, a list that keeps the k best entries offered to
// it. The list appends until it holds k entries and then sorts once; from
// then on e goes in only if it ranks ahead of the k-th entry, which it
// replaces. This keeps exactly what sorting every offered entry and
// truncating to k would. admit reports false when e ranks behind a full
// list — and so does every entry that ranks behind e.
func admit(l []pathEntry, k int, e pathEntry) ([]pathEntry, bool) {
	if len(l) < k {
		l = append(l, e)
		if len(l) == k {
			slices.SortFunc(l, comparePathEntries)
		}
		return l, true
	}
	i := k - 1
	if comparePathEntries(e, l[i]) >= 0 {
		return l, false
	}
	for ; i > 0 && comparePathEntries(e, l[i-1]) < 0; i-- {
		l[i] = l[i-1]
	}
	l[i] = e
	return l, true
}

// settle sorts a list that never filled; admit keeps a full one sorted.
func settle(l []pathEntry, k int) {
	if len(l) < k {
		slices.SortFunc(l, comparePathEntries)
	}
}

// dpState is one state's part of the sweep: its best partial paths from
// the segment root, and the negative-log mass of all of them.
type dpState struct {
	paths []pathEntry
	mass  float64
}

// TopK enumerates the k most probable paths through seg and returns them
// as a PathSet: paths emitting the same string are merged (their
// probabilities summed), and the merged alternatives are normalized to a
// distribution over the retained mass.
//
// One sweep over the states in topological order keeps at most k best
// partial paths per state, in a bounded list (admit), and accumulates
// the forward log-domain mass of all paths, from which Retained follows.
// A list is finalized when the sweep reaches its state, so backpointers
// into predecessors are stable. All per-state storage is indexed relative
// to seg.From, so the cost of a segment depends on its own size, not its
// position in the document, and normalization happens in the log domain
// so arbitrarily long chunks (weights far beyond exp underflow) still
// produce finite probabilities.
func TopK(seg Segment, k int) (PathSet, error) {
	return topK(seg, k, maxEntries)
}

// topK is TopK under a budget of budget pushed partial paths, a parameter
// so tests can reach ErrPathExplosion on small transducers.
func topK(seg Segment, k, budget int) (PathSet, error) {
	if k < 1 {
		return PathSet{}, fmt.Errorf("staccato: TopK: k must be >= 1, got %d", k)
	}
	f := seg.F
	last := int(seg.To)
	if seg.ToEnd {
		last = f.NumStates() - 1
	}
	base := int(seg.From)

	// states[s-base] is state s; the arena's last share holds completed,
	// the k best accepting paths, each an entry pointing at (state, index)
	// of its final partial path and ranked like any state's list.
	share := min(k, arenaShare)
	states := make([]dpState, last-base+1)
	arena := make([]pathEntry, (len(states)+1)*share)
	for i := range states {
		states[i] = dpState{paths: arena[i*share : i*share : (i+1)*share], mass: math.Inf(1)}
	}
	completed := arena[len(states)*share : len(states)*share]
	states[0].paths = append(states[0].paths, pathEntry{prev: fst.NoState, prevIdx: -1})
	states[0].mass = 0
	total := 0
	totalW := math.Inf(1)

	for s := base; s <= last; s++ {
		st := &states[s-base]
		es := st.paths
		if len(es) == 0 {
			continue
		}
		settle(es, k)
		// A state reached only through weights that overflow to +Inf
		// carries paths but no mass.
		massive := !math.IsInf(st.mass, 1)

		accepting := s == last
		if seg.ToEnd {
			accepting = f.IsFinal(fst.StateID(s))
		}
		if accepting {
			for i, e := range es {
				var ok bool
				if completed, ok = admit(completed, k, pathEntry{weight: e.weight, prev: fst.StateID(s), prevIdx: int32(i)}); !ok {
					break
				}
			}
			if massive {
				totalW = core.LogAddWeights(totalW, st.mass)
			}
			if !seg.ToEnd {
				break // interior boundary: do not extend past it
			}
		}

		for _, a := range f.Arcs(fst.StateID(s)) {
			if int(a.To) > last {
				// Cannot happen for a cut-state boundary; guard anyway so a
				// hand-built Segment fails loudly instead of corrupting memory.
				return PathSet{}, fmt.Errorf("staccato: TopK: arc %d→%d escapes segment ending at %d", s, a.To, last)
			}
			to := &states[int(a.To)-base]
			// es is sorted, so its extensions along a arrive in rank
			// order: once one is turned away, so are all after it.
			for i, e := range es {
				var ok bool
				if to.paths, ok = admit(to.paths, k, pathEntry{
					weight:  e.weight + a.Weight,
					prev:    fst.StateID(s),
					prevIdx: int32(i),
					label:   a.Label,
				}); !ok {
					break
				}
			}
			total += len(es)
			if total > budget {
				return PathSet{}, ErrPathExplosion
			}
			if massive {
				to.mass = core.LogAddWeights(to.mass, st.mass+a.Weight)
			}
		}
	}
	if len(completed) == 0 {
		return PathSet{}, fmt.Errorf("staccato: TopK: segment from state %d has no accepting path", seg.From)
	}
	settle(completed, k)

	// Materialize one alternative per completion. Weights are shifted by
	// the best completion's weight before leaving the log domain: relative
	// probabilities are exact and finite even when absolute path
	// probabilities underflow float64.
	minW := completed[0].weight
	alts := make([]Alt, len(completed))
	var retainedShifted float64
	var buf [64]rune
	for i, c := range completed {
		rev := buf[:0]
		for st, idx := c.prev, c.prevIdx; st != fst.NoState; {
			e := states[int(st)-base].paths[idx]
			if e.prev != fst.NoState && e.label != fst.Epsilon {
				rev = append(rev, e.label)
			}
			st, idx = e.prev, e.prevIdx
		}
		p := math.Exp(-(c.weight - minW))
		alts[i] = Alt{Text: core.StringFromReversed(rev), Prob: p}
		retainedShifted += p
	}
	// Paths emitting the same string merge by summing their probabilities.
	// The stable sort keeps equal texts in completion order, so each sum
	// adds up in that order.
	slices.SortStableFunc(alts, func(a, b Alt) int { return cmp.Compare(a.Text, b.Text) })
	merged := alts[:0]
	for _, a := range alts {
		if n := len(merged); n > 0 && merged[n-1].Text == a.Text {
			merged[n-1].Prob += a.Prob
			continue
		}
		merged = append(merged, a)
	}
	alts = merged
	for i := range alts {
		alts[i].Prob /= retainedShifted
	}
	slices.SortFunc(alts, CompareAlts)

	// Retained fraction, also in the log domain: the retained paths have
	// total weight minW - ln(retainedShifted).
	retainedW := minW - math.Log(retainedShifted)
	ps := PathSet{Alts: alts, Retained: 1}
	if !math.IsInf(totalW, 1) {
		ps.Retained = math.Min(1, core.ProbFromWeight(retainedW-totalW))
	}
	return ps, nil
}
