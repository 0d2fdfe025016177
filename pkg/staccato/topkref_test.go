package staccato

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/fst"
)

// refPathEntry is one partial path in the k-best DP, represented as a
// backpointer chain so extension is O(1) instead of copying strings.
type refPathEntry struct {
	weight  float64
	prev    fst.StateID // predecessor state, NoState at the segment root
	prevIdx int32       // index into the predecessor's finalized entry list
	label   rune
}

// topKReference is TopK as it stood before its per-state lists were
// bounded: every state collects all of its incoming partial paths, sorts
// them with sort.Slice and truncates to k, and a second forward sweep
// (refSegmentWeight) computes the segment's total mass. It is kept as the
// oracle FuzzTopKMatchesReference holds TopK to, so it must stay
// independent of the product code — it carries its own entry type and
// mass sweep. The one change from the original is the budget parameter,
// which was the constant maxEntries, so that small transducers can reach
// ErrPathExplosion.
func topKReference(seg Segment, k, budget int) (PathSet, error) {
	if k < 1 {
		return PathSet{}, fmt.Errorf("staccato: TopK: k must be >= 1, got %d", k)
	}
	f := seg.F
	n := f.NumStates()
	last := int(seg.To)
	if seg.ToEnd {
		last = n - 1
	}
	base := int(seg.From)

	// entries[s-base] holds the partial paths arriving at state s.
	entries := make([][]refPathEntry, last-base+1)
	entries[0] = []refPathEntry{{weight: 0, prev: fst.NoState, prevIdx: -1}}
	total := 0

	// completed collects accepting terminal entries as (state, index)
	// pairs into finalized lists.
	type done struct {
		state fst.StateID
		idx   int32
	}
	var completed []done

	for s := base; s <= last; s++ {
		es := entries[s-base]
		if len(es) == 0 {
			continue
		}
		sort.Slice(es, func(i, j int) bool {
			// Sort comparators need exact comparison — an epsilon tie-break is not a strict weak order and would make path selection nondeterministic
			if es[i].weight != es[j].weight {
				return es[i].weight < es[j].weight
			}
			if es[i].prev != es[j].prev {
				return es[i].prev < es[j].prev
			}
			if es[i].prevIdx != es[j].prevIdx {
				return es[i].prevIdx < es[j].prevIdx
			}
			return es[i].label < es[j].label
		})
		if len(es) > k {
			es = es[:k]
		}
		entries[s-base] = es

		if seg.ToEnd {
			if f.IsFinal(fst.StateID(s)) {
				for i := range es {
					completed = append(completed, done{fst.StateID(s), int32(i)})
				}
			}
		} else if s == last {
			for i := range es {
				completed = append(completed, done{fst.StateID(s), int32(i)})
			}
			break // interior boundary: do not extend past it
		}

		for _, a := range f.Arcs(fst.StateID(s)) {
			if int(a.To) > last {
				// Cannot happen for a cut-state boundary; guard anyway so a
				// hand-built Segment fails loudly instead of corrupting memory.
				return PathSet{}, fmt.Errorf("staccato: TopK: arc %d→%d escapes segment ending at %d", s, a.To, last)
			}
			for i, e := range es {
				entries[int(a.To)-base] = append(entries[int(a.To)-base], refPathEntry{
					weight:  e.weight + a.Weight,
					prev:    fst.StateID(s),
					prevIdx: int32(i),
					label:   a.Label,
				})
			}
			total += len(es)
			if total > budget {
				return PathSet{}, ErrPathExplosion
			}
		}
	}

	// Keep the k best completions overall.
	sort.Slice(completed, func(i, j int) bool {
		wi := entries[int(completed[i].state)-base][completed[i].idx].weight
		wj := entries[int(completed[j].state)-base][completed[j].idx].weight
		// Sort comparators need exact comparison — an epsilon tie-break is not a strict weak order and would make the k-best cut nondeterministic
		if wi != wj {
			return wi < wj
		}
		if completed[i].state != completed[j].state {
			return completed[i].state < completed[j].state
		}
		return completed[i].idx < completed[j].idx
	})
	if len(completed) > k {
		completed = completed[:k]
	}
	if len(completed) == 0 {
		return PathSet{}, fmt.Errorf("staccato: TopK: segment from state %d has no accepting path", seg.From)
	}

	// Materialize strings and merge duplicates by summing probability.
	// Weights are shifted by the best completion's weight before leaving
	// the log domain: relative probabilities are exact and finite even
	// when absolute path probabilities underflow float64.
	minW := entries[int(completed[0].state)-base][completed[0].idx].weight
	merged := make(map[string]float64, len(completed))
	var retainedShifted float64
	for _, c := range completed {
		var rev []rune
		st, idx := c.state, c.idx
		for st != fst.NoState {
			e := entries[int(st)-base][idx]
			if e.prev != fst.NoState && e.label != fst.Epsilon {
				rev = append(rev, e.label)
			}
			st, idx = e.prev, e.prevIdx
		}
		p := math.Exp(-(entries[int(c.state)-base][c.idx].weight - minW))
		merged[core.StringFromReversed(rev)] += p
		retainedShifted += p
	}

	alts := make([]Alt, 0, len(merged))
	for text, p := range merged {
		alts = append(alts, Alt{Text: text, Prob: p / retainedShifted})
	}
	slices.SortFunc(alts, CompareAlts)

	// Retained fraction, also in the log domain: the retained paths have
	// total weight minW - ln(retainedShifted).
	retainedW := minW - math.Log(retainedShifted)
	totalW := refSegmentWeight(seg, last)
	ps := PathSet{Alts: alts, Retained: 1}
	if !math.IsInf(totalW, 1) {
		ps.Retained = math.Min(1, core.ProbFromWeight(retainedW-totalW))
	}
	return ps, nil
}

// refSegmentWeight returns the negative-log total probability mass of all
// paths through the segment — a forward sweep accumulating in the log
// domain so long segments don't underflow.
func refSegmentWeight(seg Segment, last int) float64 {
	f := seg.F
	base := int(seg.From)
	w := make([]float64, last-base+1)
	for i := 1; i < len(w); i++ {
		w[i] = math.Inf(1)
	}
	totalW := math.Inf(1)
	for s := base; s <= last; s++ {
		ws := w[s-base]
		if math.IsInf(ws, 1) {
			continue
		}
		if seg.ToEnd {
			if f.IsFinal(fst.StateID(s)) {
				totalW = core.LogAddWeights(totalW, ws)
			}
		} else if s == last {
			totalW = core.LogAddWeights(totalW, ws)
			break
		}
		for _, a := range f.Arcs(fst.StateID(s)) {
			if int(a.To) <= last {
				w[int(a.To)-base] = core.LogAddWeights(w[int(a.To)-base], ws+a.Weight)
			}
		}
	}
	return totalW
}
