package query

import (
	"fmt"
	"maps"
	"slices"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/fst"
)

// EvalFST computes the exact probability that the string emitted by the
// transducer satisfies the query, without materializing any paths: the
// query's table runs directly over the SFST's state graph, with a sparse
// probability distribution over (fst state × table state). Polynomial in
// the transducer size even when the path count is astronomical.
//
// This is the FullSFST oracle: tests use it to bound the Staccato dial
// from above, and it supports the full boolean algebra — including
// keyword-mode leaves, whose trailing boundary may be the end of the
// emitted string. Like Eval's, the result is clamped to 1.
func (q *Query) EvalFST(f *fst.SFST) (float64, error) {
	if q.expr == nil {
		return 0, fmt.Errorf("query: EvalFST requires a compiled Query")
	}
	// A leaf's hit moves a path's mass to matched, one past the table's
	// states, where it stays; a product table never hits.
	matchedState := uint16(len(q.tab.atEnd))
	n := f.NumStates()
	// mass[s] maps table states to probability mass arriving at fst state
	// s. States are visited in topological order (the Build
	// normalization), so each state's mass is complete before it is read.
	mass := make([]map[uint16]float64, n)
	for s := range mass {
		mass[s] = map[uint16]float64{}
	}
	mass[f.Start()][q.tab.start] = 1

	var matched, total float64
	for s := 0; s < n; s++ {
		cur := mass[s]
		// Ascending state order fixes float accumulation order, so the
		// result is bit-identical across runs (Go map iteration is
		// randomized).
		keys := slices.Sorted(maps.Keys(cur))
		if f.IsFinal(fst.StateID(s)) {
			for _, k := range keys {
				total += cur[k]
				if k == matchedState || q.tab.atEnd[k] {
					matched += cur[k]
				}
			}
		}
		for _, arc := range f.Arcs(fst.StateID(s)) {
			p := core.ProbFromWeight(arc.Weight)
			for _, k := range keys {
				k2 := k
				if arc.Label != fst.Epsilon && k != matchedState {
					if k2 = q.tab.step(k, arc.Label); k2&hitBit != 0 {
						k2 = matchedState
					}
				}
				mass[arc.To][k2] += float64(cur[k] * p)
			}
		}
		mass[s] = nil // fully propagated; release early
	}
	//lint:allow floateq exact zero means no accepting path contributed any mass at all; an epsilon test would misreport tiny-but-real mass as an error
	if total == 0 {
		return 0, fmt.Errorf("query: transducer has no accepting mass")
	}
	return min(matched/total, 1), nil
}
