package query

import (
	"fmt"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/fst"
)

// EvalFST computes the exact probability that the string emitted by the
// transducer satisfies the query, without materializing any paths: the
// product of the leaf automata runs directly over the SFST's state graph,
// with a sparse probability distribution over (fst state × joint automaton
// state). Polynomial in the transducer size even when the path count is
// astronomical.
//
// This is the FullSFST oracle: tests use it to bound the Staccato dial
// from above, and it supports the full boolean algebra — including
// keyword-mode leaves, whose trailing boundary may be the end of the
// emitted string. Like Eval's, the result is clamped to 1.
func (q *Query) EvalFST(f *fst.SFST) (float64, error) {
	if q.expr == nil {
		return 0, fmt.Errorf("query: EvalFST requires a compiled Query")
	}
	n := f.NumStates()
	states := make([]uint16, len(q.leaves))
	for i, lf := range q.leaves {
		states[i] = lf.tab.start
	}
	// mass[s] maps joint automaton states to probability mass arriving at
	// fst state s. States are visited in topological order (the Build
	// normalization), so each state's mass is complete before it is read.
	mass := make([]map[string]float64, n)
	mass[f.Start()] = map[string]float64{encodeStates(states): 1}

	bits := make([]bool, len(q.leaves))
	var matched, total float64
	for s := 0; s < n; s++ {
		cur := mass[s]
		if cur == nil {
			continue
		}
		// Sorted key order fixes float accumulation order, so the result
		// is bit-identical across runs (Go map iteration is randomized).
		keys := sortedKeys(cur)
		if f.IsFinal(fst.StateID(s)) {
			for _, key := range keys {
				p := cur[key]
				decodeStates(key, states)
				q.endBits(states, bits)
				total += p
				if q.expr.eval(bits) {
					matched += p
				}
			}
		}
		for _, arc := range f.Arcs(fst.StateID(s)) {
			p := core.ProbFromWeight(arc.Weight)
			for _, key := range keys {
				pq := cur[key]
				k2 := key
				if arc.Label != fst.Epsilon {
					decodeStates(key, states)
					q.advanceRune(states, arc.Label)
					k2 = encodeStates(states)
				}
				m := mass[arc.To]
				if m == nil {
					m = make(map[string]float64)
					mass[arc.To] = m
				}
				m[k2] += pq * p
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
