package query

import (
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// Eval returns the probability, under the document's retained product
// distribution, that its true text satisfies the query. A zero-value
// Query (never compiled) matches nothing and evaluates to 0.
//
// Every query runs one dense DP over the states of its table. A boolean's
// table is the product of its leaf automata: a joint state records, for
// every leaf, either its automaton state or an absorbing "already
// matched" sentinel, so the final distribution carries exact joint match
// probabilities and And/Or/Not are decided per reading — not by
// multiplying marginals, which is wrong whenever terms are correlated
// through shared readings.
//
// The result is a probability: the DP's sum over a certain match can
// round a few ulps past 1, and is clamped so that certain matches tie —
// and rank by DocID — instead of being ordered by rounding noise.
//
// Eval copies d's alternatives into a store.View and runs the DP the
// Engine runs over stored records in place, so the two agree bit for
// bit.
func (q *Query) Eval(d *staccato.Doc) float64 {
	if q.expr == nil {
		return 0
	}
	// The copy lives on the stack for a document of up to evalStackAlts
	// alternatives and evalStackBytes of text, so Eval allocates no more
	// than the DP does; a larger one grows its slices on the heap.
	var (
		data  [evalStackBytes]byte
		spans [2 * evalStackAlts]int
		probs [evalStackAlts]float64
		ends  [evalStackAlts]int
	)
	v := viewOf(d, store.View{Data: data[:0], Spans: spans[:0], Probs: probs[:0], Ends: ends[:0]})
	return q.evalView(&v, nil)
}

// The largest document Eval copies without a heap allocation: a (6,3)
// error-model document holds about 20 alternatives and 300 bytes of text.
const (
	evalStackAlts  = 64
	evalStackBytes = 1024
)

// viewOf returns v, whose slices are empty, holding a copy of d's
// alternatives: their texts back to back in Data, so a Doc and a stored
// record run through one DP.
func viewOf(d *staccato.Doc, v store.View) store.View {
	for _, ch := range d.Chunks {
		for _, alt := range ch.Alts {
			v.Spans = append(v.Spans, len(v.Data), len(v.Data)+len(alt.Text))
			v.Data = append(v.Data, alt.Text...)
			v.Probs = append(v.Probs, alt.Prob)
		}
		v.Ends = append(v.Ends, len(v.Probs))
	}
	return v
}

// evalView is Eval over a document's alternatives read in place — the
// one evaluation every path runs, whether the document came from a
// store's ViewBatch or from a Doc. q must be compiled. scratch is the
// DP's buffer for a table too large for the stack (see table.eval); nil
// allocates one.
func (q *Query) evalView(v *store.View, scratch []float64) float64 {
	return min(q.tab.eval(v, scratch), 1)
}

// eval pushes a distribution over the table's states through the chunks.
// Mass that reaches the accepting condition is absorbed into matched; the
// remainder carries partial-match state across chunk boundaries, which is
// how matches spanning two chunks are credited. States are walked in
// ascending order, which fixes every float's summation order, so the same
// (document, Query) pair always gives the same bits; each product is
// converted explicitly, which forbids fusing it into a multiply-add.
//
// vec and next swap roles chunk by chunk over one buffer: on the stack
// for a table of up to evalStackStates states, otherwise scratch when it
// holds the 2·states floats (t.scratch), else a fresh one.
func (t *table) eval(v *store.View, scratch []float64) float64 {
	var stack [2 * evalStackStates]float64
	n := len(t.atEnd)
	buf := stack[:]
	if 2*n > len(buf) {
		if buf = scratch; len(buf) < 2*n {
			buf = make([]float64, 2*n)
		}
		clear(buf[:n]) // next is cleared per chunk
	}
	vec, next := buf[:n], buf[n:2*n]
	vec[t.start] = 1
	matched := 0.0
	lo := 0
	for _, hi := range v.Ends {
		clear(next)
		for q, p := range vec {
			//lint:allow floateq exact zero marks an unreached state (never written); an epsilon test would skip real low-probability mass
			if p == 0 {
				continue
			}
			for a := lo; a < hi; a++ {
				e := t.run(uint16(q), v.Data[v.Spans[2*a]:v.Spans[2*a+1]])
				if e&hitBit != 0 {
					matched += float64(p * v.Probs[a])
				} else {
					next[e] += float64(p * v.Probs[a])
				}
			}
		}
		vec, next = next, vec
		lo = hi
	}
	for q, p := range vec {
		if p > 0 && t.atEnd[q] {
			matched += p
		}
	}
	return matched
}

// evalStackStates is the largest table table.eval runs without a heap
// allocation: a distance-1 Levenshtein DFA of a 5-rune term has 36
// states, a keyword automaton two more than its term has runes, the
// product of two keywords about 30.
const evalStackStates = 64

// scratch returns a buffer for t.eval to reuse across the documents of a
// batch: nil for a table that fits evalStackStates, which eval keeps on
// its stack.
func (t *table) scratch() []float64 {
	if len(t.atEnd) <= evalStackStates {
		return nil
	}
	return make([]float64, 2*len(t.atEnd))
}
