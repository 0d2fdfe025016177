package query

import (
	"sort"

	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// Eval returns the probability, under the document's retained product
// distribution, that its true text satisfies the query. A zero-value
// Query (never compiled) matches nothing and evaluates to 0.
//
// Single-term queries run a dense DP over the term automaton's states.
// Boolean queries run the same DP over the product of the leaf automata:
// a joint state records, for every leaf, either its automaton state or an
// absorbing "already matched" sentinel, so the final distribution carries
// exact joint match probabilities and And/Or/Not are decided per reading —
// not by multiplying marginals, which is wrong whenever terms are
// correlated through shared readings.
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
	return q.evalView(&v)
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
// store's ViewBatch or from a Doc. q must be compiled.
func (q *Query) evalView(v *store.View) float64 {
	if le, ok := q.expr.(leafExpr); ok {
		return min(q.leaves[le].tab.eval(v), 1)
	}
	return min(q.evalProduct(v), 1)
}

// eval pushes a distribution over the table's states through the chunks.
// Mass that reaches the accepting condition is absorbed into matched; the
// remainder carries partial-match state across chunk boundaries, which is
// how matches spanning two chunks are credited.
func (t *table) eval(v *store.View) float64 {
	// vec and next swap roles chunk by chunk over one buffer, which stays
	// on the stack for any automaton of up to evalStackStates states.
	var stack [2 * evalStackStates]float64
	n := len(t.atEnd)
	buf := stack[:]
	if 2*n > len(buf) {
		buf = make([]float64, 2*n)
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
					matched += p * v.Probs[a]
				} else {
					next[e] += p * v.Probs[a]
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

// evalStackStates is the largest automaton table.eval runs without a
// heap allocation: a distance-1 Levenshtein DFA of a 5-rune term has 36
// states, a keyword automaton two more than its term has runes.
const evalStackStates = 64

// evalProduct is the boolean DP. Joint states are sparse — only
// combinations actually reachable through retained readings are tracked —
// keyed by the encoded per-leaf state vector. Every pass walks the states
// in sorted key order: float accumulation order is then fixed, so the
// same (document, Query) pair always produces the bit-identical
// probability — the determinism Engine promises across worker counts and
// runs.
func (q *Query) evalProduct(v *store.View) float64 {
	states := make([]uint16, len(q.leaves))
	for i, lf := range q.leaves {
		states[i] = lf.tab.start
	}
	cur := map[string]float64{encodeStates(states): 1}
	lo := 0
	for _, hi := range v.Ends {
		next := make(map[string]float64, len(cur))
		for _, key := range sortedKeys(cur) {
			p := cur[key]
			for a := lo; a < hi; a++ {
				decodeStates(key, states)
				q.advance(states, v.Data[v.Spans[2*a]:v.Spans[2*a+1]])
				next[encodeStates(states)] += p * v.Probs[a]
			}
		}
		cur = next
		lo = hi
	}
	bits := make([]bool, len(q.leaves))
	var total float64
	for _, key := range sortedKeys(cur) {
		decodeStates(key, states)
		q.endBits(states, bits)
		if q.expr.eval(bits) {
			total += cur[key]
		}
	}
	return total
}

// sortedKeys returns m's keys in ascending order, pinning the float
// summation order of the sparse DPs.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// advance steps every leaf's table over s in place. Leaves step
// independently, so each runs over the whole of s in turn. A leaf that
// completes a match moves to its sentinel state (its state count), where
// it stays — matching is absorbing.
func (q *Query) advance(states []uint16, s []byte) {
	for i, lf := range q.leaves {
		sentinel := uint16(len(lf.tab.atEnd))
		if states[i] == sentinel {
			continue
		}
		if e := lf.tab.run(states[i], s); e&hitBit != 0 {
			states[i] = sentinel
		} else {
			states[i] = e
		}
	}
}

// advanceRune steps every leaf's table by one rune in place.
func (q *Query) advanceRune(states []uint16, r rune) {
	for i, lf := range q.leaves {
		sentinel := uint16(len(lf.tab.atEnd))
		if states[i] == sentinel {
			continue
		}
		if e := lf.tab.step(states[i], r); e&hitBit != 0 {
			states[i] = sentinel
		} else {
			states[i] = e
		}
	}
}

// endBits fills bits[i] with whether leaf i counts as matched when the
// document ends in the given joint state.
func (q *Query) endBits(states []uint16, bits []bool) {
	for i, lf := range q.leaves {
		bits[i] = states[i] == uint16(len(lf.tab.atEnd)) || lf.tab.atEnd[states[i]]
	}
}

// encodeStates packs a per-leaf state vector into a map key. Two bytes per
// leaf: compile rejects terms long enough to overflow uint16 state IDs.
func encodeStates(states []uint16) string {
	b := make([]byte, 2*len(states))
	for i, s := range states {
		b[2*i] = byte(s)
		b[2*i+1] = byte(s >> 8)
	}
	return string(b)
}

func decodeStates(key string, dst []uint16) {
	for i := range dst {
		dst[i] = uint16(key[2*i]) | uint16(key[2*i+1])<<8
	}
}
