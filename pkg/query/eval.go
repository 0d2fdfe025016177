package query

import (
	"sort"

	"github.com/paper-repo/staccato-go/pkg/staccato"
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
func (q *Query) Eval(d *staccato.Doc) float64 {
	if q.expr == nil {
		return 0
	}
	if le, ok := q.expr.(leafExpr); ok {
		return min(evalDoc(d, q.leaves[le].auto), 1)
	}
	return min(q.evalProduct(d), 1)
}

// evalDoc pushes a distribution over automaton states through the chunks.
// Mass that reaches the accepting condition is absorbed into matched; the
// remainder carries partial-match state across chunk boundaries, which is
// how matches spanning two chunks are credited.
func evalDoc(d *staccato.Doc, a automaton) float64 {
	// vec and next swap roles chunk by chunk over one buffer, which stays
	// on the stack for any automaton of up to evalStackStates states.
	var stack [2 * evalStackStates]float64
	n := a.numStates()
	buf := stack[:]
	if 2*n > len(buf) {
		buf = make([]float64, 2*n)
	}
	vec, next := buf[:n], buf[n:2*n]
	vec[a.start()] = 1
	matched := 0.0
	for _, ch := range d.Chunks {
		clear(next)
		for q, p := range vec {
			//lint:allow floateq exact zero marks an unreached state (never written); an epsilon test would skip real low-probability mass
			if p == 0 {
				continue
			}
			for _, alt := range ch.Alts {
				q2, hit := runString(a, q, alt.Text)
				if hit {
					matched += p * alt.Prob
				} else {
					next[q2] += p * alt.Prob
				}
			}
		}
		vec, next = next, vec
	}
	for q, p := range vec {
		if p > 0 && a.acceptAtEnd(q) {
			matched += p
		}
	}
	return matched
}

// evalStackStates is the largest automaton evalDoc runs without a heap
// allocation: a distance-1 Levenshtein DFA of a 5-rune term has 36
// states, a keyword automaton two more than its term has runes.
const evalStackStates = 64

// runString advances the automaton over s from state q, reporting a match
// as soon as one completes (matching is absorbing for "contains" queries).
func runString(a automaton, q int, s string) (int, bool) {
	for _, r := range s {
		var hit bool
		q, hit = a.step(q, r)
		if hit {
			return q, true
		}
	}
	return q, false
}

// evalProduct is the boolean DP. Joint states are sparse — only
// combinations actually reachable through retained readings are tracked —
// keyed by the encoded per-leaf state vector. Every pass walks the states
// in sorted key order: float accumulation order is then fixed, so the
// same (Doc, Query) pair always produces the bit-identical probability —
// the determinism Engine promises across worker counts and runs.
func (q *Query) evalProduct(d *staccato.Doc) float64 {
	states := make([]uint16, len(q.leaves))
	for i, lf := range q.leaves {
		states[i] = uint16(lf.auto.start())
	}
	cur := map[string]float64{encodeStates(states): 1}
	for _, ch := range d.Chunks {
		next := make(map[string]float64, len(cur))
		for _, key := range sortedKeys(cur) {
			p := cur[key]
			for _, alt := range ch.Alts {
				decodeStates(key, states)
				q.advanceString(states, alt.Text)
				next[encodeStates(states)] += p * alt.Prob
			}
		}
		cur = next
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

// advanceString steps every leaf automaton over s in place. A leaf that
// completes a match moves to its sentinel state (numStates), where it
// stays — matching is absorbing.
func (q *Query) advanceString(states []uint16, s string) {
	for _, r := range s {
		q.advanceRune(states, r)
	}
}

// advanceRune steps every leaf automaton by one rune in place.
func (q *Query) advanceRune(states []uint16, r rune) {
	for i, lf := range q.leaves {
		sentinel := uint16(lf.auto.numStates())
		if states[i] == sentinel {
			continue
		}
		q2, hit := lf.auto.step(int(states[i]), r)
		if hit {
			states[i] = sentinel
		} else {
			states[i] = uint16(q2)
		}
	}
}

// endBits fills bits[i] with whether leaf i counts as matched when the
// document ends in the given joint state.
func (q *Query) endBits(states []uint16, bits []bool) {
	for i, lf := range q.leaves {
		bits[i] = states[i] == uint16(lf.auto.numStates()) || lf.auto.acceptAtEnd(int(states[i]))
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
