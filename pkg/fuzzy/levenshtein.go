// Package fuzzy is the edit-distance subsystem: two plain edit-distance
// kernels, a Levenshtein automaton compiled once per (term, distance)
// into a deterministic finite automaton, and a lexicon rescoring pass
// that re-weights a document's retained readings toward in-dictionary
// variants.
//
// EndCosts (Sellers) and EditDistance (Levenshtein) are the plain
// dynamic programs over runes, one column step shared between them: the
// Sellers column pins its top cell at 0 so a window may begin anywhere
// in the text, the Levenshtein one counts the text's runes there. They
// are every edit distance the system computes outside the automaton —
// the Within oracle, pkg/query's fuzzy snippet spans and the demo's MAP
// divergence all call them.
//
// The DFA answers substring-approximate matching — "does the input
// contain a window within edit distance d of term?" — which is the
// Sellers variant of the classic Levenshtein automaton. States are
// clamped DP columns (every cell capped at d+1, beyond which the exact
// value cannot matter), discovered by breadth-first search over the
// characteristic bitvectors of the term's distinct runes. The builder
// steps its clamped columns with its own stepColumn, not the kernels,
// so that Within stays an independent oracle for it. Construction is
// fully deterministic — sorted rune alphabet, BFS in fixed order —
// because downstream the state IDs number pkg/query's tables, where
// state numbering pins float accumulation order and therefore
// bit-identical probabilities.
//
// The package is self-contained on purpose: pkg/query flattens a DFA's
// Transitions into its own term table, but nothing here depends on query
// planning or evaluation, so the automaton's correctness is testable
// (and fuzzable) against the reference Within oracle alone.
package fuzzy

import (
	"fmt"
	"slices"
	"sort"
)

// MaxDistance is the largest supported edit distance. Beyond 2 the
// automaton's state space and the planner's gram pieces both degrade
// sharply, and OCR noise this subsystem targets rarely needs more.
const MaxDistance = 2

// maxTermRunes bounds compiled terms so a characteristic bitvector fits
// one uint64.
const maxTermRunes = 64

// maxStates caps DFA construction: the joint-state encoding in pkg/query
// packs a state ID plus a sentinel into a uint16. It is an input limit
// like maxTermRunes, not an invariant of the construction: most terms
// stay far below it, but a long low-diversity term at distance 2 does
// not ("a"×64 needs more), so Compile refuses such a term with an error.
const maxStates = 1 << 14

// DFA is a compiled Levenshtein automaton for one (term, distance)
// pair. It is immutable after Compile and safe for concurrent use.
type DFA struct {
	alphabet []rune   // sorted distinct runes of term
	masks    []uint64 // masks[i]: bit j set iff term[j] == alphabet[i]

	// trans[s*(len(alphabet)+1) + c] is the state reached from s on a
	// rune of characteristic class c; class 0 is "rune not in term",
	// class i+1 is alphabet[i].
	trans  []uint16
	accept []bool // accept[s]: the window ending here is within dist
}

// Compile builds the DFA for term at the given edit distance. The term
// must be non-empty, at most 64 runes, longer (in runes) than dist —
// otherwise the empty window already matches and the automaton would
// accept every input — and dist must be in [0, MaxDistance].
func Compile(term string, dist int) (*DFA, error) {
	pat := []rune(term)
	if len(pat) == 0 {
		return nil, fmt.Errorf("fuzzy: empty term")
	}
	if len(pat) > maxTermRunes {
		return nil, fmt.Errorf("fuzzy: term of %d runes exceeds the %d-rune limit", len(pat), maxTermRunes)
	}
	if dist < 0 || dist > MaxDistance {
		return nil, fmt.Errorf("fuzzy: distance %d out of range [0, %d]", dist, MaxDistance)
	}
	if len(pat) <= dist {
		return nil, fmt.Errorf("fuzzy: term %q of %d runes must be longer than distance %d (every string would match)", term, len(pat), dist)
	}
	d := &DFA{}
	d.buildAlphabet(pat)
	if err := d.buildStates(pat, dist); err != nil {
		return nil, err
	}
	return d, nil
}

// MustCompile is Compile for known-good inputs; it panics on error.
func MustCompile(term string, dist int) *DFA {
	d, err := Compile(term, dist)
	if err != nil {
		panic(err)
	}
	return d
}

// NumStates returns the number of DFA states.
func (d *DFA) NumStates() int { return len(d.accept) }

// Start returns the start state (always 0). The start state is never
// accepting: Compile requires the term to be longer than the distance,
// so the empty window cannot match.
func (d *DFA) Start() int { return 0 }

// Step consumes one rune from state q and reports the next state and
// whether a window within the edit distance just completed. Matching is
// a property of the destination state, so callers treating matches as
// absorbing (pkg/query does) may stop on the first hit without losing
// any match.
func (d *DFA) Step(q int, r rune) (int, bool) {
	next := int(d.trans[q*(len(d.alphabet)+1)+d.class(r)])
	return next, d.accept[next]
}

// Transitions exposes the compiled automaton as its dense table, for a
// caller that flattens it into a table of its own: alphabet is the
// term's distinct runes in ascending order; next[s*(len(alphabet)+1)+c]
// is the state Step reaches from s on a rune of class c, where class 0
// is every rune absent from the term and class i+1 is alphabet[i]; and
// accept[s] reports whether entering s completes a match. The slices are
// the DFA's own and must not be modified.
func (d *DFA) Transitions() (alphabet []rune, next []uint16, accept []bool) {
	return d.alphabet, d.trans, d.accept
}

// class maps a rune to its characteristic class: 0 for runes absent from
// the term, i+1 for alphabet[i].
func (d *DFA) class(r rune) int {
	lo, hi := 0, len(d.alphabet)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.alphabet[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.alphabet) && d.alphabet[lo] == r {
		return lo + 1
	}
	return 0
}

func (d *DFA) buildAlphabet(term []rune) {
	seen := make(map[rune]bool, len(term))
	for _, r := range term {
		if !seen[r] {
			seen[r] = true
			d.alphabet = append(d.alphabet, r)
		}
	}
	sort.Slice(d.alphabet, func(i, j int) bool { return d.alphabet[i] < d.alphabet[j] })
	d.masks = make([]uint64, len(d.alphabet))
	for i, a := range d.alphabet {
		for j, r := range term {
			if r == a {
				d.masks[i] |= 1 << uint(j)
			}
		}
	}
}

// buildStates discovers the reachable clamped DP columns breadth-first.
// A column holds, for j in 1..m, the minimum edits needed to turn
// term[:j] into a suffix of the input consumed so far, capped at dist+1
// (cell 0 is always 0 in the Sellers substring formulation and is not
// stored). BFS over a fixed class order with first-seen state numbering
// makes the construction — and therefore every state ID — deterministic.
func (d *DFA) buildStates(term []rune, dist int) error {
	m := len(term)
	cap1 := uint8(dist + 1)

	startCol := make([]uint8, m)
	for j := 0; j < m; j++ {
		c := j + 1
		if c > int(cap1) {
			c = int(cap1)
		}
		startCol[j] = uint8(c)
	}

	ids := map[string]uint16{string(startCol): 0}
	cols := [][]uint8{startCol}
	d.accept = []bool{startCol[m-1] <= uint8(dist)}
	nClasses := len(d.alphabet) + 1
	d.trans = nil

	for s := 0; s < len(cols); s++ {
		col := cols[s]
		for c := 0; c < nClasses; c++ {
			var mask uint64
			if c > 0 {
				mask = d.masks[c-1]
			}
			next := stepColumn(col, mask, cap1)
			key := string(next)
			id, ok := ids[key]
			if !ok {
				if len(cols) >= maxStates {
					return fmt.Errorf("fuzzy: term %q at distance %d exceeds %d DFA states", string(term), dist, maxStates)
				}
				id = uint16(len(cols))
				ids[key] = id
				cols = append(cols, next)
				d.accept = append(d.accept, next[m-1] <= uint8(dist))
			}
			d.trans = append(d.trans, id)
		}
	}
	return nil
}

// stepColumn advances one clamped Sellers column by a rune whose
// characteristic bitvector is mask: nv[j] is the minimum of a diagonal
// move (substitution, free when the rune matches term[j]), a vertical
// move (delete from the term), and a horizontal move (insert into the
// term), with the implicit nv[0] = 0 of substring matching.
func stepColumn(col []uint8, mask uint64, cap1 uint8) []uint8 {
	next := make([]uint8, len(col))
	prevDiag := uint8(0) // col[j-1] with the implicit leading 0 cell
	prevNew := uint8(0)  // nv[j-1], likewise
	for j := range col {
		sub := prevDiag
		if mask&(1<<uint(j)) == 0 {
			sub++
		}
		v := sub
		if del := col[j] + 1; del < v {
			v = del
		}
		if ins := prevNew + 1; ins < v {
			v = ins
		}
		if v > cap1 {
			v = cap1
		}
		next[j] = v
		prevDiag = col[j]
		prevNew = v
	}
	return next
}

// Within is the reference oracle: it reports whether text contains a
// substring within edit distance dist of term, by the plain O(len(text)
// × len(term)) Sellers dynamic program (EndCosts). It exists to check
// the DFA (unit tests, the FuzzLevenshteinDFA target, and the planner's
// no-false-negative property tests run the two against each other), not
// to be fast. Unlike Compile, it accepts any term and distance: a term
// of dist or fewer runes trivially matches everything, including the
// empty text.
func Within(text, term string, dist int) bool {
	return slices.Min(EndCosts([]rune(text), []rune(term))) <= dist
}

// EndCosts is the Sellers dynamic program: costs[e], for e in [0,
// len(text)], is the fewest edits that turn term into some window
// text[s:e], s ≤ e, so costs[0] = len(term), the empty window. A window
// within distance d of term ends at e exactly when costs[e] ≤ d.
func EndCosts(text, term []rune) []int {
	costs := make([]int, len(text)+1)
	col := firstColumn(term)
	costs[0] = col[len(term)]
	for e, r := range text {
		step(col, term, r, 0)
		costs[e+1] = col[len(term)]
	}
	return costs
}

// EditDistance is the Levenshtein distance between a and b: the fewest
// rune insertions, deletions and substitutions that turn one into the
// other.
func EditDistance(a, b []rune) int {
	col := firstColumn(b)
	for i, r := range a {
		step(col, b, r, i+1)
	}
	return col[len(b)]
}

// firstColumn is the DP column before any text: col[j] = j, the cost of
// deleting term[:j].
func firstColumn(term []rune) []int {
	col := make([]int, len(term)+1)
	for j := range col {
		col[j] = j
	}
	return col
}

// step advances the DP column col, where col[j] is the cost of matching
// term[:j], by one text rune r: col[0] becomes top (0 lets a Sellers
// window start after r; Levenshtein counts the runes consumed), and
// col[j] the cheapest of pairing r with term[j-1] (free when they are
// equal), leaving r unmatched, or leaving term[j-1] unmatched.
func step(col []int, term []rune, r rune, top int) {
	diag := col[0]
	col[0] = top
	for j, t := range term {
		v := diag
		if t != r {
			v++
		}
		diag = col[j+1]
		col[j+1] = min(v, diag+1, col[j]+1)
	}
}
