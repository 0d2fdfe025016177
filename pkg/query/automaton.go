package query

import (
	"fmt"
	"slices"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/fuzzy"
)

// table is a query's deterministic matcher — a term's Knuth–Morris–Pratt,
// keyword or Levenshtein automaton, or the product of a boolean's leaf
// automata — flattened into one dense transition table, so the DP steps
// it with one lookup per rune. Runes fall into classes: each distinct
// rune of the terms is a class of its own, and every other rune is
// either "other word rune" or "other non-word rune" (the keyword boundary
// test is the only property of a rune outside the terms any automaton
// reads). A table is immutable after compile.
type table struct {
	// next[q*classes+c] is the state a class-c rune leads to from q, with
	// hitBit set when that rune completes a leaf's match. Matching is
	// absorbing, so the DP stops stepping a reading at its first hit.
	// Product transitions never set it.
	next    []uint16
	classes int
	// ascii[b] is the class of ASCII rune b; wide holds the term's
	// non-ASCII runes, ascending — the last len(wide) classes.
	ascii [utf8.RuneSelf]uint16
	wide  []rune
	// atEnd[q] reports states that count as a match when the document
	// ends — needed for keyword queries, whose trailing boundary can be
	// the end of text, and for products, whose formula is decided there.
	atEnd []bool
	start uint16
}

// hitBit flags a transition that completes a match. Every state number
// is below it: terms have at most maxTermRunes runes, a Levenshtein DFA
// at most 2¹⁴ states, and productTable refuses hitBit states or more.
const hitBit = 1 << 15

// The rune classes every table shares; the term's i-th distinct rune, in
// ascending order, has class classTerm+i.
const (
	classOther = iota // a non-word rune absent from the term
	classWord         // a word rune absent from the term
	classTerm
)

// asciiClasses is the class of every ASCII rune absent from a term.
var asciiClasses = func() (c [utf8.RuneSelf]uint16) {
	for r := range c {
		if core.IsWordRune(rune(r)) {
			c[r] = classWord
		}
	}
	return c
}()

// maxTermRunes bounds compiled terms so a leaf's state numbers, and its
// matched sentinel one past them, stay below hitBit, with generous
// headroom for any realistic query.
const maxTermRunes = 1 << 12

// maxTableCells is the transition-table budget of one query: 2²¹ cells,
// 4 MiB. Every Levenshtein DFA fits (at most 2¹⁴ states over 66 classes),
// and so does a maxTermRunes-rune substring term with up to 510 distinct
// runes; a boolean's product table is held to it too.
const maxTableCells = 1 << 21

func compile(term string, mode Mode, dist int) (*table, error) {
	pat := []rune(term)
	if len(pat) == 0 {
		return nil, fmt.Errorf("query: empty term")
	}
	if len(pat) > maxTermRunes {
		return nil, fmt.Errorf("query: term of %d runes exceeds the %d-rune limit", len(pat), maxTermRunes)
	}
	if dist != 0 && mode != ModeFuzzy {
		return nil, fmt.Errorf("query: edit distance %d on non-fuzzy mode %d", dist, mode)
	}
	switch mode {
	case ModeSubstring:
		return kmpTable(pat)
	case ModeKeyword:
		for _, r := range pat {
			if !core.IsWordRune(r) {
				return nil, fmt.Errorf("query: keyword term %q contains non-word character %q", term, r)
			}
		}
		return keywordTable(pat)
	case ModeFuzzy:
		d, err := fuzzy.Compile(term, dist)
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		return fuzzyTable(d)
	default:
		return nil, fmt.Errorf("query: unknown mode %d", mode)
	}
}

// newTable allocates the table of an automaton with the given number of
// states over alphabet, the term's distinct runes in ascending order,
// refusing one above maxTableCells.
func newTable(alphabet []rune, states int) (*table, error) {
	t := &table{classes: classTerm + len(alphabet), ascii: asciiClasses}
	if cells := states * t.classes; cells > maxTableCells {
		return nil, fmt.Errorf("query: term with %d distinct runes needs a %d-state × %d-class transition table of %d cells, above the %d-cell (4 MiB) budget",
			len(alphabet), states, t.classes, cells, maxTableCells)
	}
	t.next = make([]uint16, states*t.classes)
	t.atEnd = make([]bool, states)
	for i, r := range alphabet {
		if r >= utf8.RuneSelf {
			t.wide = alphabet[i:]
			break
		}
		t.ascii[r] = uint16(classTerm + i)
	}
	return t, nil
}

// distinct returns pat's distinct runes in ascending order.
func distinct(pat []rune) []rune {
	alphabet := slices.Clone(pat)
	slices.Sort(alphabet)
	return slices.Compact(alphabet)
}

// class returns the class of rune r.
func (t *table) class(r rune) int {
	if uint32(r) < utf8.RuneSelf {
		return int(t.ascii[r])
	}
	if i, ok := slices.BinarySearch(t.wide, r); ok {
		return t.classes - len(t.wide) + i
	}
	if core.IsWordRune(r) {
		return classWord
	}
	return classOther
}

// step consumes one rune from state q.
func (t *table) step(q uint16, r rune) uint16 {
	return t.next[int(q)*t.classes+t.class(r)]
}

// run advances the automaton over the runes of s from state q — invalid
// UTF-8 bytes read as U+FFFD, one per byte, as ranging over a string
// does — and returns the final state, or the first transition with
// hitBit set: matching is absorbing for "contains" queries.
func (t *table) run(q uint16, s []byte) uint16 {
	next, classes := t.next, t.classes
	for i := 0; i < len(s); {
		var c int
		if b := s[i]; b < utf8.RuneSelf {
			c = int(t.ascii[b])
			i++
		} else {
			r, size := utf8.DecodeRune(s[i:])
			c = t.class(r)
			i += size
		}
		e := next[int(q)*classes+c]
		if e&hitBit != 0 {
			return e
		}
		q = e
	}
	return q
}

// kmpTable builds the Knuth–Morris–Pratt automaton of a substring term:
// state q means "the last q runes seen equal the first q runes of the
// pattern", and reaching len(pat) is a match (which leaves the automaton
// in state 0). Row q copies the row of its restart state x — the state
// the runes after the pattern's first one lead to — and only the
// pattern's next rune moves forward.
func kmpTable(pat []rune) (*table, error) {
	t, err := newTable(distinct(pat), len(pat))
	if err != nil {
		return nil, err
	}
	m, n := len(pat), t.classes
	forward := func(q int) uint16 {
		if q+1 == m {
			return hitBit
		}
		return uint16(q + 1)
	}
	t.next[t.class(pat[0])] = forward(0)
	x := 0
	for q := 1; q < m; q++ {
		c := t.class(pat[q])
		copy(t.next[q*n:(q+1)*n], t.next[x*n:(x+1)*n])
		t.next[q*n+c] = forward(q)
		x = int(t.next[x*n+c])
	}
	return t, nil
}

// keywordTable builds the automaton of a keyword term, which matches when
// delimited by non-word runes (token boundaries). Because the term itself
// is all word runes, a failed partial match can never overlap a valid
// restart — a restart position must follow a non-word rune — so no
// failure function is needed. States:
//
//	0            dead: previous rune was a word rune, cannot start a match
//	1            ready: at a boundary, a match may start
//	1+j (j=1..m) matched the first j runes of the term
//
// State 1+m ("whole term seen") matches when the next rune is a non-word
// rune or the document ends.
func keywordTable(pat []rune) (*table, error) {
	m := len(pat)
	t, err := newTable(distinct(pat), m+2)
	if err != nil {
		return nil, err
	}
	n := t.classes
	for q := 0; q <= m; q++ {
		t.next[q*n+classOther] = 1 // a boundary; word runes lead to the dead state 0
		if q >= 1 {
			t.next[q*n+t.class(pat[q-1])] = uint16(q + 1)
		}
	}
	t.next[(m+1)*n+classOther] = hitBit | uint16(m+1)
	t.atEnd[m+1] = true
	t.start = 1
	return t, nil
}

// fuzzyTable flattens a Levenshtein DFA. Its alphabet is the term's
// distinct runes in ascending order, as a table's is, and every rune
// absent from the term — word rune or not — shares its class 0. The DFA
// matches on entering an accepting state (a window within the edit
// distance just ended); there is no end-of-text acceptance because
// matching is not boundary-conditioned.
func fuzzyTable(d *fuzzy.DFA) (*table, error) {
	alphabet, next, accept := d.Transitions()
	t, err := newTable(alphabet, len(accept))
	if err != nil {
		return nil, err
	}
	hit := func(s uint16) uint16 {
		if accept[s] {
			return s | hitBit
		}
		return s
	}
	k := len(alphabet) + 1
	for q := range accept {
		row, dst := next[q*k:(q+1)*k], t.next[q*t.classes:(q+1)*t.classes]
		dst[classOther], dst[classWord] = hit(row[0]), hit(row[0])
		for i, s := range row[1:] {
			dst[classTerm+i] = hit(s)
		}
	}
	t.start = uint16(d.Start())
	return t, nil
}

// maxLeaves bounds the leaves of a product: each leaf whose term can
// match independently of the others doubles its states, so 15 of them
// already reach hitBit. Capping them up front bounds the search below,
// whose work is its cells times its leaves, before it allocates anything.
const maxLeaves = 15

// productTable compiles a boolean formula over its leaves into one table.
// Its states are the reachable tuples of per-leaf states, each leaf in an
// automaton state or at its matched sentinel, len(atEnd), where a hit
// leaves it for good; its alphabet is the distinct runes of every leaf
// term, so a joint class fixes each leaf's class. A breadth-first search
// finds the states, refusing hitBit of them or more, or more than
// maxTableCells cells, as it goes; they are then numbered in ascending
// order of their encodeStates keys. Transitions never set hitBit: atEnd[s]
// is the formula over state s's matched bits, summed once the document
// ends.
func productTable(leaves []leaf, e expr) (*table, error) {
	if len(leaves) > maxLeaves {
		return nil, fmt.Errorf("query: a boolean of %d distinct terms is past the %d-term limit", len(leaves), maxLeaves)
	}
	var runes []rune
	for _, lf := range leaves {
		runes = append(runes, []rune(lf.term)...)
	}
	alphabet := distinct(runes)
	classes := classTerm + len(alphabet)
	// lc[c*len(leaves)+i] is leaf i's class for joint class c. A leaf
	// table within maxTableCells has at most 1,447 distinct runes, so lc
	// has at most 15 × (2 + 15 × 1,447) entries, 650 KB.
	lc := make([]uint16, 0, classes*len(leaves))
	for c := range classes {
		for _, lf := range leaves {
			if c < classTerm {
				lc = append(lc, uint16(c))
			} else {
				lc = append(lc, uint16(lf.tab.class(alphabet[c-classTerm])))
			}
		}
	}
	cur, to := make([]uint16, len(leaves)), make([]uint16, len(leaves))
	for i, lf := range leaves {
		cur[i] = lf.tab.start
	}
	keys := []string{string(encodeStates(nil, cur))}
	num := map[string]int{keys[0]: 0}
	var next []uint16 // next[s*classes+c], numbered in search order
	var key []byte
	for s := 0; s < len(keys); s++ {
		decodeStates(keys[s], cur)
		for c := range classes {
			for i, lf := range leaves {
				if to[i] = uint16(len(lf.tab.atEnd)); cur[i] == to[i] {
					continue // the matched sentinel, which stays
				}
				if e := lf.tab.next[int(cur[i])*lf.tab.classes+int(lc[c*len(leaves)+i])]; e&hitBit == 0 {
					to[i] = e
				}
			}
			key = encodeStates(key[:0], to)
			n, ok := num[string(key)]
			if !ok {
				if n = len(keys); n+1 >= hitBit || (n+1)*classes > maxTableCells {
					return nil, fmt.Errorf("query: the product of %d terms reaches %d states × %d classes, past the %d-state or %d-cell (4 MiB) limit",
						len(leaves), n+1, classes, hitBit-1, maxTableCells)
				}
				keys = append(keys, string(key))
				num[keys[n]] = n
			}
			next = append(next, uint16(n))
		}
	}
	rank := make([]uint16, len(keys))
	for r, k := range slices.Sorted(slices.Values(keys)) {
		rank[num[k]] = uint16(r)
	}
	t, err := newTable(alphabet, len(keys))
	if err != nil {
		return nil, err
	}
	bits := make([]bool, len(leaves))
	for s, k := range keys {
		r := int(rank[s])
		for c := range classes {
			t.next[r*classes+c] = rank[next[s*classes+c]]
		}
		decodeStates(k, cur)
		for i, lf := range leaves {
			bits[i] = cur[i] == uint16(len(lf.tab.atEnd)) || lf.tab.atEnd[cur[i]]
		}
		t.atEnd[r] = e.eval(bits)
	}
	t.start = rank[0]
	return t, nil
}

// encodeStates appends a per-leaf state vector to b, two little-endian
// bytes per leaf: a product state's key.
func encodeStates(b []byte, states []uint16) []byte {
	for _, s := range states {
		b = append(b, byte(s), byte(s>>8))
	}
	return b
}

func decodeStates(key string, dst []uint16) {
	for i := range dst {
		dst[i] = uint16(key[2*i]) | uint16(key[2*i+1])<<8
	}
}
