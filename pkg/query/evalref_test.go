package query

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// This file keeps the evaluator the transition tables replaced — one
// automaton behind an interface per leaf, stepped rune by rune over a
// decoded Doc — as the reference the tables and the View DP are held to,
// bit for bit.

// refAutomaton is a deterministic matcher compiled from a query term.
// step consumes one rune and reports whether the term just finished
// matching; acceptAtEnd reports states that count as a match when the
// document ends.
type refAutomaton interface {
	numStates() int
	start() int
	step(q int, r rune) (next int, matched bool)
	acceptAtEnd(q int) bool
}

// refCompile builds a leaf's reference automaton.
func refCompile(lf leaf) refAutomaton {
	pat := []rune(lf.term)
	switch lf.mode {
	case ModeKeyword:
		return refKeyword{pat}
	case ModeFuzzy:
		return refFuzzy{fuzzy.MustCompile(lf.term, lf.dist)}
	default:
		return newRefKMP(pat)
	}
}

type refFuzzy struct{ dfa *fuzzy.DFA }

func (a refFuzzy) numStates() int                 { return a.dfa.NumStates() }
func (a refFuzzy) start() int                     { return a.dfa.Start() }
func (a refFuzzy) step(q int, r rune) (int, bool) { return a.dfa.Step(q, r) }
func (a refFuzzy) acceptAtEnd(int) bool           { return false }

type refKMP struct {
	pat  []rune
	fail []int
}

func newRefKMP(pat []rune) *refKMP {
	fail := make([]int, len(pat))
	for i := 1; i < len(pat); i++ {
		j := fail[i-1]
		for j > 0 && pat[i] != pat[j] {
			j = fail[j-1]
		}
		if pat[i] == pat[j] {
			j++
		}
		fail[i] = j
	}
	return &refKMP{pat: pat, fail: fail}
}

func (a *refKMP) numStates() int { return len(a.pat) }
func (a *refKMP) start() int     { return 0 }

func (a *refKMP) step(q int, r rune) (int, bool) {
	for q > 0 && r != a.pat[q] {
		q = a.fail[q-1]
	}
	if r == a.pat[q] {
		q++
	}
	if q == len(a.pat) {
		return 0, true
	}
	return q, false
}

func (a *refKMP) acceptAtEnd(int) bool { return false }

type refKeyword struct{ pat []rune }

func (a refKeyword) numStates() int { return len(a.pat) + 2 }
func (a refKeyword) start() int     { return 1 }

func (a refKeyword) step(q int, r rune) (int, bool) {
	m := len(a.pat)
	if q == m+1 {
		if !core.IsWordRune(r) {
			return q, true
		}
		return 0, false
	}
	if q >= 1 && r == a.pat[q-1] {
		return q + 1, false
	}
	if !core.IsWordRune(r) {
		return 1, false
	}
	return 0, false
}

func (a refKeyword) acceptAtEnd(q int) bool { return q == len(a.pat)+1 }

// refEval is Eval as it was: a dense DP per single leaf, the sorted-key
// product DP for booleans, both over the Doc's alternative strings.
func refEval(q *Query, d *staccato.Doc) float64 {
	if q.expr == nil {
		return 0
	}
	autos := make([]refAutomaton, len(q.leaves))
	for i, lf := range q.leaves {
		autos[i] = refCompile(lf)
	}
	if le, ok := q.expr.(leafExpr); ok {
		return min(refEvalDoc(d, autos[le]), 1)
	}
	return min(refEvalProduct(q.expr, autos, d), 1)
}

func refEvalDoc(d *staccato.Doc, a refAutomaton) float64 {
	n := a.numStates()
	vec, next := make([]float64, n), make([]float64, n)
	vec[a.start()] = 1
	matched := 0.0
	for _, ch := range d.Chunks {
		clear(next)
		for q, p := range vec {
			// Exact zero marks an unreached state, as in the DP this mirrors
			if p == 0 {
				continue
			}
			for _, alt := range ch.Alts {
				q2, hit := refRunString(a, q, alt.Text)
				if hit {
					matched += float64(p * alt.Prob)
				} else {
					next[q2] += float64(p * alt.Prob)
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

func refRunString(a refAutomaton, q int, s string) (int, bool) {
	for _, r := range s {
		var hit bool
		q, hit = a.step(q, r)
		if hit {
			return q, true
		}
	}
	return q, false
}

func refEvalProduct(e expr, autos []refAutomaton, d *staccato.Doc) float64 {
	states := make([]uint16, len(autos))
	for i, a := range autos {
		states[i] = uint16(a.start())
	}
	cur := map[string]float64{refEncode(states): 1}
	for _, ch := range d.Chunks {
		next := make(map[string]float64, len(cur))
		for _, key := range refSortedKeys(cur) {
			p := cur[key]
			for _, alt := range ch.Alts {
				refDecode(key, states)
				for _, r := range alt.Text {
					for i, a := range autos {
						sentinel := uint16(a.numStates())
						if states[i] == sentinel {
							continue
						}
						q2, hit := a.step(int(states[i]), r)
						if hit {
							states[i] = sentinel
						} else {
							states[i] = uint16(q2)
						}
					}
				}
				next[refEncode(states)] += float64(p * alt.Prob)
			}
		}
		cur = next
	}
	bits := make([]bool, len(autos))
	var total float64
	for _, key := range refSortedKeys(cur) {
		refDecode(key, states)
		for i, a := range autos {
			bits[i] = states[i] == uint16(a.numStates()) || a.acceptAtEnd(int(states[i]))
		}
		if e.eval(bits) {
			total += cur[key]
		}
	}
	return total
}

func refEncode(states []uint16) string {
	b := make([]byte, 2*len(states))
	for i, s := range states {
		b[2*i] = byte(s)
		b[2*i+1] = byte(s >> 8)
	}
	return string(b)
}

func refDecode(key string, dst []uint16) {
	for i := range dst {
		dst[i] = uint16(key[2*i]) | uint16(key[2*i+1])<<8
	}
}

func refSortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// probeRunes are the runes every table transition is checked on besides
// the term's own: all of ASCII, U+FFFD (what an invalid byte reads as),
// and a non-ASCII letter and non-letter.
func probeRunes(term string) []rune {
	rs := []rune(term)
	for r := rune(0); r < utf8.RuneSelf; r++ {
		rs = append(rs, r)
	}
	return append(rs, utf8.RuneError, 'ж', '†')
}

// TestTableStepMatchesReference checks every transition of every
// compiled table against the reference automaton's step: for every state,
// on every term rune, every ASCII rune, U+FFFD and a non-ASCII letter and
// non-letter, the same next state and the same hit flag; and the same
// state count, start state and end-of-text acceptance.
func TestTableStepMatchesReference(t *testing.T) {
	terms := []string{"a", "ab", "aab", "abab", "aabaab", "the", "stac", "probable", "zz",
		"naïve", "ünïcödé", "Жук", "中文字", "a b", "x-y", "é—é", "�a", "a�", "1x9", "ababcabab"}
	for _, term := range terms {
		for _, lf := range []leaf{
			{term: term, mode: ModeSubstring},
			{term: term, mode: ModeKeyword},
			{term: term, mode: ModeFuzzy, dist: 0},
			{term: term, mode: ModeFuzzy, dist: 1},
			{term: term, mode: ModeFuzzy, dist: 2},
		} {
			tab, err := compile(lf.term, lf.mode, lf.dist)
			if err != nil {
				continue // a keyword term with a non-word rune, a fuzzy term too short for its distance
			}
			ref := refCompile(lf)
			name := fmt.Sprintf("%v %q d=%d", lf.mode, lf.term, lf.dist)
			if len(tab.atEnd) != ref.numStates() || int(tab.start) != ref.start() {
				t.Fatalf("%s: %d states from %d, reference %d from %d", name, len(tab.atEnd), tab.start, ref.numStates(), ref.start())
			}
			for q := range ref.numStates() {
				if tab.atEnd[q] != ref.acceptAtEnd(q) {
					t.Fatalf("%s: state %d end acceptance %t, reference %t", name, q, tab.atEnd[q], ref.acceptAtEnd(q))
				}
				for _, r := range probeRunes(term) {
					e := tab.step(uint16(q), r)
					next, hit := ref.step(q, r)
					if int(e&^hitBit) != next || (e&hitBit != 0) != hit {
						t.Fatalf("%s: step(%d, %q) = %d hit %t, reference %d hit %t", name, q, r, e&^hitBit, e&hitBit != 0, next, hit)
					}
				}
			}
		}
	}
}

// fuzzPieces are spliced into documents and terms by the evaluation fuzz
// target: word and non-word ASCII, non-ASCII letters and non-letters,
// U+FFFD, and bytes that are not UTF-8 at all (a lone continuation byte,
// a truncated two-byte sequence, 0xff).
var fuzzPieces = []string{"a", "e", "o", "n", "t", "s", "th", " ", "-", ".", "1",
	"é", "ß", "Ж", "中", "—", "�", "\x80", "\xc3", "\xff"}

// fuzzDoc copies base and splices pieces into its alternative texts, two
// input bytes per edit: which alternative, and which piece at which byte
// offset — an offset inside a multi-byte rune splits it into invalid
// UTF-8. Edits past the 64th are ignored, which keeps a long input from
// growing the document without bound.
func fuzzDoc(base *staccato.Doc, edits []byte) *staccato.Doc {
	edits = edits[:min(len(edits), 128)]
	d := &staccato.Doc{ID: base.ID, Params: base.Params, Chunks: make([]staccato.PathSet, len(base.Chunks))}
	var alts []*staccato.Alt
	for i, ch := range base.Chunks {
		d.Chunks[i] = staccato.PathSet{Retained: ch.Retained, Alts: append([]staccato.Alt(nil), ch.Alts...)}
		for j := range d.Chunks[i].Alts {
			alts = append(alts, &d.Chunks[i].Alts[j])
		}
	}
	for len(edits) >= 2 && len(alts) > 0 {
		a := alts[int(edits[0])%len(alts)]
		piece := fuzzPieces[int(edits[1])%len(fuzzPieces)]
		at := int(edits[1]/byte(len(fuzzPieces))) % (len(a.Text) + 1)
		a.Text = a.Text[:at] + piece + a.Text[at:]
		edits = edits[2:]
	}
	return d
}

// fuzzQuery compiles up to three leaves from spec — per leaf a mode and
// distance byte, a length byte and that many piece bytes — and combines
// them in one of several shapes over And, Or and Not, through the
// error-returning path Spec.Compile takes. It returns nil when spec
// names no compilable leaf, or a formula whose product table is refused.
func fuzzQuery(spec []byte) *Query {
	next := func() byte {
		if len(spec) == 0 {
			return 0
		}
		b := spec[0]
		spec = spec[1:]
		return b
	}
	shape := next()
	var leaves []*Query
	for range 1 + int(shape%3) {
		kind := next()
		var term string
		for range 1 + int(next()%6) {
			term += fuzzPieces[int(next())%len(fuzzPieces)]
		}
		var q *Query
		var err error
		switch kind % 3 {
		case 0:
			q, err = Substring(term)
		case 1:
			q, err = Keyword(term)
		default:
			q, err = Fuzzy(term, int(kind/3)%3)
		}
		if err == nil {
			leaves = append(leaves, q)
		}
	}
	if len(leaves) == 0 {
		return nil
	}
	a, b, c := leaves[0], leaves[len(leaves)/2], leaves[len(leaves)-1]
	not := func(q *Query) *Query { return combine(opNot, q, nil) }
	var f *Query
	switch (shape / 3) % 6 {
	case 0:
		return a
	case 1:
		f = combine(opAnd, a, []*Query{b, c})
	case 2:
		f = combine(opOr, a, []*Query{b, c})
	case 3:
		f = not(a)
	case 4:
		f = combine(opAnd, a, []*Query{not(b)})
	default:
		f = combine(opOr, combine(opAnd, a, []*Query{b}), []*Query{not(c)})
	}
	q, err := f.withTable()
	if err != nil {
		return nil
	}
	return q
}

// FuzzEvalTableMatchesReference holds the table DP to the automata and
// DP it replaced. Documents are error-model readings with pieces spliced
// into their alternatives — non-ASCII runes and invalid UTF-8 among them;
// queries are substring, keyword and fuzzy (d = 0–2) leaves whose terms
// carry non-ASCII and non-word runes, alone or under And, Or and Not.
// Evaluating the encoded record through a parsed View and the Doc through
// Eval must both give the reference probability's exact bits.
func FuzzEvalTableMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{3, 4, 9, 15}, []byte{0, 0, 1, 0})
	f.Add(uint8(1), []byte{0, 17, 2, 11, 5, 12}, []byte{4, 1, 2, 1, 6, 5, 1, 12})
	f.Add(uint8(2), []byte{}, []byte{7, 2, 3, 0, 4, 6, 0, 3, 7, 1, 4})
	f.Add(uint8(3), []byte{1, 16, 1, 18, 2, 19}, []byte{11, 8, 1, 16, 0, 2, 0, 0, 15, 1, 3})
	f.Add(uint8(1), []byte{2, 10, 2, 8}, []byte{16, 1, 3, 0, 8, 1, 2, 1, 0})
	var bases []*staccato.Doc
	for seed := int64(1); seed <= 4; seed++ {
		_, f0 := testgen.MustGenerate(testgen.Config{Length: 24, Seed: seed})
		d, err := staccato.Build(f0, fmt.Sprintf("d%d", seed), 4, 3)
		if err != nil {
			f.Fatal(err)
		}
		bases = append(bases, d)
	}
	f.Fuzz(func(t *testing.T, base uint8, edits, spec []byte) {
		q := fuzzQuery(spec)
		if q == nil {
			return
		}
		d := fuzzDoc(bases[int(base)%len(bases)], edits)
		want := refEval(q, d)
		if got := q.Eval(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Eval = %v, reference %v", q, got, want)
		}
		data, err := store.Encode(d)
		if err != nil {
			t.Fatal(err)
		}
		var v store.View
		if err := v.Parse(data); err != nil {
			t.Fatal(err)
		}
		if got := q.evalView(&v, nil); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: the View DP = %v, reference %v", q, got, want)
		}
	})
}
