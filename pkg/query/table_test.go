package query

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// overBudgetTerm is a maxTermRunes-rune substring term with 600 distinct
// runes: its table would need 4096 × 602 cells, above maxTableCells.
func overBudgetTerm() string {
	var sb strings.Builder
	for i := range maxTermRunes {
		sb.WriteRune(rune(0x4e00 + i%600))
	}
	return sb.String()
}

// TestTableBudget pins the transition-table budget: the longest term
// compiles in every mode that admits it, as does a substring term of the
// longest length with 510 distinct runes and every Levenshtein DFA
// fuzzy.Compile builds; a term whose table would pass the budget, a
// boolean whose product would, and a boolean of more than maxLeaves terms
// are refused with an error that names the limit.
func TestTableBudget(t *testing.T) {
	ascii := strings.Repeat("abcdefghijklmnopqrstuvwxyz0123456789", maxTermRunes/36+1)[:maxTermRunes]
	for _, mode := range []Mode{ModeSubstring, ModeKeyword} {
		if _, err := compile(ascii, mode, 0); err != nil {
			t.Errorf("a %d-rune ASCII term in mode %d: %v", maxTermRunes, mode, err)
		}
	}
	var wide strings.Builder
	for i := range maxTermRunes {
		wide.WriteRune(rune(0x4e00 + i%510))
	}
	if _, err := Substring(wide.String()); err != nil {
		t.Errorf("a %d-rune substring term with 510 distinct runes: %v", maxTermRunes, err)
	}

	// fuzzy.Compile caps a DFA at 2¹⁴ states over at most 64 distinct
	// runes, so every table it yields fits. Compile 64-rune terms at
	// distance 2 from one repeated rune up to 64 distinct ones: each must
	// compile unless fuzzy.Compile itself refuses it (a⁶⁴ passes its state
	// cap), and none may hit the table budget.
	if (1<<14)*(classTerm+64) > maxTableCells {
		t.Fatal("the largest Levenshtein DFA no longer fits the table budget")
	}
	const runes = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ-_"
	terms := []string{strings.Repeat("a", 64), strings.Repeat("ab", 32), strings.Repeat("abcd", 16), runes}
	rng := rand.New(rand.NewSource(5))
	for k := 2; k <= 64; k *= 2 {
		var sb strings.Builder
		for range 64 {
			sb.WriteByte(runes[rng.Intn(k)])
		}
		terms = append(terms, sb.String())
	}
	for _, term := range terms {
		_, err := Fuzzy(term, 2)
		if _, ferr := fuzzy.Compile(term, 2); err != nil && ferr == nil {
			t.Errorf("fuzzy(%q, 2): %v", term, err)
		}
	}

	_, err := Substring(overBudgetTerm())
	if err == nil {
		t.Fatal("an over-budget term compiled")
	}
	if msg := err.Error(); !strings.Contains(msg, "budget") || !strings.Contains(msg, strconv.Itoa(maxTableCells)) {
		t.Errorf("over-budget error %q does not name the %d-cell budget", msg, maxTableCells)
	}

	// A boolean's product table is held to the budget too, and to state
	// numbers below hitBit: the And of six 6-rune fuzzy d=2 leaves over
	// disjoint alphabets reaches hitBit states over 38 classes, well
	// under the cell budget, so it is the state limit that refuses it.
	spec := Spec{Terms: []string{"abcdef", "ghijkl", "mnopqr", "stuvwx", "yzABCD", "EFGHIJ"}, Mode: "fuzzy", Distance: 2}
	if hitBit*(classTerm+36) > maxTableCells {
		t.Fatal("the over-budget boolean no longer reaches the state limit first")
	}
	_, err = spec.Compile()
	if err == nil {
		t.Fatal("an over-budget boolean compiled")
	}
	if msg := err.Error(); !strings.Contains(msg, strconv.Itoa(hitBit)+" states") || !strings.Contains(msg, strconv.Itoa(hitBit-1)+"-state") {
		t.Errorf("over-budget boolean error %q does not name the %d-state limit it reached", msg, hitBit-1)
	}

	// More than maxLeaves terms are refused before a leaf compiles, and a
	// product of more than maxLeaves leaves before its search allocates.
	// One-rune terms keep every leaf table tiny, so only the joint
	// alphabet grows with the term count.
	many := make([]string, 5000)
	for i := range many {
		many[i] = string(rune(0x4e00 + i))
	}
	if _, err := (Spec{Terms: many, Combine: "or"}).Compile(); err == nil || !strings.Contains(err.Error(), "at most "+strconv.Itoa(maxLeaves)) {
		t.Errorf("an Or of %d terms: error %v, want the %d-term limit", len(many), err, maxLeaves)
	}
	ors := make([]*Query, maxLeaves+1)
	for i := range ors {
		ors[i] = mustCompile(t)(Substring(many[i]))
	}
	if _, err := combine(opOr, ors[0], ors[1:]).withTable(); err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxLeaves)+"-term limit") {
		t.Errorf("a product of %d leaves: error %v, want the %d-term limit", len(ors), err, maxLeaves)
	}

	defer func() {
		if recover() == nil {
			t.Error("And of an over-budget product did not panic")
		}
	}()
	leaves := make([]*Query, len(spec.Terms))
	for i, term := range spec.Terms {
		leaves[i] = mustCompile(t)(Fuzzy(term, 2))
	}
	And(leaves[0], leaves[1:]...)
}

// TestEvalAllocs pins the DP's allocations for queries whose table fits
// evalStackStates, leaves and booleans alike: none over a View already
// grown to the document, and none through Eval.
func TestEvalAllocs(t *testing.T) {
	_, f := testgen.MustGenerate(testgen.Config{Length: 120, Seed: 3})
	d, err := staccato.Build(f, "d", 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := store.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	var v store.View
	if err := v.Parse(data); err != nil {
		t.Fatal(err)
	}
	sub := func(term string) *Query { return mustCompile(t)(Substring(term)) }
	kw := func(term string) *Query { return mustCompile(t)(Keyword(term)) }
	for _, q := range []*Query{
		sub("the"),
		kw("and"),
		mustCompile(t)(Fuzzy("stack", 1)),
		And(kw("and"), kw("the")),
		And(kw("and"), Not(kw("the"))),
		Or(sub("the"), sub("ing"), sub("ion")),
	} {
		if len(q.tab.atEnd) > evalStackStates {
			t.Fatalf("%s: %d table states, above the %d evaluated on the stack", q, len(q.tab.atEnd), evalStackStates)
		}
		if n := testing.AllocsPerRun(100, func() { q.evalView(&v) }); n != 0 {
			t.Errorf("%s over a warm View: %v allocations, want 0", q, n)
		}
		if n := testing.AllocsPerRun(100, func() { q.Eval(d) }); n != 0 {
			t.Errorf("%s: Eval takes %v allocations, want 0", q, n)
		}
	}
}

func mustCompile(t *testing.T) func(*Query, error) *Query {
	return func(q *Query, err error) *Query {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
}
