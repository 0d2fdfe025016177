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
// fuzzy.Compile builds; a term whose table would pass the budget is
// refused with an error that names it.
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
}

// TestEvalAllocs pins the DP's allocations for single-term queries: none
// over a View already grown to the document, and none through Eval once
// its pooled View has.
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
	for _, q := range []*Query{
		mustCompile(t)(Substring("the")),
		mustCompile(t)(Keyword("and")),
		mustCompile(t)(Fuzzy("stack", 1)),
	} {
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
