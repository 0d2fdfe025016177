package index_test

import (
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// trueGramProbs enumerates every reading of doc and returns, per q-gram,
// the exact probability that at least one occurrence of the gram appears
// in the realized string — the quantity DocGramBounds promises to bound
// from above.
func trueGramProbs(doc *staccato.Doc, q int) map[string]float64 {
	occ := make(map[string]float64)
	seen := make(map[string]struct{})
	doc.Readings(func(text string, prob float64) bool {
		clear(seen)
		runes := []rune(text)
		for i := 0; i+q <= len(runes); i++ {
			g := string(runes[i : i+q])
			if _, dup := seen[g]; !dup {
				seen[g] = struct{}{}
				occ[g] += prob
			}
		}
		return true
	})
	return occ
}

// TestDocGramBoundsAdmissibleProperty is the safety property the whole
// top-k path rests on: for generated OCR-style docs, every indexed gram's
// bound must dominate the exact occurrence probability computed by brute
// force over all readings. An inadmissible bound would let early
// termination silently drop true top-k results.
func TestDocGramBoundsAdmissibleProperty(t *testing.T) {
	const q = 3
	cases, err := testgen.Docs(40, testgen.Config{Length: 25, Seed: 99}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, c := range cases {
		grams, bounds, _, ok := index.DocGramBounds(c.Doc, q)
		if !ok {
			continue // overflow docs carry no bounds; they index as always-candidates
		}
		if len(grams) != len(bounds) {
			t.Fatalf("doc %s: %d grams but %d bounds", c.Doc.ID, len(grams), len(bounds))
		}
		byGram := make(map[string]float64, len(grams))
		for i, g := range grams {
			byGram[g] = index.Dequantize(bounds[i])
		}
		for g, p := range trueGramProbs(c.Doc, q) {
			b, indexed := byGram[g]
			if !indexed {
				t.Fatalf("doc %s: gram %q occurs with probability %v but was not indexed", c.Doc.ID, g, p)
			}
			if p > b*(1+1e-9) {
				t.Fatalf("doc %s: gram %q bound %v < true occurrence probability %v (inadmissible)",
					c.Doc.ID, g, b, p)
			}
			checked++
		}

		// DocGrams must agree with the bounded variant on the gram set.
		plain, ok2 := index.DocGrams(c.Doc, q)
		if !ok2 || len(plain) != len(grams) {
			t.Fatalf("doc %s: DocGrams and DocGramBounds disagree (%d vs %d grams)",
				c.Doc.ID, len(plain), len(grams))
		}
		for i := range plain {
			if plain[i] != grams[i] {
				t.Fatalf("doc %s: gram %d is %q vs %q", c.Doc.ID, i, plain[i], grams[i])
			}
		}
	}
	if checked == 0 {
		t.Fatal("vacuous property: no (doc, gram) pair was checked")
	}
	t.Logf("checked %d (doc, gram) pairs", checked)
}

// TestDocGramBoundsOverlappingOccurrences pins the case that breaks the
// naive per-chunk max-probability bound: a gram that can be completed by
// several different alternative combinations. Here "abc" appears in every
// reading (probability 1) even though no single alternative carries more
// than probability 0.5 — the union bound must still reach 1.
func TestDocGramBoundsOverlappingOccurrences(t *testing.T) {
	doc := &staccato.Doc{
		ID:     "overlap",
		Params: staccato.Params{Chunks: 2, K: 2},
		Chunks: []staccato.PathSet{
			{Alts: []staccato.Alt{{Text: "ab", Prob: 0.5}, {Text: "abc", Prob: 0.5}}, Retained: 1},
			{Alts: []staccato.Alt{{Text: "c", Prob: 0.5}, {Text: "cd", Prob: 0.5}}, Retained: 1},
		},
	}
	grams, bounds, _, ok := index.DocGramBounds(doc, 3)
	if !ok {
		t.Fatal("unexpected overflow")
	}
	found := false
	for i, g := range grams {
		if g == "abc" {
			found = true
			if bounds[i] != index.Quantize(1) {
				t.Fatalf("bound for \"abc\" = %v, want 1: every reading contains it", index.Dequantize(bounds[i]))
			}
		}
	}
	if !found {
		t.Fatal("gram \"abc\" missing from the index entry")
	}
	if p := trueGramProbs(doc, 3)["abc"]; p < 1-1e-12 {
		t.Fatalf("test premise broken: true P(abc) = %v, want 1", p)
	}
}

// TestEntryBoundDefaults pins Entry.Bound's missing-data contract: absent
// bounds (legacy entries, overflow docs) read as the always-admissible 1.
func TestEntryBoundDefaults(t *testing.T) {
	e := index.Entry{ID: "d", Grams: []string{"abc", "bcd"}, Bounds: []uint16{index.Quantize(0.25)}}
	if got := e.Bound(0); got != index.Quantize(0.25) {
		t.Fatalf("Bound(0) = %v, want 0.25", got)
	}
	if got := e.Bound(1); got != index.Quantize(1) {
		t.Fatalf("Bound(1) with missing bound = %v, want 1", got)
	}
	if got := e.Bound(99); got != index.Quantize(1) {
		t.Fatalf("Bound(99) out of range = %v, want 1", got)
	}
}
