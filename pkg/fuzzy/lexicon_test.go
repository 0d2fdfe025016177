package fuzzy

import (
	"math"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

func TestLexiconBasics(t *testing.T) {
	l := NewLexicon([]string{"Staccato", "query", "", "query"})
	if l.Len() != 2 {
		t.Fatalf("Len=%d, want 2", l.Len())
	}
	for _, w := range []string{"staccato", "STACCATO", "query"} {
		if !l.Contains(w) {
			t.Errorf("Contains(%q)=false, want true", w)
		}
	}
	if l.Contains("staccat0") {
		t.Error("Contains(staccat0)=true, want false")
	}
}

func TestReadLexicon(t *testing.T) {
	src := "# comment\nstaccato\n\n  Query  \n#also a comment\nocr\n"
	l, err := ReadLexicon(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 {
		t.Fatalf("Len=%d, want 3", l.Len())
	}
	if !l.Contains("query") || !l.Contains("ocr") {
		t.Error("trimmed/lowercased entries missing")
	}
}

func rescoreDoc() *staccato.Doc {
	return &staccato.Doc{
		ID:     "d1",
		Params: staccato.Params{Chunks: 2, K: 2},
		Chunks: []staccato.PathSet{
			{Alts: []staccato.Alt{
				{Text: "staccat0 ", Prob: 0.6},
				{Text: "staccato ", Prob: 0.4},
			}, Retained: 0.9},
			{Alts: []staccato.Alt{
				{Text: "system", Prob: 0.7},
				{Text: "syst3m", Prob: 0.3},
			}, Retained: 0.8},
		},
	}
}

func TestRescorerReweightsTowardLexicon(t *testing.T) {
	l := NewLexicon([]string{"staccato", "system"})
	doc := rescoreDoc()
	out := l.Rescorer()(doc)

	// The input document is untouched.
	if doc.Chunks[0].Alts[0].Text != "staccat0 " || doc.Chunks[0].Alts[0].Prob != 0.6 {
		t.Fatal("Rescorer mutated its input document")
	}
	// In-dictionary "staccato " (0.4·4) now outweighs "staccat0 " (0.6·1).
	if got := out.Chunks[0].Alts[0].Text; got != "staccato " {
		t.Fatalf("top alternative after rescore: %q, want \"staccato \"", got)
	}
	for ci, ch := range out.Chunks {
		var sum float64
		for ai, alt := range ch.Alts {
			if alt.Prob <= 0 {
				t.Fatalf("chunk %d alt %d: probability %v lost support", ci, ai, alt.Prob)
			}
			sum += alt.Prob
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("chunk %d: probabilities sum to %v, want 1", ci, sum)
		}
		for ai := 1; ai < len(ch.Alts); ai++ {
			if ch.Alts[ai-1].Prob < ch.Alts[ai].Prob {
				t.Fatalf("chunk %d: alts not sorted by descending probability", ci)
			}
		}
		if !almostEq(ch.Retained, doc.Chunks[ci].Retained) {
			t.Fatalf("chunk %d: Retained changed", ci)
		}
	}
	// Deterministic: rescoring twice yields bit-identical output.
	out2 := l.Rescorer()(rescoreDoc())
	for ci := range out.Chunks {
		for ai := range out.Chunks[ci].Alts {
			a, b := out.Chunks[ci].Alts[ai], out2.Chunks[ci].Alts[ai]
			// Bit-identity is exactly what this test asserts
			if a.Text != b.Text || a.Prob != b.Prob {
				t.Fatalf("rescore is nondeterministic at chunk %d alt %d", ci, ai)
			}
		}
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestRescorerIdentityCases(t *testing.T) {
	if doc := rescoreDoc(); NewLexicon(nil).Rescorer()(doc) != doc {
		t.Error("an empty lexicon's rescorer is not the identity transform")
	}
	if got := NewLexicon([]string{"x"}).Rescorer()(nil); got != nil {
		t.Error("rescoring nil should return nil")
	}
}

func TestTokenBoostMixedTokens(t *testing.T) {
	l := NewLexicon([]string{"good"})
	// "good bad": one of two tokens in the lexicon → DefaultBoost^(1/2) = 2.
	got := l.tokenBoost("good bad")
	if !almostEq(got, 2) {
		t.Fatalf("tokenBoost(good bad)=%v, want 2", got)
	}
	// No word tokens → neutral weight.
	if got := l.tokenBoost(" .,! "); !almostEq(got, 1) {
		t.Fatalf("tokenBoost(punctuation)=%v, want 1", got)
	}
	// No hits → neutral weight, not boost^0 computed the long way.
	if got := l.tokenBoost("bad worse"); !almostEq(got, 1) {
		t.Fatalf("tokenBoost(no hits)=%v, want 1", got)
	}
}
