package query_test

import (
	"math"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/fst"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// doc builds a Doc literal from per-chunk (text, prob) pairs.
func doc(chunks ...[]staccato.Alt) *staccato.Doc {
	d := &staccato.Doc{ID: "t"}
	for _, alts := range chunks {
		d.Chunks = append(d.Chunks, staccato.PathSet{Alts: alts, Retained: 1})
	}
	return d
}

// substrProb, kwProb, and fstSubstrProb are the compiled-Query forms of
// the deleted v1 free functions, kept as test helpers so the table tests
// below stay term-oriented.
func substrProb(d *staccato.Doc, term string) (float64, error) {
	q, err := query.Substring(term)
	if err != nil {
		return 0, err
	}
	return q.Eval(d), nil
}

func kwProb(d *staccato.Doc, term string) (float64, error) {
	q, err := query.Keyword(term)
	if err != nil {
		return 0, err
	}
	return q.Eval(d), nil
}

func fstSubstrProb(f *fst.SFST, term string) (float64, error) {
	q, err := query.Substring(term)
	if err != nil {
		return 0, err
	}
	return q.EvalFST(f)
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestSubstringWithinChunk(t *testing.T) {
	d := doc([]staccato.Alt{{Text: "hello", Prob: 0.8}, {Text: "hallo", Prob: 0.2}})
	for _, tc := range []struct {
		term string
		want float64
	}{
		{"ell", 0.8},
		{"allo", 0.2},
		{"llo", 1.0},
		{"hello", 0.8},
		{"xyz", 0},
	} {
		p, err := substrProb(d, tc.term)
		if err != nil {
			t.Fatalf("%q: %v", tc.term, err)
		}
		approx(t, "P("+tc.term+")", p, tc.want)
	}
}

func TestSubstringSpansChunkBoundary(t *testing.T) {
	d := doc(
		[]staccato.Alt{{Text: "ab", Prob: 0.5}, {Text: "ax", Prob: 0.5}},
		[]staccato.Alt{{Text: "cd", Prob: 0.7}, {Text: "xd", Prob: 0.3}},
	)
	// "bc" requires first chunk "ab" and second "cd": 0.5 * 0.7.
	p, err := substrProb(d, "bc")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, `P(bc)`, p, 0.35)
	// "xx" spans as ...x + x...: "ax" then "xd": 0.5 * 0.3.
	p, err = substrProb(d, "xx")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, `P(xx)`, p, 0.15)
}

func TestSubstringThreeChunkSpan(t *testing.T) {
	d := doc(
		[]staccato.Alt{{Text: "a", Prob: 0.9}, {Text: "z", Prob: 0.1}},
		[]staccato.Alt{{Text: "b", Prob: 0.6}, {Text: "q", Prob: 0.4}},
		[]staccato.Alt{{Text: "c", Prob: 0.5}, {Text: "y", Prob: 0.5}},
	)
	p, err := substrProb(d, "abc")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "P(abc)", p, 0.9*0.6*0.5)
}

func TestSubstringDoesNotDoubleCount(t *testing.T) {
	// Both alternatives contain "a"; probability must be exactly 1, not
	// the sum of per-occurrence masses.
	d := doc([]staccato.Alt{{Text: "aa", Prob: 0.5}, {Text: "ba", Prob: 0.5}})
	p, err := substrProb(d, "a")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "P(a)", p, 1)
}

func TestCompiledTermsAcrossAlternatives(t *testing.T) {
	d := doc([]staccato.Alt{{Text: "abc", Prob: 0.6}, {Text: "abd", Prob: 0.4}})
	for _, tc := range []struct {
		term string
		want float64
	}{
		{"ab", 1},
		{"abd", 0.4},
		{"zz", 0},
	} {
		p, err := substrProb(d, tc.term)
		if err != nil {
			t.Fatalf("%q: %v", tc.term, err)
		}
		approx(t, "P("+tc.term+")", p, tc.want)
	}
}

func TestEmptyTermRejected(t *testing.T) {
	d := doc([]staccato.Alt{{Text: "x", Prob: 1}})
	if _, err := substrProb(d, ""); err == nil {
		t.Error("empty substring term should be rejected")
	}
	if _, err := kwProb(d, ""); err == nil {
		t.Error("empty keyword term should be rejected")
	}
}

func TestKeywordBoundaries(t *testing.T) {
	d := doc([]staccato.Alt{{Text: "the cat sat", Prob: 0.5}, {Text: "the category", Prob: 0.5}})
	for _, tc := range []struct {
		term string
		want float64
	}{
		{"cat", 0.5},      // "category" must not match as a keyword
		{"the", 1.0},      // at document start
		{"sat", 0.5},      // at document end
		{"category", 0.5}, // whole token at end
		{"at", 0},         // interior substring only
	} {
		p, err := kwProb(d, tc.term)
		if err != nil {
			t.Fatalf("%q: %v", tc.term, err)
		}
		approx(t, "keyword P("+tc.term+")", p, tc.want)
	}
}

func TestKeywordSpansChunkBoundary(t *testing.T) {
	d := doc(
		[]staccato.Alt{{Text: "big ca", Prob: 0.6}, {Text: "big co", Prob: 0.4}},
		[]staccato.Alt{{Text: "t nap", Prob: 0.5}, {Text: "ttle ", Prob: 0.5}},
	)
	// "cat" assembles from "big ca" + "t nap" only: 0.6 * 0.5. The
	// "ca"+"ttle " combination spells "cattle", which must not match.
	p, err := kwProb(d, "cat")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "keyword P(cat)", p, 0.3)
	// "cattle" spans the boundary as a whole token.
	p, err = kwProb(d, "cattle")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "keyword P(cattle)", p, 0.3)
}

func TestKeywordRejectsNonWordTerm(t *testing.T) {
	d := doc([]staccato.Alt{{Text: "x", Prob: 1}})
	if _, err := kwProb(d, "two words"); err == nil {
		t.Error("keyword term with a space should be rejected")
	}
}

func TestKeywordRepeatedToken(t *testing.T) {
	// After "foofoo" fails the right-boundary check, a later clean "foo"
	// token must still match.
	d := doc([]staccato.Alt{{Text: "foofoo foo", Prob: 1}})
	p, err := kwProb(d, "foo")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "keyword P(foo)", p, 1)
	d2 := doc([]staccato.Alt{{Text: "foofoo", Prob: 1}})
	p, err = kwProb(d2, "foo")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "keyword P(foo) in foofoo", p, 0)
}

// TestFSTSubstringMatchesBruteForce checks the exact transducer query
// against full path enumeration on small generated documents.
func TestFSTSubstringMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		truth, f := testgen.MustGenerate(testgen.Config{Length: 8, Seed: seed})
		dist := enumerate(f)
		var total float64
		for _, p := range dist {
			total += p
		}
		probes := map[string]bool{}
		for i := 0; i+3 <= len(truth); i++ {
			probes[truth[i:i+3]] = true
		}
		probes["zzz"] = true
		for probe := range probes {
			var want float64
			for s, p := range dist {
				if strings.Contains(s, probe) {
					want += p
				}
			}
			want /= total
			got, err := fstSubstrProb(f, probe)
			if err != nil {
				t.Fatalf("seed %d %q: %v", seed, probe, err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("seed %d: P(%q) = %v, brute force %v", seed, probe, got, want)
			}
		}
	}
}

// TestDocQueryMatchesBruteForce cross-checks the chunk DP against direct
// expansion of the product distribution.
func TestDocQueryMatchesBruteForce(t *testing.T) {
	_, f := testgen.MustGenerate(testgen.Config{Length: 12, Seed: 9})
	d, err := staccato.Build(f, "d", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	var probs []float64
	var cross func(i int, s string, p float64)
	cross = func(i int, s string, p float64) {
		if i == len(d.Chunks) {
			strs = append(strs, s)
			probs = append(probs, p)
			return
		}
		for _, alt := range d.Chunks[i].Alts {
			cross(i+1, s+alt.Text, p*alt.Prob)
		}
	}
	cross(0, "", 1)
	for _, probe := range []string{"ab", "th", "e", "qq", "xy"} {
		var want float64
		for i, s := range strs {
			if strings.Contains(s, probe) {
				want += probs[i]
			}
		}
		got, err := substrProb(d, probe)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("P(%q) = %v, brute force %v", probe, got, want)
		}
	}
}

// enumerate brute-forces the full path distribution of a small SFST.
func enumerate(f *fst.SFST) map[string]float64 {
	out := map[string]float64{}
	var walk func(s fst.StateID, prefix []rune, weight float64)
	walk = func(s fst.StateID, prefix []rune, weight float64) {
		if f.IsFinal(s) {
			out[string(prefix)] += core.ProbFromWeight(weight)
		}
		for _, a := range f.Arcs(s) {
			p := prefix
			if a.Label != fst.Epsilon {
				p = append(prefix[:len(prefix):len(prefix)], a.Label)
			}
			walk(a.To, p, weight+a.Weight)
		}
	}
	walk(f.Start(), nil, 0)
	return out
}

// TestEvalLeafAllocations pins what evaluating one candidate costs the
// allocator: a single-term Eval swaps two state vectors over one stack
// buffer, so it allocates nothing for the automata queries are made of —
// a distance-1 Levenshtein DFA included — and once, not once per chunk,
// for one too large for the stack.
func TestEvalLeafAllocations(t *testing.T) {
	cases, err := testgen.Docs(1, testgen.Config{Length: 60, Seed: 3}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	doc := cases[0].Doc
	if len(doc.Chunks) != 6 {
		t.Fatalf("document has %d chunks, want 6", len(doc.Chunks))
	}
	for _, c := range []struct {
		q    *query.Query
		want float64
	}{
		{mustQ(query.Substring("ab")), 0},
		{mustQ(query.Keyword("abcde")), 0},
		{mustQ(query.Fuzzy("abcde", 1)), 0},
		{mustQ(query.Fuzzy("abcdefghijklmnopqrst", 2)), 1},
	} {
		if got := testing.AllocsPerRun(100, func() { c.q.Eval(doc) }); got != c.want {
			t.Errorf("%s: %v allocations per document, want %v", c.q, got, c.want)
		}
	}
}
