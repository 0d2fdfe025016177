package query_test

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// sub compiles a substring leaf, failing the test on error.
func sub(t testing.TB, term string) *query.Query {
	t.Helper()
	q, err := query.Substring(term)
	if err != nil {
		t.Fatalf("Substring(%q): %v", term, err)
	}
	return q
}

// kw compiles a keyword leaf, failing the test on error.
func kw(t testing.TB, term string) *query.Query {
	t.Helper()
	q, err := query.Keyword(term)
	if err != nil {
		t.Fatalf("Keyword(%q): %v", term, err)
	}
	return q
}

// containsToken is the keyword-mode oracle: term appears as a whole token.
func containsToken(text, term string) bool {
	for _, tok := range strings.FieldsFunc(text, func(r rune) bool { return !core.IsWordRune(r) }) {
		if tok == term {
			return true
		}
	}
	return false
}

// oracleProb brute-forces the query probability by enumerating every
// retained reading of the document.
func oracleProb(d *staccato.Doc, sat func(string) bool) float64 {
	var p float64
	d.Readings(func(text string, prob float64) bool {
		if sat(text) {
			p += prob
		}
		return true
	})
	return p
}

func TestQueryString(t *testing.T) {
	q := query.And(
		sub(t, "foo"),
		query.Not(kw(t, "bar")),
	)
	if got, want := q.String(), `and(substr("foo"), not(kw("bar")))`; got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	or := query.Or(sub(t, "a"), sub(t, "b"), sub(t, "c"))
	if got, want := or.String(), `or(substr("a"), substr("b"), substr("c"))`; got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}

func TestQuerySharesDuplicateLeaves(t *testing.T) {
	q := query.And(
		sub(t, "ab"),
		query.Or(sub(t, "ab"), kw(t, "ab")),
	)
	if q.NumTerms() != 2 {
		t.Errorf("NumTerms = %d, want 2 (substring and keyword \"ab\" are distinct; duplicate substring is shared)", q.NumTerms())
	}
}

func TestTermTooLongRejected(t *testing.T) {
	if _, err := query.Substring(strings.Repeat("a", 1<<12+1)); err == nil {
		t.Error("compile accepted a term beyond the rune limit")
	}
}

// TestBooleanRespectsCorrelation pins the tentpole semantics: And/Or run
// as one joint DP over the reading distribution, so correlated terms are
// NOT combined by multiplying marginals.
func TestBooleanRespectsCorrelation(t *testing.T) {
	a := sub(t, "a")
	b := sub(t, "b")
	c := sub(t, "c")

	// Negative correlation: "a" and "c" live on mutually exclusive
	// readings, so the conjunction is impossible even though each marginal
	// is 0.5 (naive product: 0.25).
	excl := doc([]staccato.Alt{{Text: "ab", Prob: 0.5}, {Text: "cd", Prob: 0.5}})
	approx(t, "P(a)", a.Eval(excl), 0.5)
	approx(t, "P(c)", c.Eval(excl), 0.5)
	approx(t, "P(a AND c)", query.And(a, c).Eval(excl), 0)
	// The disjunction is certain (naive independence: 0.75).
	approx(t, "P(a OR c)", query.Or(a, c).Eval(excl), 1)

	// Positive correlation: "a" and "b" ride the same reading, so the
	// conjunction equals the shared reading's mass (naive product: 0.36).
	same := doc([]staccato.Alt{{Text: "ab", Prob: 0.6}, {Text: "xy", Prob: 0.4}})
	approx(t, "P(a AND b)", query.And(a, b).Eval(same), 0.6)

	// Negation complements exactly.
	approx(t, "P(NOT a)", query.Not(a).Eval(excl), 0.5)
	approx(t, "P(NOT (a OR c))", query.Not(query.Or(a, c)).Eval(excl), 0)
}

func TestBooleanAcrossChunkBoundaries(t *testing.T) {
	// "bc" only exists spanning chunks via ab+cd (0.5*0.7); "xx" via ax+xd
	// (0.5*0.3). The two spans are mutually exclusive, so the conjunction
	// is 0 and the disjunction is their sum.
	d := doc(
		[]staccato.Alt{{Text: "ab", Prob: 0.5}, {Text: "ax", Prob: 0.5}},
		[]staccato.Alt{{Text: "cd", Prob: 0.7}, {Text: "xd", Prob: 0.3}},
	)
	bc := sub(t, "bc")
	xx := sub(t, "xx")
	approx(t, "P(bc AND xx)", query.And(bc, xx).Eval(d), 0)
	approx(t, "P(bc OR xx)", query.Or(bc, xx).Eval(d), 0.5)
	approx(t, "P(bc AND NOT xx)", query.And(bc, query.Not(xx)).Eval(d), 0.35)
}

// boolCase pairs a compiled query with a plain-string oracle predicate.
type boolCase struct {
	q   *query.Query
	sat func(string) bool
}

// randBool builds a random boolean query (and its oracle) out of n-grams
// of truth, whole words of truth, and occasional random bigrams that are
// usually absent.
func randBool(t *testing.T, rng *rand.Rand, truth string, depth int) boolCase {
	t.Helper()
	const letters = "abcdefghijklmnopqrstuvwxyz"
	words := strings.Fields(truth)
	leaf := func() boolCase {
		if rng.Intn(3) == 0 && len(words) > 0 {
			w := words[rng.Intn(len(words))]
			return boolCase{
				q:   kw(t, w),
				sat: func(s string) bool { return containsToken(s, w) },
			}
		}
		var term string
		if rng.Intn(4) == 0 {
			term = string([]byte{letters[rng.Intn(26)], letters[rng.Intn(26)]})
		} else {
			n := 1 + rng.Intn(3)
			i := rng.Intn(len(truth) - n + 1)
			term = truth[i : i+n]
		}
		return boolCase{
			q:   sub(t, term),
			sat: func(s string) bool { return strings.Contains(s, term) },
		}
	}
	if depth == 0 || rng.Intn(3) == 0 {
		return leaf()
	}
	switch rng.Intn(3) {
	case 0:
		a, b := randBool(t, rng, truth, depth-1), randBool(t, rng, truth, depth-1)
		return boolCase{query.And(a.q, b.q), func(s string) bool { return a.sat(s) && b.sat(s) }}
	case 1:
		a, b := randBool(t, rng, truth, depth-1), randBool(t, rng, truth, depth-1)
		return boolCase{query.Or(a.q, b.q), func(s string) bool { return a.sat(s) || b.sat(s) }}
	default:
		a := randBool(t, rng, truth, depth-1)
		return boolCase{query.Not(a.q), func(s string) bool { return !a.sat(s) }}
	}
}

// TestBooleanMatchesEnumerationOracle property-tests the product DP
// against brute-force enumeration of every retained reading.
func TestBooleanMatchesEnumerationOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		truth, f := testgen.MustGenerate(testgen.Config{Length: 12, Seed: seed})
		d, err := staccato.Build(f, "d", 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		if n := d.NumReadings(); n > 200 {
			t.Fatalf("doc too large to enumerate: %v readings", n)
		}
		rng := rand.New(rand.NewSource(seed * 100))
		for i := 0; i < 25; i++ {
			bc := randBool(t, rng, truth, 3)
			got := bc.q.Eval(d)
			want := oracleProb(d, bc.sat)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("seed %d: %s = %v, oracle %v", seed, bc.q, got, want)
			}
		}
	}
}

// TestEvalFSTMatchesBruteForce property-tests the exact transducer-level
// evaluation — including keyword leaves and boolean combinations — against
// full path enumeration on small SFSTs.
func TestEvalFSTMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		truth, f := testgen.MustGenerate(testgen.Config{Length: 8, Seed: seed})
		dist := enumerate(f)
		var total float64
		for _, p := range dist {
			total += p
		}
		rng := rand.New(rand.NewSource(seed * 7))
		for i := 0; i < 15; i++ {
			bc := randBool(t, rng, truth, 2)
			var want float64
			for s, p := range dist {
				if bc.sat(s) {
					want += p
				}
			}
			want /= total
			got, err := bc.q.EvalFST(f)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, bc.q, err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("seed %d: EvalFST %s = %v, brute force %v", seed, bc.q, got, want)
			}
		}
	}
}

// TestCompiledQueryConcurrentReuse shares one compiled Query across
// goroutines and checks every evaluation agrees with a sequential run —
// the immutability contract the Engine relies on.
func TestCompiledQueryConcurrentReuse(t *testing.T) {
	cases, err := testgen.Docs(16, testgen.Config{Length: 30, Seed: 2}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := query.And(
		sub(t, "th"),
		query.Not(kw(t, "zzz")),
	)
	want := make([]float64, len(cases))
	for i, c := range cases {
		want[i] = q.Eval(c.Doc)
	}
	var wg sync.WaitGroup
	got := make([]float64, len(cases))
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = q.Eval(cases[i].Doc)
		}(i)
	}
	wg.Wait()
	for i := range cases {
		if got[i] != want[i] {
			t.Errorf("doc %d: concurrent Eval = %v, sequential %v", i, got[i], want[i])
		}
	}
}

// TestDocBooleanConvergesToFST checks the approximation story holds for
// boolean queries: at the full-distribution dial (1 chunk, all paths) the
// chunk DP must agree exactly with the transducer-level evaluation.
func TestDocBooleanConvergesToFST(t *testing.T) {
	truth, f := testgen.MustGenerate(testgen.Config{Length: 8, Seed: 3})
	d, err := staccato.Build(f, "d", 1, staccato.AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 10; i++ {
		bc := randBool(t, rng, truth, 2)
		exact, err := bc.q.EvalFST(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := bc.q.Eval(d); math.Abs(got-exact) > 1e-9 {
			t.Errorf("%s: full-dial doc %v != FST %v", bc.q, got, exact)
		}
	}
}

// TestCombinatorsTolerateZeroValueQuery pins the documented semantics: a
// nil or never-compiled operand behaves as a query matching nothing.
func TestCombinatorsTolerateZeroValueQuery(t *testing.T) {
	d := doc([]staccato.Alt{{Text: "x", Prob: 1}})
	x := sub(t, "x")
	var zero query.Query

	approx(t, "P(NOT zero)", query.Not(&zero).Eval(d), 1)
	approx(t, "P(NOT nil)", query.Not(nil).Eval(d), 1)
	approx(t, "P(x AND zero)", query.And(x, &zero).Eval(d), 0)
	approx(t, "P(x OR zero)", query.Or(x, &zero).Eval(d), 1)
	approx(t, "P(zero AND x)", query.And(&zero, x).Eval(d), 0)
	if got, want := query.And(x, &zero).String(), `and(substr("x"), false)`; got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}

func TestZeroValueQueryString(t *testing.T) {
	var q query.Query
	if got := q.String(); got != "false" {
		t.Errorf("zero-value String() = %q, want \"false\"", got)
	}
}

// TestEvalIsAProbability: every Eval and EvalFST result lies in [0, 1],
// for leaf and boolean queries, over a uniform-noise and an error-model
// corpus. The DPs sum a certain match to a few ulps past 1 often enough
// (hundreds of these evaluations) that an unclamped Eval fails here.
func TestEvalIsAProbability(t *testing.T) {
	uniform, err := testgen.Docs(60, testgen.Config{Seed: 1}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	errModel, err := testgen.ErrDocs(60, testgen.ErrModelConfig{Seed: 1}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	fsts, err := testgen.Corpus(20, testgen.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var queries []*query.Query
	for r := 'a'; r <= 'z'; r++ {
		leaf := sub(t, string(r))
		other := sub(t, string('a'+(r-'a'+7)%26))
		queries = append(queries, leaf, query.Or(leaf, other), query.And(leaf, query.Not(sub(t, "zq"))))
	}
	evals := 0
	for _, q := range queries {
		for _, c := range append(uniform, errModel...) {
			evals++
			if p := q.Eval(c.Doc); !(p >= 0 && p <= 1) {
				t.Fatalf("%s on %s (truth %q): Eval = %v, not a probability", q, c.Doc.ID, c.Truth, p)
			}
		}
		for _, c := range fsts {
			p, err := q.EvalFST(c.FST)
			if err != nil {
				t.Fatal(err)
			}
			if !(p >= 0 && p <= 1) {
				t.Fatalf("%s on truth %q: EvalFST = %v, not a probability", q, c.Truth, p)
			}
		}
	}
	if evals < 6000 {
		t.Fatalf("only %d evaluations; the property has lost its coverage", evals)
	}
}
