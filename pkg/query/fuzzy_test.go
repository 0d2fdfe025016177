package query_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// corruptTerm applies one random rune substitution, so roughly half the
// probe terms exercise the automaton's edit budget instead of matching
// verbatim.
func corruptTerm(rng *rand.Rand, s string) string {
	runes := []rune(s)
	if len(runes) == 0 {
		return s
	}
	i := rng.Intn(len(runes))
	runes[i] = rune('0' + rng.Intn(10)) // digits never appear in generated truths
	return string(runes)
}

// fuzzyProbeTerms cuts probe terms out of a truth string: exact
// substrings and corrupted ones, across the supported distances.
func fuzzyProbeTerms(rng *rand.Rand, truth string) []struct {
	term string
	dist int
} {
	var out []struct {
		term string
		dist int
	}
	for _, n := range []int{4, 6, 8} {
		if len(truth) < n {
			continue
		}
		start := rng.Intn(len(truth) - n + 1)
		term := truth[start : start+n]
		dist := rng.Intn(fuzzy.MaxDistance + 1)
		out = append(out, struct {
			term string
			dist int
		}{term, dist})
		out = append(out, struct {
			term string
			dist int
		}{corruptTerm(rng, term), dist})
	}
	return out
}

// TestFuzzyEvalMatchesReadingsOracle is the leaf's ground-truth check:
// the product-automaton DP's probability for a fuzzy leaf must equal the
// brute-force sum, over every retained reading, of the reading's mass
// when the reading contains a window within the edit distance (the
// fuzzy.Within oracle — an implementation with no automaton in it).
func TestFuzzyEvalMatchesReadingsOracle(t *testing.T) {
	cases, err := testgen.Docs(12, testgen.Config{Length: 20, Seed: 41}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	probes := 0
	for _, c := range cases {
		for _, pr := range fuzzyProbeTerms(rng, c.Truth) {
			q, err := query.Fuzzy(pr.term, pr.dist)
			if err != nil {
				t.Fatalf("Fuzzy(%q, %d): %v", pr.term, pr.dist, err)
			}
			var want float64
			c.Doc.Readings(func(text string, prob float64) bool {
				if fuzzy.Within(text, pr.term, pr.dist) {
					want += prob
				}
				return true
			})
			got := q.Eval(c.Doc)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("doc %s: P(fuzzy(%q, %d)) = %v, oracle %v", c.Doc.ID, pr.term, pr.dist, got, want)
			}
			probes++
		}
	}
	if probes < 30 {
		t.Fatalf("only %d probes exercised; the generator config is too small", probes)
	}
}

// TestFuzzyEvalFSTMatchesEnumeration checks the exact-oracle path: the
// fuzzy product automaton over the unapproximated SFST must agree with
// full path enumeration.
func TestFuzzyEvalFSTMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for seed := int64(1); seed <= 4; seed++ {
		truth, f := testgen.MustGenerate(testgen.Config{Length: 8, Seed: seed})
		dist := enumerate(f)
		var total float64
		for _, p := range dist {
			total += p
		}
		for _, pr := range fuzzyProbeTerms(rng, truth) {
			q, err := query.Fuzzy(pr.term, pr.dist)
			if err != nil {
				t.Fatalf("Fuzzy(%q, %d): %v", pr.term, pr.dist, err)
			}
			var want float64
			for s, p := range dist {
				if fuzzy.Within(s, pr.term, pr.dist) {
					want += p
				}
			}
			want /= total
			got, err := q.EvalFST(f)
			if err != nil {
				t.Fatalf("EvalFST fuzzy(%q, %d): %v", pr.term, pr.dist, err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("seed %d: P(fuzzy(%q, %d)) = %v, enumeration %v", seed, pr.term, pr.dist, got, want)
			}
		}
	}
}

// TestFuzzyPlanNoFalseNegative is the planner's property test against
// the enumerate-readings oracle: for random fuzzy probes over a real
// corpus and a real q-gram index, every document with any oracle-matching
// retained reading must be in the plan's candidate set. (Eval > 0 iff
// such a reading exists, but the oracle here is deliberately
// automaton-free.)
func TestFuzzyPlanNoFalseNegative(t *testing.T) {
	ctx := context.Background()
	st, ix, truths := candidateCorpus(t, 50, 83)
	rng := rand.New(rand.NewSource(29))
	pruned := 0
	for _, truth := range truths {
		for _, pr := range fuzzyProbeTerms(rng, truth) {
			q, err := query.Fuzzy(pr.term, pr.dist)
			if err != nil {
				t.Fatalf("Fuzzy(%q, %d): %v", pr.term, pr.dist, err)
			}
			cand := q.Plan(3).Candidates(ix)
			if cand == nil {
				continue // degraded to scan: trivially no false negatives
			}
			pruned++
			if err := st.Scan(ctx, func(d *staccato.Doc) error {
				matches := false
				d.Readings(func(text string, _ float64) bool {
					matches = fuzzy.Within(text, pr.term, pr.dist)
					return !matches
				})
				if matches && !isCandidate(cand, d.ID) {
					t.Errorf("fuzzy(%q, %d): doc %s has a matching reading but was pruned", pr.term, pr.dist, d.ID)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pruned < 20 {
		t.Fatalf("only %d probes produced prunable plans; the property was barely exercised", pruned)
	}
}

// TestFuzzySearchByteIdenticalAcrossModes runs one fuzzy boolean query
// through all three engine paths at several worker counts and demands
// byte-identical rankings.
func TestFuzzySearchByteIdenticalAcrossModes(t *testing.T) {
	ctx := context.Background()
	st, ix, truths := candidateCorpus(t, 40, 97)
	// Pick the first corrupted probe whose plan prunes and whose scan
	// finds matches — the generator does not guarantee any particular
	// truth reading was retained, so probe until the test has teeth.
	rng := rand.New(rand.NewSource(3))
	var q *query.Query
	var cand *query.CandidateSet
	probe := query.NewEngine(st, query.EngineOptions{Workers: 1})
	for _, truth := range truths {
		cq := mustQ(query.Fuzzy(corruptTerm(rng, truth[5:12]), 1))
		cc := cq.Plan(3).Candidates(ix)
		if cc == nil {
			continue
		}
		res, err := probe.Search(ctx, cq, query.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 0 {
			q, cand = cq, cc
			break
		}
	}
	if q == nil {
		t.Fatal("no probe term produced a prunable, non-vacuous query")
	}
	baseline := reference(t, st, q, query.SearchOptions{})
	for _, workers := range []int{1, 2, 8} {
		eng := query.NewEngine(st, query.EngineOptions{Workers: workers})
		scan, err := eng.Search(ctx, q, query.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		candOnly, err := eng.Search(ctx, q, query.SearchOptions{Candidates: cand})
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]query.Result{"scan": scan, "candidate-only": candOnly} {
			if !reflect.DeepEqual(got, baseline) {
				t.Errorf("workers=%d %s: results diverge from the reference", workers, name)
			}
		}
	}
}

// TestFuzzyRescoreDeterministicAcrossModes: with a lexicon rescorer in
// SearchOptions, the scan and the candidate-restricted run still agree
// bit-for-bit, and with the sequential reference under the same rescorer.
func TestFuzzyRescoreDeterministicAcrossModes(t *testing.T) {
	ctx := context.Background()
	st, ix, truths := candidateCorpus(t, 30, 59)
	term := truths[1][3:10]
	q := mustQ(query.Fuzzy(term, 1))
	cand := q.Plan(3).Candidates(ix)
	if cand == nil {
		t.Fatal("probe term should produce a prunable plan")
	}
	lex := fuzzy.NewLexicon([]string{"the", "and", truths[2][:4]})
	rescore := lex.Rescorer()
	baseline := reference(t, st, q, query.SearchOptions{Rescore: rescore})
	for _, workers := range []int{1, 2, 8} {
		eng := query.NewEngine(st, query.EngineOptions{Workers: workers})
		scan, err := eng.Search(ctx, q, query.SearchOptions{Rescore: rescore})
		if err != nil {
			t.Fatal(err)
		}
		candOnly, err := eng.Search(ctx, q, query.SearchOptions{Candidates: cand, Rescore: rescore})
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]query.Result{"scan": scan, "candidate-only": candOnly} {
			if !reflect.DeepEqual(got, baseline) {
				t.Errorf("workers=%d %s: rescored results diverge from the reference", workers, name)
			}
		}
	}
}

func TestFuzzyValidation(t *testing.T) {
	for _, c := range []struct {
		term string
		dist int
	}{
		{"", 0},
		{"ab", 2},   // term no longer than distance
		{"abc", 3},  // above fuzzy.MaxDistance
		{"abc", -1}, // negative distance
	} {
		if _, err := query.Fuzzy(c.term, c.dist); err == nil {
			t.Errorf("Fuzzy(%q, %d) should be rejected", c.term, c.dist)
		}
	}
}

// TestFuzzyDistanceZeroAgreesWithSubstring: the degenerate automaton is
// a slower substring matcher; its probabilities must agree exactly.
func TestFuzzyDistanceZeroAgreesWithSubstring(t *testing.T) {
	cases, err := testgen.Docs(5, testgen.Config{Length: 16, Seed: 61}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		term := c.Truth[2:7]
		fz := mustQ(query.Fuzzy(term, 0))
		sub := mustQ(query.Substring(term))
		got, want := fz.Eval(c.Doc), sub.Eval(c.Doc)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("doc %s: fuzzy-0 %v != substring %v for %q", c.Doc.ID, got, want, term)
		}
	}
}

func TestFuzzyLeafDedupOnDistance(t *testing.T) {
	a := mustQ(query.Fuzzy("abcdef", 1))
	b := mustQ(query.Fuzzy("abcdef", 2))
	c := mustQ(query.Fuzzy("abcdef", 1))
	if got := query.And(a, b).NumTerms(); got != 2 {
		t.Errorf("distinct distances must compile distinct automata: NumTerms=%d, want 2", got)
	}
	if got := query.And(a, c).NumTerms(); got != 1 {
		t.Errorf("identical (term, dist) leaves must share one automaton: NumTerms=%d, want 1", got)
	}
}

func TestFuzzyStringAndPlanRender(t *testing.T) {
	q := mustQ(query.Fuzzy("staccato", 1))
	if got := q.String(); got != `fuzzy("staccato", 1)` {
		t.Errorf("String() = %q", got)
	}
	plan := q.Plan(3)
	if !plan.Prunable() {
		t.Fatal("8-rune term at distance 1 should be prunable at q=3 (pieces of 4)")
	}
	s := plan.String()
	if want := `or(grams(fuzzy("stac", 1) ×2), grams(fuzzy("cato", 1) ×2))`; s != want {
		t.Errorf("plan = %q, want %q", s, want)
	}

	// Too short to split into distance+1 grammable pieces: planned through
	// the gram dictionary instead (TestPlanFuzzyEditPatterns).
	short := mustQ(query.Fuzzy("abcde", 1)) // floor(5/2)=2 < 3
	if got, want := short.Plan(3).String(), `wild(fuzzy("abcde", 1) ×10 patterns)`; got != want {
		t.Errorf("plan = %q, want %q", got, want)
	}
}

// TestFuzzyPlanPieceGramsAreSound spot-checks the pigeonhole lowering on
// a crafted example: a variant with one edit must still hit one piece's
// full gram set.
func TestFuzzyPlanPieceGramsAreSound(t *testing.T) {
	q := mustQ(query.Fuzzy("abcdefgh", 1)) // pieces "abcd", "efgh"
	src := &fakeSource{byGram: map[string][]string{
		// d1 holds "abxdefgh": the edit lands in piece 1, piece 2's grams all present.
		"efg": {"d1"}, "fgh": {"d1"},
		// d2 holds text with neither piece intact.
		"abc": {"d3"}, "bcd": {"d3"},
	}}
	cand := q.Plan(3).Candidates(src)
	if cand == nil {
		t.Fatal("expected a prunable plan")
	}
	for _, id := range []string{"d1", "d3"} {
		if !isCandidate(cand, id) {
			t.Errorf("doc %s intact on one piece must be a candidate", id)
		}
	}
	if isCandidate(cand, "d2") {
		t.Error("doc with no piece intact should be prunable")
	}
}

func TestFuzzySpansReportMatchedVariant(t *testing.T) {
	q := mustQ(query.Fuzzy("staccato", 1))
	ok, spans := q.MatchText("the staccat0 system")
	if !ok || len(spans) != 1 {
		t.Fatalf("MatchText: ok=%v spans=%v", ok, spans)
	}
	sp := spans[0]
	if sp.Term != "staccat0" {
		t.Errorf("span term = %q, want the matched variant \"staccat0\"", sp.Term)
	}
	if sp.Start != 4 || sp.End != 12 || sp.RuneStart != 4 || sp.RuneEnd != 12 {
		t.Errorf("span offsets = %+v", sp)
	}

	// Rune-level offsets with multi-byte text before the match.
	q2 := mustQ(query.Fuzzy("日本語", 1))
	ok, spans = q2.MatchText("この日木語の")
	if !ok || len(spans) != 1 {
		t.Fatalf("unicode MatchText: ok=%v spans=%v", ok, spans)
	}
	if got := spans[0].Term; got != "日木語" {
		t.Errorf("unicode span term = %q, want \"日木語\"", got)
	}
	if spans[0].RuneStart != 2 || spans[0].RuneEnd != 5 {
		t.Errorf("unicode span rune offsets = %+v", spans[0])
	}

	// A non-matching text yields no spans and no match.
	if ok, spans := q.MatchText("nothing here"); ok || len(spans) != 0 {
		t.Errorf("non-match: ok=%v spans=%v", ok, spans)
	}

	// Two well-separated occurrences yield two spans.
	ok, spans = q.MatchText("staccat0 ... staccato")
	if !ok || len(spans) != 2 {
		t.Fatalf("two occurrences: ok=%v spans=%v", ok, spans)
	}
	if spans[0].Term != "staccat0" || spans[1].Term != "staccato" {
		t.Errorf("span terms = %q, %q", spans[0].Term, spans[1].Term)
	}
}

// TestFuzzySpanExactPreferredOverSloppy: when the text contains the term
// verbatim, the reported window is the term itself, not a wider window
// that also fits the edit budget.
func TestFuzzySpanExactPreferredOverSloppy(t *testing.T) {
	q := mustQ(query.Fuzzy("abcdef", 1))
	ok, spans := q.MatchText("xxabcdefxx")
	if !ok || len(spans) != 1 {
		t.Fatalf("ok=%v spans=%v", ok, spans)
	}
	if spans[0].Term != "abcdef" {
		t.Errorf("span term = %q, want the exact occurrence", spans[0].Term)
	}
}

func TestSnippetContextRunes(t *testing.T) {
	d := doc([]staccato.Alt{{Text: "the staccat0 system runs", Prob: 1}})
	q := mustQ(query.Fuzzy("staccato", 1))
	snips := q.Snippets(d, query.SnippetOptions{ContextRunes: 4})
	if len(snips.Readings) != 1 || len(snips.Readings[0].Spans) != 1 {
		t.Fatalf("snippets = %+v", snips)
	}
	sp := snips.Readings[0].Spans[0]
	if sp.Context != "the staccat0 sys" {
		t.Errorf("context = %q, want \"the staccat0 sys\" (±4 runes, clipped at the left edge)", sp.Context)
	}
	// Zero leaves Context empty — the wire format omits it.
	snips = q.Snippets(d, query.SnippetOptions{})
	if got := snips.Readings[0].Spans[0].Context; got != "" {
		t.Errorf("context without ContextRunes = %q, want empty", got)
	}
}
