package query_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// fakeSource records the one lookup each plan hands it and answers from
// canned postings, with each answered document's bound from bounds,
// quantized — or without bound information when bounds is nil. It answers
// in ascending ID order, or, given shuffle, in an order shuffle draws: the
// contract promises none.
type fakeSource struct {
	byGram map[string][]string
	// wild is what a Patterns node admits; it reports one dictionary gram
	// per pattern.
	wild    []string
	bounds  map[string]float64
	shuffle *rand.Rand
	calls   []index.Lookup
}

func (f *fakeSource) Candidates(l index.Lookup) (index.Answer, bool) {
	f.calls = append(f.calls, l)
	grams := 0
	set := f.admits(l, &grams)
	ids := make([]string, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if f.shuffle != nil {
		f.shuffle.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	var bounds []uint16
	if f.bounds != nil {
		for _, id := range ids {
			bounds = append(bounds, index.Quantize(f.bounds[id]))
		}
	}
	return index.AnswerOf(ids, bounds, grams, 0), true
}

func (f *fakeSource) admits(l index.Lookup, grams *int) map[string]bool {
	out := map[string]bool{}
	// allOf keeps the IDs every one of lists holds.
	allOf := func(lists [][]string) {
		count := map[string]int{}
		for _, ids := range lists {
			for _, id := range ids {
				count[id]++
			}
		}
		for id, n := range count {
			if n == len(lists) {
				out[id] = true
			}
		}
	}
	switch {
	case l.Grams != nil:
		lists := make([][]string, len(l.Grams))
		for i, g := range l.Grams {
			lists[i] = f.byGram[g]
		}
		allOf(lists)
	case l.Patterns != nil:
		*grams += len(l.Patterns)
		allOf([][]string{f.wild})
	case l.And != nil:
		lists := make([][]string, len(l.And))
		for i, kid := range l.And {
			for id := range f.admits(kid, grams) {
				lists[i] = append(lists[i], id)
			}
		}
		allOf(lists)
	case l.Or != nil:
		for _, kid := range l.Or {
			for id := range f.admits(kid, grams) {
				out[id] = true
			}
		}
	}
	return out
}

// spell renders patterns one string each, with '?' for a wildcard.
func spell(patterns [][]rune) []string {
	out := make([]string, len(patterns))
	for i, p := range patterns {
		for _, r := range p {
			if r < 0 {
				r = '?'
			}
			out[i] += string(r)
		}
	}
	return out
}

// mustQ unwraps a compile result; the terms in this file are all valid,
// so a failure is a test bug worth a panic.
func mustQ(q *query.Query, err error) *query.Query {
	if err != nil {
		panic(err)
	}
	return q
}

func TestPlanLeafGrams(t *testing.T) {
	q := mustQ(query.Substring("abcd"))
	plan := q.Plan(3)
	if !plan.Prunable() {
		t.Fatal("substring leaf of 4 runes should be prunable at q=3")
	}
	if plan.NumGrams() != 2 {
		t.Errorf("NumGrams = %d, want 2 (abc, bcd)", plan.NumGrams())
	}
	src := &fakeSource{byGram: map[string][]string{"abc": {"d1", "d2"}, "bcd": {"d2", "d3"}}}
	cand := plan.Candidates(src)
	if cand == nil {
		t.Fatal("expected a candidate set")
	}
	if got := cand.IDs(); !reflect.DeepEqual(got, []string{"d2"}) {
		t.Errorf("candidates = %v, want [d2]", got)
	}
}

// TestPlanLookupSnapsBoundsToOne: a bound the engine's slack widens to 1
// or more comes out of Lookup as exactly 1, so only a bound-1 candidate
// can evaluate to 1 whatever the source; the index's largest quantized
// bound under 1, and anything lower, pass through untouched.
func TestPlanLookupSnapsBoundsToOne(t *testing.T) {
	belowOne, half := 65534.0/65535, index.Dequantize(1<<15)
	src := &fakeSource{
		byGram: map[string][]string{"abc": {"d1", "d2", "d3", "d4"}},
		bounds: map[string]float64{"d1": half, "d2": belowOne, "d3": 0.9999999995, "d4": 1},
	}
	cand := mustQ(query.Substring("abc")).Plan(3).Candidates(src)
	want := []query.BoundedCandidate{{ID: "d3", Bound: 1}, {ID: "d4", Bound: 1}, {ID: "d2", Bound: belowOne}, {ID: "d1", Bound: half}}
	if got := cand.Ranked(); !reflect.DeepEqual(got, want) {
		t.Errorf("Ranked = %v, want %v", got, want)
	}
}

// TestPlanShortTermCannotPrune: a term shorter than the gram size has no
// gram of its own and scans, whatever its mode.
func TestPlanShortTermCannotPrune(t *testing.T) {
	for _, q := range []*query.Query{
		mustQ(query.Substring("ab")),
		mustQ(query.Keyword("ab")),
		mustQ(query.Substring("é")),
		mustQ(query.Fuzzy("ab", 1)),
	} {
		plan := q.Plan(3)
		if plan.Prunable() {
			t.Errorf("%s must not prune at q=3", q)
		}
		src := &fakeSource{}
		if cand := plan.Candidates(src); cand != nil || len(src.calls) != 0 {
			t.Errorf("%s: candidates = %v after lookups %v, want nil (scan all) and none", q, cand.IDs(), src.calls)
		}
		if !strings.HasPrefix(plan.String(), "scan(term ") || !strings.HasSuffix(plan.String(), " shorter than gram size 3)") {
			t.Errorf("%s: plan %q should render a scan branch naming the gram size", q, plan.String())
		}
	}
}

// TestPlanFuzzyEditPatterns pins the patterns of a fuzzy leaf too short
// for the pigeonhole: every edit of the term within the distance, a
// wildcard at each substituted or inserted rune, less the patterns
// another one covers — "abcd" itself, "?bcd", "a?bcd" all hold "bcd" —
// and that the source's answer to them is the candidate set.
func TestPlanFuzzyEditPatterns(t *testing.T) {
	for _, c := range []struct {
		term   string
		dist   int
		q      int
		render string
		asked  []string
	}{
		{"abcd", 1, 3, `wild(fuzzy("abcd", 1) ×7 patterns)`,
			[]string{"bcd", "acd", "a?cd", "abd", "ab?d", "abc", "ab?cd"}},
		// Deletions leave 2-rune patterns, padded to the gram size with a
		// wildcard at every offset.
		{"abc", 1, 3, `wild(fuzzy("abc", 1) ×7 patterns)`,
			[]string{"bc?", "?bc", "ac?", "?ac", "a?c", "ab?", "?ab"}},
		// A repeated rune makes two deletions one pattern.
		{"aab", 1, 3, `wild(fuzzy("aab", 1) ×5 patterns)`,
			[]string{"ab?", "?ab", "a?b", "aa?", "?aa"}},
		{"日本語", 1, 2, `wild(fuzzy("日本語", 1) ×4 patterns)`,
			[]string{"本語", "日語", "日?語", "日本"}},
	} {
		plan := mustQ(query.Fuzzy(c.term, c.dist)).Plan(c.q)
		if got := plan.String(); got != c.render {
			t.Errorf("fuzzy(%q, %d) at q=%d: plan = %q, want %q", c.term, c.dist, c.q, got, c.render)
		}
		if !plan.Prunable() || plan.NumGrams() != 0 {
			t.Errorf("fuzzy(%q, %d) at q=%d: prunable %v, NumGrams %d; want a prunable leaf that names no gram",
				c.term, c.dist, c.q, plan.Prunable(), plan.NumGrams())
		}
		src := &fakeSource{wild: []string{"d1", "d4"}}
		cand, grams := plan.Lookup(src)
		if len(src.calls) != 1 || !reflect.DeepEqual(spell(src.calls[0].Patterns), c.asked) {
			t.Errorf("fuzzy(%q, %d) at q=%d: source was asked %v, want one lookup of patterns %v", c.term, c.dist, c.q, src.calls, c.asked)
		}
		if cand == nil || !reflect.DeepEqual(cand.IDs(), []string{"d1", "d4"}) {
			t.Errorf("fuzzy(%q, %d) at q=%d: candidates = %v, want the source's answer", c.term, c.dist, c.q, cand.IDs())
		}
		if grams != len(c.asked) { // fakeSource reports one gram per pattern
			t.Errorf("fuzzy(%q, %d) at q=%d: Lookup counted %d consulted grams, want %d", c.term, c.dist, c.q, grams, len(c.asked))
		}
	}
}

// TestPlanStillScans keeps the cases the wildcard lowering does not
// reach: a fuzzy leaf over the pattern budget (distance 2 below the
// pigeonhole length, or distance 1 on a term too long for a large gram
// size) and a source that cannot answer. TestPlanShortTermCannotPrune has
// the terms shorter than a gram.
func TestPlanStillScans(t *testing.T) {
	for _, c := range []struct {
		q    *query.Query
		size int
		want string
	}{
		{mustQ(query.Fuzzy("abcd", 2)), 3, `scan(fuzzy term "abcd" at distance 2 leaves pieces shorter than gram size 3)`},
		{mustQ(query.Fuzzy("abcdefgh", 2)), 3, `scan(fuzzy term "abcdefgh" at distance 2 leaves pieces shorter than gram size 3)`},
		{mustQ(query.Fuzzy("abcdefghijk", 1)), 6, `scan(fuzzy term "abcdefghijk" at distance 1 leaves pieces shorter than gram size 6)`},
	} {
		plan := c.q.Plan(c.size)
		if plan.Prunable() || plan.String() != c.want {
			t.Errorf("%s: plan = %q (prunable %v), want %q", c.q, plan.String(), plan.Prunable(), c.want)
		}
		if cand := plan.Candidates(&fakeSource{}); cand != nil {
			t.Errorf("%s: candidates = %v, want nil (scan all)", c.q, cand.IDs())
		}
	}
	// The real index refuses a lookup over its probe budget; the plan
	// still renders the wildcard leaf, and the run scans.
	ix := index.New(3)
	var grams []string // 6,000 distinct runes: six one-wildcard windows overdraw 2¹⁵ probes
	for r := rune(0x4E00); r < 0x4E00+6000; r += 3 {
		grams = append(grams, string([]rune{r, r + 1, r + 2}))
	}
	ix.Apply([]index.Entry{{ID: "d", Grams: grams}}, nil)
	plan := mustQ(query.Fuzzy("abcd", 1)).Plan(3)
	if cand := plan.Candidates(ix); cand != nil || !plan.Prunable() {
		t.Errorf("fuzzy(abcd, 1) over a 6,000-rune alphabet: candidates = %v (prunable %v), want nil from a prunable plan", cand.IDs(), plan.Prunable())
	}
}

func TestPlanNotCannotPrune(t *testing.T) {
	q := query.Not(mustQ(query.Substring("abcd")))
	plan := q.Plan(3)
	if plan.Prunable() {
		t.Error("negation must not prune")
	}
	if cand := plan.Candidates(&fakeSource{}); cand != nil {
		t.Errorf("candidates = %v, want nil", cand.IDs())
	}
}

func TestPlanAndIntersectsOrUnions(t *testing.T) {
	src := &fakeSource{byGram: map[string][]string{
		"aaa": {"d1", "d2"},
		"bbb": {"d2", "d3"},
	}}
	a := mustQ(query.Substring("aaa"))
	b := mustQ(query.Substring("bbb"))

	and := query.And(a, b).Plan(3).Candidates(src)
	if got := and.IDs(); !reflect.DeepEqual(got, []string{"d2"}) {
		t.Errorf("AND candidates = %v, want [d2]", got)
	}
	or := query.Or(a, b).Plan(3).Candidates(src)
	if got := or.IDs(); !reflect.DeepEqual(got, []string{"d1", "d2", "d3"}) {
		t.Errorf("OR candidates = %v, want [d1 d2 d3]", got)
	}
	// Each plan is one lookup, whatever its shape: the tree goes to the
	// source whole.
	aaa, bbb := index.Lookup{Grams: []string{"aaa"}}, index.Lookup{Grams: []string{"bbb"}}
	if want := []index.Lookup{{And: []index.Lookup{aaa, bbb}}, {Or: []index.Lookup{aaa, bbb}}}; !reflect.DeepEqual(src.calls, want) {
		t.Errorf("source was asked %+v, want %+v", src.calls, want)
	}
	src.calls = nil
	query.And(a, query.Or(b, mustQ(query.Fuzzy("abcdefgh", 1))), mustQ(query.Fuzzy("日本語", 1))).Plan(2).Candidates(src)
	if len(src.calls) != 1 || len(src.calls[0].And) != 3 || len(src.calls[0].And[1].Or) != 2 ||
		len(src.calls[0].And[1].Or[1].Or) != 2 || len(src.calls[0].And[2].Patterns) != 4 {
		t.Errorf("and(substr, or(substr, fuzzy pieces), fuzzy patterns) was asked as %+v, want one nested lookup", src.calls)
	}
}

func TestPlanAndWithUnprunableConjunctStillPrunes(t *testing.T) {
	src := &fakeSource{byGram: map[string][]string{"aaa": {"d1"}}}
	q := query.And(mustQ(query.Substring("aaa")), query.Not(mustQ(query.Substring("xyz"))))
	cand := q.Plan(3).Candidates(src)
	if cand == nil {
		t.Fatal("AND with one prunable conjunct should still prune")
	}
	if got := cand.IDs(); !reflect.DeepEqual(got, []string{"d1"}) {
		t.Errorf("candidates = %v, want [d1]", got)
	}
}

func TestPlanOrWithUnprunableDisjunctScans(t *testing.T) {
	src := &fakeSource{byGram: map[string][]string{"aaa": {"d1"}}}
	q := query.Or(mustQ(query.Substring("aaa")), query.Not(mustQ(query.Substring("xyz"))))
	if cand := q.Plan(3).Candidates(src); cand != nil {
		t.Errorf("OR with an unprunable disjunct must scan; got %v", cand.IDs())
	}
}

func TestPlanConstFalsePrunesEverything(t *testing.T) {
	// A nil operand is the documented constant-false query.
	cand := query.And(nil).Plan(3).Candidates(&fakeSource{})
	if cand == nil || cand.Len() != 0 {
		t.Errorf("const-false plan: candidates = %v, want empty set", cand)
	}
	// Its negation matches everything and cannot prune.
	if c := query.Not(nil).Plan(3).Candidates(&fakeSource{}); c != nil {
		t.Errorf("not(false) should scan; got %v", c.IDs())
	}
}

func TestPlanGramSizeDisabled(t *testing.T) {
	q := mustQ(query.Substring("abcd"))
	if q.Plan(0).Prunable() {
		t.Error("gramSize 0 must disable pruning")
	}
}

// buildRandomQuery assembles a random boolean query from terms drawn from
// the corpus truths plus junk, exercising substring/keyword leaves, all
// combinators, and sub-gram-size terms.
func buildRandomQuery(t *testing.T, rng *rand.Rand, truths []string, depth int) *query.Query {
	t.Helper()
	pickTerm := func() string {
		if rng.Intn(4) == 0 {
			junk := []string{"zq", "xvz", "qqqq", "zzzzz", "a"}
			return junk[rng.Intn(len(junk))]
		}
		truth := truths[rng.Intn(len(truths))]
		n := 2 + rng.Intn(6)
		if n > len(truth) {
			n = len(truth)
		}
		i := rng.Intn(len(truth) - n + 1)
		return truth[i : i+n]
	}
	leaf := func() *query.Query {
		term := pickTerm()
		if rng.Intn(3) == 0 {
			kw := strings.TrimSpace(term)
			if kw == "" || strings.ContainsRune(kw, ' ') {
				kw = "word"
			}
			return mustQ(query.Keyword(kw))
		}
		return mustQ(query.Substring(term))
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		return leaf()
	}
	switch rng.Intn(3) {
	case 0:
		return query.And(buildRandomQuery(t, rng, truths, depth-1), buildRandomQuery(t, rng, truths, depth-1))
	case 1:
		return query.Or(buildRandomQuery(t, rng, truths, depth-1), buildRandomQuery(t, rng, truths, depth-1))
	default:
		return query.Not(buildRandomQuery(t, rng, truths, depth-1))
	}
}

// TestPlannerNoFalseNegatives is the planner's load-bearing property:
// over random boolean queries on a generated corpus, every document with
// nonzero match probability appears in the candidate set whenever the
// plan prunes at all.
func TestPlannerNoFalseNegatives(t *testing.T) {
	const gramSize = 3
	cases, err := testgen.Docs(40, testgen.Config{Length: 30, Seed: 21}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.New(gramSize)
	truths := make([]string, len(cases))
	for i, c := range cases {
		ix.Apply([]index.Entry{index.EntryFor(c.Doc, ix.GramSize())}, nil)
		truths[i] = c.Truth
	}
	rng := rand.New(rand.NewSource(77))
	pruned := 0
	for trial := 0; trial < 200; trial++ {
		q := buildRandomQuery(t, rng, truths, 3)
		cand := q.Plan(gramSize).Candidates(ix)
		if cand == nil {
			continue
		}
		pruned++
		for _, c := range cases {
			p := q.Eval(c.Doc)
			if p > 0 && !isCandidate(cand, c.Doc.ID) {
				t.Fatalf("trial %d: query %s: doc %s has P=%v but was pruned (plan %s)",
					trial, q.String(), c.Doc.ID, p, q.Plan(gramSize).String())
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no trial produced a prunable plan; the test is vacuous")
	}
}

// TestEngineSearchByteIdenticalWithCandidates runs the same query with
// and without planner candidates and requires identical Search output —
// the engine half of the byte-identical acceptance criterion — plus
// coherent stats.
func TestEngineSearchByteIdenticalWithCandidates(t *testing.T) {
	const gramSize = 3
	ctx := context.Background()
	cases, err := testgen.Docs(60, testgen.Config{Length: 30, Seed: 31}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := memStore(t)
	ix := index.New(gramSize)
	truths := make([]string, len(cases))
	for i, c := range cases {
		commitPuts(t, st, c.Doc)
		ix.Apply([]index.Entry{index.EntryFor(c.Doc, ix.GramSize())}, nil)
		truths[i] = c.Truth
	}
	eng := query.NewEngine(st, query.EngineOptions{Workers: 4})
	rng := rand.New(rand.NewSource(5))
	prunedRuns := 0
	for trial := 0; trial < 50; trial++ {
		q := buildRandomQuery(t, rng, truths, 2)
		cand := q.Plan(gramSize).Candidates(ix)
		var stats query.SearchStats
		withIdx, err := eng.Search(ctx, q, query.SearchOptions{Candidates: cand, Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		without, err := eng.Search(ctx, q, query.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withIdx, without) {
			t.Fatalf("trial %d: query %s: results differ\n with: %+v\n without: %+v",
				trial, q.String(), withIdx, without)
		}
		if stats.DocsTotal != len(cases) || stats.DocsScanned+stats.DocsPruned != stats.DocsTotal {
			t.Fatalf("trial %d: incoherent stats %+v", trial, stats)
		}
		if cand != nil && stats.DocsPruned != len(cases)-cand.Len() {
			t.Fatalf("trial %d: pruned %d, want %d", trial, stats.DocsPruned, len(cases)-cand.Len())
		}
		if stats.DocsPruned > 0 {
			prunedRuns++
		}
	}
	if prunedRuns == 0 {
		t.Fatal("no run pruned anything; the test is vacuous")
	}
}

// planShape is everything a plan shows a caller: its rendering, whether
// it prunes, the grams it names, and what Lookup hands a recording source
// and returns.
func planShape(p *query.Plan) string {
	src := &fakeSource{}
	cand, grams := p.Lookup(src)
	return fmt.Sprintf("%s prunable=%v names=%d nil=%v grams=%d lookups=%+v",
		p, p.Prunable(), p.NumGrams(), cand == nil, grams, src.calls)
}

// TestPlanCachedPerGramSize: a compiled query plans once per gram size.
// A second Plan at the same size is the same *Plan; a plan at another
// size, and the plan back at the first one, equal a fresh build's; nil
// and zero-value queries plan to match nothing; and Plan plus Lookup from
// 8 goroutines at once, at alternating gram sizes, agree with a
// sequential run (run it under -race).
func TestPlanCachedPerGramSize(t *testing.T) {
	compile := func() *query.Query {
		return query.And(mustQ(query.Keyword("quick")),
			query.Or(mustQ(query.Substring("brown")), mustQ(query.Fuzzy("stacking", 1)), mustQ(query.Fuzzy("fox", 1))))
	}
	q := compile()
	first := q.Plan(3)
	if again := q.Plan(3); again != first {
		t.Fatal("a second Plan at the same gram size built a new plan")
	}
	for _, gramSize := range []int{4, 3, 0, 3} {
		if got, want := planShape(q.Plan(gramSize)), planShape(compile().Plan(gramSize)); got != want {
			t.Errorf("gram size %d: cached query plans\n %s\nfresh query plans\n %s", gramSize, got, want)
		}
	}

	for name, none := range map[string]*query.Query{"nil": nil, "zero-value": {}} {
		p := none.Plan(3)
		if cand, _ := p.Lookup(&fakeSource{}); p.String() != "none" || cand == nil || cand.Len() != 0 {
			t.Errorf("%s query plans to %s with candidates %v, want none and an empty set", name, p, cand.IDs())
		}
	}

	ix := index.New(3)
	for i, text := range []string{"the quick brown fox", "a quick stacking", "quick fax", "slow brown", "quick"} {
		ix.Apply([]index.Entry{index.EntryFor(&staccato.Doc{
			ID:     fmt.Sprintf("d%d", i),
			Params: staccato.Params{Chunks: 1, K: 1},
			Chunks: []staccato.PathSet{{Alts: []staccato.Alt{{Text: text, Prob: 1}}, Retained: 1}},
		}, 3)}, nil)
	}
	q = compile()
	want := map[int]string{3: planShape(compile().Plan(3)), 4: planShape(compile().Plan(4))}
	wantIDs := compile().Plan(3).Candidates(ix).IDs()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				gramSize := 3 + (g+i)%2
				p := q.Plan(gramSize)
				if got := planShape(p); got != want[gramSize] {
					t.Errorf("goroutine %d, gram size %d: plan %s, want %s", g, gramSize, got, want[gramSize])
					return
				}
				if gramSize == 3 {
					if got := p.Candidates(ix).IDs(); !slices.Equal(got, wantIDs) {
						t.Errorf("goroutine %d: candidates %v, want %v", g, got, wantIDs)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(wantIDs) == 0 || len(wantIDs) == ix.Len() {
		t.Fatalf("candidates %v of %d documents: the concurrent check prunes nothing or keeps nothing", wantIDs, ix.Len())
	}
}
