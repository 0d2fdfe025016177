package query_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// handDoc builds a document from per-chunk alternative texts, the
// alternatives of a chunk equally likely.
func handDoc(id string, chunks ...[]string) *staccato.Doc {
	d := &staccato.Doc{ID: id}
	for _, texts := range chunks {
		ps := staccato.PathSet{Retained: 1}
		for _, text := range texts {
			ps.Alts = append(ps.Alts, staccato.Alt{Text: text, Prob: 1 / float64(len(texts))})
		}
		d.Chunks = append(d.Chunks, ps)
	}
	return d
}

// wildcardCorpus is a generated corpus plus the documents the wildcard
// lowering has to get right on its own: one whose every reading is
// shorter than any gram size, one with a short and a long reading, one
// whose gram extraction overflows (at q ≥ 3), two in multi-byte runes, and
// three holding "abcd" under exactly one insertion, substitution and
// deletion, so that each kind of edit pattern is some match's only cover,
// and one whose readings are "the" and "abcd" less a rune and nothing
// else — a match no gram can witness once the gram size exceeds it.
func wildcardCorpus(t *testing.T, errModel bool, q int) (*diskstore.Store, *index.Index, []string) {
	t.Helper()
	var cases []testgen.DocCase
	var err error
	if errModel {
		cases, err = testgen.ErrDocs(30, testgen.ErrModelConfig{Words: 5, Seed: 7}, 6, 3)
	} else {
		cases, err = testgen.Docs(30, testgen.Config{Length: 30, Seed: 47}, 4, 3)
	}
	if err != nil {
		t.Fatal(err)
	}
	var wideA, wideB []string
	for i := 0; i < 40; i++ {
		wideA = append(wideA, string(rune('a'+i)))
		wideB = append(wideB, string(rune('①'+i)))
	}
	special := []*staccato.Doc{
		handDoc("x-allshort", []string{"a", "e"}),
		handDoc("x-mixed", []string{"t", "the cat sat"}),
		handDoc("x-overflow", wideA, wideB, []string{"zz"}),
		handDoc("x-kanji", []string{"日本", "日木"}, []string{"語のテキスト", "語の"}),
		handDoc("x-accent", []string{"crème brûlée", "creme brulee"}),
		handDoc("x-ins", []string{"zzab", "zzab-"}, []string{"-cdzz"}),
		handDoc("x-sub", []string{"zza-cdzz", "zz"}),
		handDoc("x-del", []string{"zzacdzz", "zzabdzz"}),
		handDoc("x-shortedit", []string{"te", "abd"}),
	}
	if e := index.EntryFor(special[0], q); !e.Short || e.Overflow {
		t.Fatalf("x-allshort at q=%d: entry %+v, want Short", q, e)
	}
	if e := index.EntryFor(special[1], q); !e.Short || len(e.Grams) == 0 {
		t.Fatalf("x-mixed at q=%d: entry %+v, want Short with grams", q, e)
	}
	if e := index.EntryFor(special[2], q); e.Overflow != (q >= 3) {
		t.Fatalf("x-overflow at q=%d: Overflow = %v", q, e.Overflow)
	}
	ctx := context.Background()
	st := memStore(t)
	ix := index.New(q)
	var truths []string
	for _, c := range cases {
		special = append(special, c.Doc)
		truths = append(truths, c.Truth)
	}
	for _, d := range special {
		if err := st.Put(ctx, d); err != nil {
			t.Fatal(err)
		}
		ix.Add(d)
	}
	return st, ix, truths
}

// shortTerms draws terms of 1 to 2q-1 runes — up to the longest a
// distance-1 pigeonhole cannot plan: windows of the corpus truths, a few
// that occur nowhere, and multi-byte ones.
func shortTerms(rng *rand.Rand, truths []string, q int) []string {
	terms := []string{"a", "t", "e", "at", "zq", "the", "abcd", "qqqq", "zzzzz", "日", "日本", "本語の", "の", "é", "rèm", "brûlé"}
	for i := 0; i < 40; i++ {
		truth := []rune(truths[rng.Intn(len(truths))])
		n := 1 + i%(2*q-1)
		at := rng.Intn(len(truth) - n + 1)
		terms = append(terms, string(truth[at:at+n]))
	}
	return terms
}

// TestWildcardPlanProperties is the soundness property of the wildcard
// lowering, against the sequential reference: over terms of 1–7 runes ×
// substring / keyword / fuzzy at distance 0–2, at gram sizes 2–4, on a
// uniform and an error-model corpus, whenever the plan yields a candidate
// set it holds every document with nonzero probability, every candidate's
// bound (widened by the engine's slack) is at least its probability, and
// scan, candidate-only and top-k runs are byte-identical to the
// reference.
func TestWildcardPlanProperties(t *testing.T) {
	ctx := context.Background()
	for _, q := range []int{2, 3, 4} {
		for _, errModel := range []bool{false, true} {
			name := fmt.Sprintf("q=%d/errmodel=%v", q, errModel)
			st, ix, truths := wildcardCorpus(t, errModel, q)
			eng := query.NewEngine(st, query.EngineOptions{Workers: 3})
			wild, pruned := 0, 0
			for _, term := range shortTerms(rand.New(rand.NewSource(int64(q))), truths, q) {
				var leaves []*query.Query
				leaves = append(leaves, mustQ(query.Substring(term)))
				if strings.IndexFunc(term, func(r rune) bool { return !unicode.IsLetter(r) && !unicode.IsDigit(r) }) < 0 {
					leaves = append(leaves, mustQ(query.Keyword(term)))
				}
				for dist := 0; dist <= 2 && dist < len([]rune(term)); dist++ {
					leaves = append(leaves, mustQ(query.Fuzzy(term, dist)))
				}
				for _, lf := range leaves {
					plan := lf.Plan(q)
					cand := plan.Candidates(ix)
					if cand == nil {
						continue
					}
					if strings.HasPrefix(plan.String(), "wild(") {
						wild++
						if cand.Len() < st.Len() {
							pruned++
						}
					}
					want := reference(t, st, lf, query.SearchOptions{})
					for _, r := range want {
						if !isCandidate(cand, r.DocID) {
							t.Errorf("%s %s: %s has P=%v but is no candidate (plan %s)", name, lf, r.DocID, r.Prob, plan)
						}
					}
					for _, c := range cand.Ranked() {
						doc, err := st.Get(ctx, c.ID)
						if err != nil {
							t.Fatal(err)
						}
						if p := lf.Eval(doc); p > c.Bound*(1+1e-9) {
							t.Errorf("%s %s: %s has P=%v above its bound %v (plan %s)", name, lf, c.ID, p, c.Bound, plan)
						}
					}
					for _, opts := range []query.SearchOptions{{}, {TopN: 1}, {TopN: 3}, {TopN: 3, MinProb: 0.2}} {
						want := reference(t, st, lf, opts)
						scan, err := eng.Search(ctx, lf, opts)
						if err != nil {
							t.Fatal(err)
						}
						opts.Candidates = cand
						under, err := eng.Search(ctx, lf, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(scan, want) || !reflect.DeepEqual(under, want) {
							t.Errorf("%s %s top=%d: runs diverge from the reference\n scan:      %+v\n candidates: %+v\n reference: %+v",
								name, lf, opts.TopN, scan, under, want)
						}
					}
				}
			}
			if wild < 20 || pruned < 15 {
				t.Errorf("%s: %d wildcard plans, %d of them pruning; the property was barely exercised", name, wild, pruned)
			}
		}
	}
}

// TestWildcardCandidateDeletedAfterPlanning: a candidate deleted between
// the lookup and the run — one of the always-joined short documents
// included — is skipped, exactly as a run planned after the delete would.
func TestWildcardCandidateDeletedAfterPlanning(t *testing.T) {
	ctx := context.Background()
	st, ix, _ := wildcardCorpus(t, true, 3)
	eng := query.NewEngine(st, query.EngineOptions{Workers: 2})
	for _, lf := range []*query.Query{mustQ(query.Fuzzy("the", 1)), mustQ(query.Fuzzy("teq", 1)), mustQ(query.Fuzzy("wteq", 1))} {
		cand := lf.Plan(3).Candidates(ix)
		if cand == nil {
			t.Fatalf("%s: no candidate set", lf)
		}
		before := reference(t, st, lf, query.SearchOptions{})
		if len(before) < 2 {
			t.Fatalf("%s: only %d matches; nothing to delete", lf, len(before))
		}
		for _, gone := range []string{"x-mixed", before[0].DocID} {
			doc, err := st.Get(ctx, gone)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Delete(ctx, gone); err != nil {
				t.Fatal(err)
			}
			for _, top := range []int{0, 2} {
				var stats query.SearchStats
				got, err := eng.Search(ctx, lf, query.SearchOptions{Candidates: cand, TopN: top, Stats: &stats})
				if err != nil {
					t.Fatal(err)
				}
				if want := reference(t, st, lf, query.SearchOptions{TopN: top}); !reflect.DeepEqual(got, want) {
					t.Errorf("%s top=%d after deleting %s:\n got  %+v\n want %+v", lf, top, gone, got, want)
				}
				if top == 0 && stats.CandidatesDeleted != 1 {
					t.Errorf("%s after deleting %s: CandidatesDeleted = %d, want 1", lf, gone, stats.CandidatesDeleted)
				}
			}
			if err := st.Put(ctx, doc); err != nil {
				t.Fatal(err)
			}
		}
	}
}
