package staccatodb_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// The recall tests reproduce the paper's headline claim end to end on an
// error-model corpus: a keyword workload is answered by the MAP baseline
// (the Viterbi string alone), by Staccato at a (chunks, k) dial ingested
// through staccatodb, and by the exact FullSFST answer over the raw
// transducers. A document is retrieved when its match probability is
// positive, which nests the three retrieval sets — MAP ⊆ Staccato(c, k) ⊆
// FullSFST — so the gate MAP < Staccato ≤ Full is structural, not
// statistical, and a single violation is a bug, not noise. bench/ reports
// the same curve over its own corpus as staccato.dial-*.recall.

// docSet is one query's retrieved (or relevant) document IDs.
type docSet map[string]bool

// recallRun is one corpus with its keyword workload and the two baseline
// retrieval sets per term.
type recallRun struct {
	cases    []testgen.Case
	terms    []string
	queries  []*query.Query
	relevant []docSet // per term: documents whose truth holds it as a token
	mapSets  []docSet // per term: MAP-baseline retrieval set
	fullSets []docSet // per term: FullSFST retrieval set
}

// recallDocID names document i as testgen.ErrDocs does.
func recallDocID(i int) string { return fmt.Sprintf("doc-%04d", i+1) }

// newRecallRun generates n error-model documents, samples up to nQueries
// distinct truth tokens of at least four runes (so every term has a
// relevant document), and evaluates the MAP and FullSFST baselines.
func newRecallRun(t *testing.T, n int, model testgen.ErrModelConfig, nQueries int, querySeed int64) *recallRun {
	t.Helper()
	cases, err := testgen.ErrCorpusFSTs(n, model)
	if err != nil {
		t.Fatal(err)
	}
	r := &recallRun{cases: cases}
	rng := rand.New(rand.NewSource(querySeed))
	seen := map[string]bool{}
	for attempts := 0; len(r.terms) < nQueries && attempts < nQueries*200; attempts++ {
		toks := strings.Fields(cases[rng.Intn(len(cases))].Truth)
		if len(toks) == 0 {
			continue
		}
		if tok := toks[rng.Intn(len(toks))]; len(tok) >= 4 && !seen[tok] {
			seen[tok] = true
			r.terms = append(r.terms, tok)
		}
	}
	if len(r.terms) == 0 {
		t.Fatalf("sampled no workload terms from %d documents", n)
	}
	sort.Strings(r.terms)

	for _, term := range r.terms {
		q := mustQ(query.Keyword(term))
		rel, mapSet, fullSet := docSet{}, docSet{}, docSet{}
		for i, c := range cases {
			id := recallDocID(i)
			if hasToken(c.Truth, term) {
				rel[id] = true
			}
			if matched, _ := q.MatchText(c.FST.Viterbi().Output); matched {
				mapSet[id] = true
			}
			p, err := q.EvalFST(c.FST)
			if err != nil {
				t.Fatalf("EvalFST %s term %q: %v", id, term, err)
			}
			if p > 0 {
				fullSet[id] = true
			}
		}
		r.queries = append(r.queries, q)
		r.relevant = append(r.relevant, rel)
		r.mapSets = append(r.mapSets, mapSet)
		r.fullSets = append(r.fullSets, fullSet)
	}
	return r
}

// hasToken reports whether truth holds term as a whole token.
func hasToken(truth, term string) bool {
	for _, tok := range strings.Fields(truth) {
		if tok == term {
			return true
		}
	}
	return false
}

// staccatoSets builds the corpus at one dial, ingests it into an in-memory
// DB, and answers the workload through Search.
func (r *recallRun) staccatoSets(t *testing.T, chunks, k int) []docSet {
	t.Helper()
	ctx := context.Background()
	db, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const batch = 128
	docs := make([]*staccato.Doc, 0, batch)
	for i, c := range r.cases {
		doc, err := staccato.Build(c.FST, recallDocID(i), chunks, k)
		if err != nil {
			t.Fatalf("build %s at (%d,%d): %v", recallDocID(i), chunks, k, err)
		}
		docs = append(docs, doc)
		if len(docs) == batch || i == len(r.cases)-1 {
			if err := db.Ingest(ctx, docs); err != nil {
				t.Fatal(err)
			}
			docs = docs[:0]
		}
	}
	sets := make([]docSet, len(r.queries))
	for qi, q := range r.queries {
		results, _, err := db.Search(ctx, q, query.SearchOptions{})
		if err != nil {
			t.Fatalf("search %q at (%d,%d): %v", r.terms[qi], chunks, k, err)
		}
		sets[qi] = docSet{}
		for _, res := range results {
			sets[qi][res.DocID] = true
		}
	}
	return sets
}

// recall macro-averages |retrieved ∩ relevant| / |relevant| over the
// workload.
func (r *recallRun) recall(sets []docSet) float64 {
	var sum float64
	for qi, rel := range r.relevant {
		hit := 0
		for id := range rel {
			if sets[qi][id] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(rel))
	}
	return sum / float64(len(r.relevant))
}

// TestRecallMonotonicityProperty checks the nesting per document, not
// only on average: across seeds and dials, every document MAP retrieves
// Staccato retrieves (the MAP reading is retained at every dial with
// k >= 1), and every document Staccato retrieves the FullSFST answer
// retrieves (every retained reading is an accepting path).
func TestRecallMonotonicityProperty(t *testing.T) {
	for _, seed := range []int64{1, 101, 5001} {
		r := newRecallRun(t, 60, testgen.ErrModelConfig{Words: 10, Seed: seed}, 8, seed)
		mapRecall, fullRecall := r.recall(r.mapSets), r.recall(r.fullSets)
		for _, d := range [][2]int{{3, 2}, {5, 3}, {8, 4}} {
			sets := r.staccatoSets(t, d[0], d[1])
			for qi, term := range r.terms {
				for id := range r.mapSets[qi] {
					if !sets[qi][id] {
						t.Errorf("seed %d dial %v term %q: MAP retrieves %s but Staccato does not", seed, d, term, id)
					}
				}
				for id := range sets[qi] {
					if !r.fullSets[qi][id] {
						t.Errorf("seed %d dial %v term %q: Staccato retrieves %s but FullSFST does not", seed, d, term, id)
					}
				}
			}
			if got := r.recall(sets); got < mapRecall || got > fullRecall {
				t.Errorf("seed %d dial %v: recall map=%v staccato=%v full=%v, want map <= staccato <= full",
					seed, d, mapRecall, got, fullRecall)
			}
		}
	}
}

// TestRecallFullIsOne pins the invariant the gate's upper bound leans on:
// the ground truth is an accepting path of its own transducer, so the
// FullSFST answer retrieves every relevant document.
func TestRecallFullIsOne(t *testing.T) {
	r := newRecallRun(t, 40, testgen.ErrModelConfig{Words: 10, Seed: 3}, 6, 1)
	// Full recall is a mean of ratios of equal integer counts, exactly 1 by construction
	if got := r.recall(r.fullSets); got != 1 {
		t.Fatalf("FullSFST recall = %v, want exactly 1", got)
	}
}

// TestRecallGate is the paper's headline claim at the scale it is
// reported on: 1000 default error-model documents, 16 keyword queries,
// the default dial (6,3). The approximation must buy real recall over the
// MAP string without ever exceeding the exact answer. The numbers are
// logged, not pinned: a better approximation is free to move them.
func TestRecallGate(t *testing.T) {
	r := newRecallRun(t, 1000, testgen.ErrModelConfig{Seed: 1}, 16, 1)
	mapRecall := r.recall(r.mapSets)
	staccatoRecall := r.recall(r.staccatoSets(t, 6, 3))
	fullRecall := r.recall(r.fullSets)
	t.Logf("recall over %d queries: map=%.4f staccato(6,3)=%.4f full=%.4f",
		len(r.terms), mapRecall, staccatoRecall, fullRecall)
	if !(mapRecall < staccatoRecall && staccatoRecall <= fullRecall) {
		t.Fatalf("recall map=%.4f staccato(6,3)=%.4f full=%.4f, want map < staccato <= full",
			mapRecall, staccatoRecall, fullRecall)
	}
}
