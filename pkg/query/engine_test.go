package query_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// memStore opens an empty in-memory store, closed when the test ends.
func memStore(t testing.TB) *diskstore.Store {
	t.Helper()
	st, err := diskstore.OpenMem(diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// corpusStore ingests a deterministic synthetic corpus into an in-memory store.
func corpusStore(t testing.TB, n, length int, seed int64, chunks, k int) *diskstore.Store {
	t.Helper()
	cases, err := testgen.Docs(n, testgen.Config{Length: length, Seed: seed}, chunks, k)
	if err != nil {
		t.Fatal(err)
	}
	st := memStore(t)
	ctx := context.Background()
	for _, c := range cases {
		if err := st.Put(ctx, c.Doc); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// putDoc stores a hand-built single-chunk document with the given alts.
func putDoc(t *testing.T, st *diskstore.Store, id string, alts ...staccato.Alt) {
	t.Helper()
	d := &staccato.Doc{
		ID:     id,
		Params: staccato.Params{Chunks: 1, K: len(alts)},
		Chunks: []staccato.PathSet{{Alts: alts, Retained: 1}},
	}
	if err := st.Put(context.Background(), d); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSearchDeterministicAcrossWorkers is the acceptance scenario:
// on a 500-doc seeded corpus, Search at workers=8 must return results
// byte-identical to workers=1.
func TestEngineSearchDeterministicAcrossWorkers(t *testing.T) {
	st := corpusStore(t, 500, 24, 1, 4, 3)
	q := query.And(
		sub(t, "e"),
		query.Not(sub(t, "zz")),
	)
	ctx := context.Background()
	base, err := query.NewEngine(st, query.EngineOptions{Workers: 1}).
		Search(ctx, q, query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("corpus query matched nothing; test term too selective")
	}
	for _, workers := range []int{2, 8} {
		got, err := query.NewEngine(st, query.EngineOptions{Workers: workers}).
			Search(ctx, q, query.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d results differ from workers=1", workers)
		}
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", base) {
			t.Fatalf("workers=%d results not byte-identical to workers=1", workers)
		}
	}
}

func TestEngineSearchRankingThresholdTopN(t *testing.T) {
	st := memStore(t)
	putDoc(t, st, "doc-half", staccato.Alt{Text: "xa", Prob: 0.5}, staccato.Alt{Text: "ya", Prob: 0.5})
	putDoc(t, st, "doc-sure-b", staccato.Alt{Text: "xb", Prob: 1})
	putDoc(t, st, "doc-sure-a", staccato.Alt{Text: "xc", Prob: 1})
	putDoc(t, st, "doc-none", staccato.Alt{Text: "qq", Prob: 1})
	q := sub(t, "x")
	eng := query.NewEngine(st, query.EngineOptions{Workers: 4})
	ctx := context.Background()

	got, err := eng.Search(ctx, q, query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Prob-zero doc dropped; ties ranked by ascending DocID.
	want := []query.Result{
		{DocID: "doc-sure-a", Prob: 1},
		{DocID: "doc-sure-b", Prob: 1},
		{DocID: "doc-half", Prob: 0.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Search = %+v, want %+v", got, want)
	}

	got, err = eng.Search(ctx, q, query.SearchOptions{MinProb: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("MinProb=0.6 kept %d results, want 2: %+v", len(got), got)
	}

	got, err = eng.Search(ctx, q, query.SearchOptions{TopN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[:1]) {
		t.Errorf("TopN=1 = %+v, want %+v", got, want[:1])
	}
}

func TestEngineContextCancelled(t *testing.T) {
	st := corpusStore(t, 10, 20, 7, 3, 2)
	q := sub(t, "a")
	eng := query.NewEngine(st, query.EngineOptions{Workers: 4})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Search(ctx, q, query.SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Search on cancelled context = %v, want context.Canceled", err)
	}
}

func TestEngineNilQuery(t *testing.T) {
	eng := query.NewEngine(memStore(t), query.EngineOptions{})
	ctx := context.Background()
	// A zero-value Query was never compiled; the engine must reject it
	// instead of panicking in a worker goroutine.
	for _, q := range []*query.Query{nil, {}} {
		_, err := eng.Search(ctx, q, query.SearchOptions{})
		if err == nil || !strings.Contains(err.Error(), "Search requires") {
			t.Errorf("Search(%v) error = %v, want one naming Search", q, err)
		}
	}
}

func TestZeroValueQueryEvalsToZero(t *testing.T) {
	d := doc([]staccato.Alt{{Text: "x", Prob: 1}})
	var q query.Query
	if p := q.Eval(d); p != 0 {
		t.Errorf("zero-value Query.Eval = %v, want 0", p)
	}
}

func TestEngineDefaultWorkers(t *testing.T) {
	eng := query.NewEngine(memStore(t), query.EngineOptions{})
	if eng.Workers() < 1 {
		t.Errorf("default Workers = %d, want >= 1", eng.Workers())
	}
	if w := query.NewEngine(memStore(t), query.EngineOptions{Workers: 3}).Workers(); w != 3 {
		t.Errorf("Workers = %d, want 3", w)
	}
}

// TestCertainMatchesRankByDocID: documents that match with certainty tie
// at probability exactly 1 and rank by ascending DocID — not by which
// side of 1 the DP's rounding happened to land them on.
func TestCertainMatchesRankByDocID(t *testing.T) {
	st := corpusStore(t, 30, 0, 42, 10, 4)
	res, err := query.NewEngine(st, query.EngineOptions{}).Search(context.Background(), sub(t, "e"), query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var certain []string
	for _, r := range res {
		if r.Prob >= 1 {
			if r.Prob > 1 {
				t.Errorf("%s: probability %v exceeds 1", r.DocID, r.Prob)
			}
			certain = append(certain, r.DocID)
		}
	}
	if len(certain) < 2 {
		t.Fatalf("only %d certain matches; the corpus lost its teeth", len(certain))
	}
	if !slices.IsSorted(certain) {
		t.Errorf("certain matches not in DocID order: %v", certain)
	}
}
