package query_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/refsearch"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// candidateCorpus builds an in-memory store + matching index + truth list.
func candidateCorpus(t *testing.T, n int, seed int64) (*diskstore.Store, *index.Index, []string) {
	t.Helper()
	ctx := context.Background()
	cases, err := testgen.Docs(n, testgen.Config{Length: 30, Seed: seed}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := memStore(t)
	ix := index.New(3)
	truths := make([]string, len(cases))
	for i, c := range cases {
		if err := st.Put(ctx, c.Doc); err != nil {
			t.Fatal(err)
		}
		ix.Add(c.Doc)
		truths[i] = c.Truth
	}
	return st, ix, truths
}

// reference is the sequential evaluator the engine's modes are checked
// against: no worker pool, no candidate set, nothing shared with Engine.
func reference(t *testing.T, st store.DocStore, q *query.Query, opts query.SearchOptions) []query.Result {
	t.Helper()
	res, err := refsearch.Search(context.Background(), st, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// isCandidate reports membership the way the engine sees it: off IDs().
func isCandidate(cand *query.CandidateSet, id string) bool {
	return slices.Contains(cand.IDs(), id)
}

// TestSearchUnderCandidatesByteIdenticalToScan is the engine's contract:
// for random boolean queries whose plans prune, Search under the
// candidate set (candidate-only, or top-k when a result limit is set)
// returns byte-identical output to both the full scan and the sequential
// reference, at 1, 2, and 8 workers.
func TestSearchUnderCandidatesByteIdenticalToScan(t *testing.T) {
	ctx := context.Background()
	st, ix, truths := candidateCorpus(t, 60, 71)
	rng := rand.New(rand.NewSource(7))
	prunedRuns := 0
	for trial := 0; trial < 40; trial++ {
		q := buildRandomQuery(t, rng, truths, 2)
		cand := q.Plan(3).Candidates(ix)
		if cand == nil {
			continue // unprunable plan: nothing to restrict the run by
		}
		prunedRuns++
		opts := query.SearchOptions{MinProb: float64(trial%3) * 0.05, TopN: trial % 7}
		want := reference(t, st, q, opts)
		for _, workers := range []int{1, 2, 8} {
			eng := query.NewEngine(st, query.EngineOptions{Workers: workers})
			fullScan, err := eng.Search(ctx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			var stats query.SearchStats
			candOpts := opts
			candOpts.Candidates = cand
			candOpts.Stats = &stats
			candOnly, err := eng.Search(ctx, q, candOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fullScan, want) || !reflect.DeepEqual(candOnly, want) {
				t.Fatalf("trial %d workers %d: query %s: modes disagree\n reference: %+v\n full:      %+v\n cand:      %+v",
					trial, workers, q.String(), want, fullScan, candOnly)
			}
			if opts.TopN > 0 {
				if stats.Mode != query.ExecTopK {
					t.Fatalf("trial %d: Mode = %q, want %q", trial, stats.Mode, query.ExecTopK)
				}
				continue
			}
			if stats.Mode != query.ExecCandidateOnly {
				t.Fatalf("trial %d: Mode = %q, want %q", trial, stats.Mode, query.ExecCandidateOnly)
			}
			if stats.CandidatesFetched != cand.Len() || stats.DocsScanned != cand.Len() {
				t.Fatalf("trial %d: fetched %d / scanned %d, want %d (no concurrent deletes)",
					trial, stats.CandidatesFetched, stats.DocsScanned, cand.Len())
			}
		}
	}
	if prunedRuns == 0 {
		t.Fatal("no trial produced a candidate set; the test is vacuous")
	}
}

// TestSearchSkipsDeletedCandidate: a candidate deleted between planning
// and execution is skipped — never an error — matching a scan ordered
// after the delete. The stats must keep the fetch attempt and the
// evaluation apart: the deleted candidate is still fetched (the
// not-found answer IS a store fetch) but not scanned, and the gap is
// reported in CandidatesDeleted. Regression test for the bug that
// assigned one counter to both fields, which made a delete between plan
// and fetch invisible in the stats.
func TestSearchSkipsDeletedCandidate(t *testing.T) {
	ctx := context.Background()
	st, ix, _ := candidateCorpus(t, 20, 73)
	ids, err := st.ListDocIDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Get(ctx, ids[7])
	if err != nil {
		t.Fatal(err)
	}
	term := doc.MAP()[5:11]
	q := mustQ(query.Substring(term))
	cand := q.Plan(3).Candidates(ix)
	if cand == nil || !isCandidate(cand, ids[7]) {
		t.Fatalf("expected a candidate set containing %s; got %v", ids[7], cand.IDs())
	}
	if err := st.Delete(ctx, ids[7]); err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(st, query.EngineOptions{Workers: 2})
	var stats query.SearchStats
	res, err := eng.Search(ctx, q, query.SearchOptions{Candidates: cand, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.DocID == ids[7] {
			t.Fatalf("deleted doc %s still in results %+v", ids[7], res)
		}
	}
	if stats.CandidatesFetched != cand.Len() {
		t.Fatalf("CandidatesFetched = %d, want %d (every candidate is a fetch attempt)",
			stats.CandidatesFetched, cand.Len())
	}
	if stats.DocsScanned != cand.Len()-1 {
		t.Fatalf("DocsScanned = %d, want %d (the deleted candidate is not evaluated)",
			stats.DocsScanned, cand.Len()-1)
	}
	if stats.CandidatesDeleted != 1 {
		t.Fatalf("CandidatesDeleted = %d, want 1", stats.CandidatesDeleted)
	}
}

// TestEngineStatsInvariantEveryPipeline drives all three execution modes
// at 1, 2, and 8 workers with a candidate deleted between planning and
// fetching, and checks the accounting invariants on the engine's own
// stats — no caller arithmetic: DocsTotal == DocsScanned + DocsPruned +
// BoundsSkipped everywhere, and CandidatesFetched == DocsScanned +
// CandidatesDeleted with the deletion visible wherever the source is the
// candidate set (the scan lists after the delete, never attempts the
// fetch, and reports both candidate counters as zero) — and the output
// against the sequential reference.
func TestEngineStatsInvariantEveryPipeline(t *testing.T) {
	ctx := context.Background()
	st, q, cand := markerCorpus(t, 200)
	// m-0003 has one of the best bounds, so even an early-stopping top-k
	// run attempts it.
	if err := st.Delete(ctx, "m-0003"); err != nil {
		t.Fatal(err)
	}
	live := st.Len()

	for _, tc := range []struct {
		mode        query.ExecMode
		cand        *query.CandidateSet
		topN        int
		wantDeleted int
	}{
		{mode: query.ExecScan},
		{mode: query.ExecCandidateOnly, cand: cand, wantDeleted: 1},
		{mode: query.ExecTopK, cand: cand, topN: 5, wantDeleted: 1},
	} {
		want := reference(t, st, q, query.SearchOptions{TopN: tc.topN})
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("%s workers=%d", tc.mode, workers)
			eng := query.NewEngine(st, query.EngineOptions{Workers: workers})
			var stats query.SearchStats
			got, err := eng.Search(ctx, q, query.SearchOptions{Candidates: tc.cand, TopN: tc.topN, Stats: &stats})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if stats.Mode != tc.mode {
				t.Fatalf("%s: Mode = %q", name, stats.Mode)
			}
			if stats.DocsTotal != live || stats.DocsTotal != stats.DocsScanned+stats.DocsPruned+stats.BoundsSkipped {
				t.Fatalf("%s: DocsTotal %d (live %d) != scanned %d + pruned %d + skipped %d",
					name, stats.DocsTotal, live, stats.DocsScanned, stats.DocsPruned, stats.BoundsSkipped)
			}
			if stats.CandidatesDeleted != tc.wantDeleted {
				t.Fatalf("%s: CandidatesDeleted = %d, want %d", name, stats.CandidatesDeleted, tc.wantDeleted)
			}
			wantFetched := 0
			if tc.wantDeleted > 0 {
				wantFetched = stats.DocsScanned + stats.CandidatesDeleted
			}
			if stats.CandidatesFetched != wantFetched {
				t.Fatalf("%s: CandidatesFetched = %d, want %d", name, stats.CandidatesFetched, wantFetched)
			}
			if tc.mode == query.ExecTopK && (!stats.EarlyStopped || stats.BoundsSkipped == 0) {
				t.Fatalf("%s: expected an early stop, got %+v", name, stats)
			}
			if tc.mode != query.ExecTopK && (stats.EarlyStopped || stats.BoundsSkipped != 0) {
				t.Fatalf("%s: top-k counters leaked: %+v", name, stats)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: output differs from the reference\n got:  %+v\n want: %+v", name, got, want)
			}
		}
	}
}

// TestSearchEmptyCandidateSetTouchesNothing: a plan that proves no
// document can match yields an empty candidate set, and the engine must
// return instantly without a single store read.
func TestSearchEmptyCandidateSetTouchesNothing(t *testing.T) {
	st, _, _ := candidateCorpus(t, 10, 79)
	eng := query.NewEngine(failingGetStore{Store: st}, query.EngineOptions{Workers: 4})
	var stats query.SearchStats
	res, err := eng.Search(context.Background(), mustQ(query.Substring("abcdef")),
		query.SearchOptions{Candidates: query.NewCandidateSet(), Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || stats.CandidatesFetched != 0 || stats.Mode != query.ExecCandidateOnly {
		t.Fatalf("empty candidate set: res %+v stats %+v", res, stats)
	}
}

// failingGetStore fails every read — proof that a code path never
// touched the store.
type failingGetStore struct{ *diskstore.Store }

func (f failingGetStore) Get(ctx context.Context, id string) (*staccato.Doc, error) {
	return nil, errors.New("store read on a path that promised none")
}
func (f failingGetStore) GetBatch(ctx context.Context, ids []string) ([]*staccato.Doc, error) {
	return nil, errors.New("store batch read on a path that promised none")
}
func (f failingGetStore) ListDocIDs(ctx context.Context) ([]string, error) {
	return nil, errors.New("store listing on a path that promised none")
}
func (f failingGetStore) Scan(ctx context.Context, fn func(doc *staccato.Doc) error) error {
	return errors.New("store scan on a path that promised none")
}

// TestSearchTopKValidation: SearchTopK's preconditions — a compiled
// query, a candidate set, a result limit, no rescorer — are contract
// violations reported as errors naming SearchTopK, not silent fallbacks
// to another execution mode.
func TestSearchTopKValidation(t *testing.T) {
	st, _, _ := candidateCorpus(t, 5, 83)
	eng := query.NewEngine(st, query.EngineOptions{Workers: 2})
	ctx := context.Background()
	q := mustQ(query.Substring("abc"))
	cand := query.NewCandidateSet("x")
	identity := func(d *staccato.Doc) *staccato.Doc { return d }
	for name, call := range map[string]func() error{
		"nil query": func() error {
			_, err := eng.SearchTopK(ctx, nil, cand, query.SearchOptions{TopN: 1})
			return err
		},
		"nil candidate set": func() error {
			_, err := eng.SearchTopK(ctx, q, nil, query.SearchOptions{TopN: 1})
			return err
		},
		"TopN = 0": func() error {
			_, err := eng.SearchTopK(ctx, q, cand, query.SearchOptions{})
			return err
		},
		"rescorer": func() error {
			_, err := eng.SearchTopK(ctx, q, cand, query.SearchOptions{TopN: 1, Rescore: identity})
			return err
		},
	} {
		if err := call(); err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), "SearchTopK") {
			t.Errorf("%s: error %q does not name SearchTopK", name, err)
		}
	}
	if _, err := eng.SearchTopK(ctx, q, cand, query.SearchOptions{TopN: 1}); err != nil {
		t.Errorf("valid SearchTopK call failed: %v", err)
	}
}

// TestSearchCandidateReadErrorPropagates: a store failure mid-run
// cancels the whole call and surfaces the error.
func TestSearchCandidateReadErrorPropagates(t *testing.T) {
	st, ix, _ := candidateCorpus(t, 20, 89)
	ids, err := st.ListDocIDs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Get(context.Background(), ids[3])
	if err != nil {
		t.Fatal(err)
	}
	q := mustQ(query.Substring(doc.MAP()[4:10]))
	cand := q.Plan(3).Candidates(ix)
	if cand == nil || cand.Len() == 0 {
		t.Fatal("expected a non-empty candidate set")
	}
	eng := query.NewEngine(failingGetStore{Store: st}, query.EngineOptions{Workers: 3})
	for _, topN := range []int{0, 3} {
		if _, err := eng.Search(context.Background(), q, query.SearchOptions{Candidates: cand, TopN: topN}); err == nil {
			t.Fatalf("TopN=%d: store read failure did not surface", topN)
		}
	}
}

// TestSearchCandidateSetCancelledContext: a pre-cancelled context aborts
// the run with the context's error.
func TestSearchCandidateSetCancelledContext(t *testing.T) {
	st, ix, truths := candidateCorpus(t, 20, 97)
	q := mustQ(query.Substring(truths[0][0:6]))
	cand := q.Plan(3).Candidates(ix)
	if cand == nil {
		cand = query.NewCandidateSet("doc-0001")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := query.NewEngine(st, query.EngineOptions{Workers: 2})
	if _, err := eng.Search(ctx, q, query.SearchOptions{Candidates: cand}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
