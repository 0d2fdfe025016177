package query_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// markerCorpus stores n single-chunk documents that all contain
// "zzmarker", at probabilities falling from 0.9 to 0.1 with the ID, plus
// one document that cannot match — n/64 worker jobs for a scan or a
// candidate-only run, and top-k rounds of several jobs when TopN is large.
func markerCorpus(t *testing.T, n int) (*diskstore.Store, *query.Query, *query.CandidateSet) {
	t.Helper()
	st := memStore(t)
	ix := index.New(3)
	put := func(id string, alts ...staccato.Alt) {
		d := &staccato.Doc{
			ID:     id,
			Params: staccato.Params{Chunks: 1, K: len(alts)},
			Chunks: []staccato.PathSet{{Alts: alts, Retained: 1}},
		}
		commitPuts(t, st, d)
		ix.Apply([]index.Entry{index.EntryFor(d, ix.GramSize())}, nil)
	}
	for i := range n {
		p := 0.9 - 0.8*float64(i)/float64(n)
		alts := []staccato.Alt{{Text: " zzmarker ", Prob: p}, {Text: "~", Prob: 1 - p}}
		if alts[0].Prob < alts[1].Prob {
			alts[0], alts[1] = alts[1], alts[0]
		}
		put(fmt.Sprintf("m-%04d", i), alts...)
	}
	put("x-filler", staccato.Alt{Text: "nothing here", Prob: 1})
	q := mustQ(query.Substring("zzmarker"))
	cand := q.Plan(3).Candidates(ix)
	if cand.Len() != n {
		t.Fatalf("candidate set has %d members, want the %d marker docs", cand.Len(), n)
	}
	return st, q, cand
}

// jitterStore delays every ViewBatch by a seeded random 100–500 µs, so
// worker jobs finish in an order unrelated to the order they were claimed.
type jitterStore struct {
	*diskstore.Store
	mu  sync.Mutex
	rng *rand.Rand
}

func (s *jitterStore) ViewBatch(ctx context.Context, ids []string, fn func(int, *store.View) error) error {
	s.mu.Lock()
	d := time.Duration(100+s.rng.Intn(400)) * time.Microsecond
	s.mu.Unlock()
	time.Sleep(d)
	return s.Store.ViewBatch(ctx, ids, fn)
}

// TestSearchGatherOrderCannotShow: the pool gathers jobs in whatever order
// they finish. With the store making that order random, every mode must
// still return the sequential reference's results and the same SearchStats
// at 1, 2, and 8 workers.
func TestSearchGatherOrderCannotShow(t *testing.T) {
	ctx := context.Background()
	mem, q, cand := markerCorpus(t, 700)
	st := &jitterStore{Store: mem, rng: rand.New(rand.NewSource(17))}
	for _, tc := range []struct {
		mode query.ExecMode
		opts query.SearchOptions
	}{
		{query.ExecScan, query.SearchOptions{MinProb: 0.3}},
		{query.ExecCandidateOnly, query.SearchOptions{Candidates: cand, MinProb: 0.3}},
		{query.ExecTopK, query.SearchOptions{Candidates: cand, TopN: 100}}, // one 256-ID round, 4–8 jobs, before the stop
	} {
		want := reference(t, mem, q, tc.opts)
		if len(want) < 100 {
			t.Fatalf("%s: reference matched only %d docs; the corpus lost its teeth", tc.mode, len(want))
		}
		var wantStats query.SearchStats
		for _, workers := range []int{1, 2, 8} {
			var stats query.SearchStats
			opts := tc.opts
			opts.Stats = &stats
			got, err := query.NewEngine(st, query.EngineOptions{Workers: workers}).Search(ctx, q, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.mode, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: results differ from the sequential reference", tc.mode, workers)
			}
			if stats.Mode != tc.mode {
				t.Fatalf("%s workers=%d: Mode = %q", tc.mode, workers, stats.Mode)
			}
			if workers == 1 {
				wantStats = stats
			} else if stats != wantStats {
				t.Fatalf("%s workers=%d: stats %+v differ from workers=1 %+v", tc.mode, workers, stats, wantStats)
			}
		}
		if tc.mode == query.ExecTopK && (!wantStats.EarlyStopped || wantStats.CandidatesFetched <= 3*64) {
			t.Fatalf("top-k stats %+v: want an early stop after rounds of more than one job", wantStats)
		}
	}
}

// faultStore fails the ViewBatch that carries failID — after waiting for
// park other calls to be blocked inside the store — and makes every other
// call wait for the cancellation that failure causes.
type faultStore struct {
	*diskstore.Store
	failID   string
	park     int
	parked   chan struct{}
	inFlight atomic.Int32
}

var errBatchRead = errors.New("injected batch read failure")

func (s *faultStore) ViewBatch(ctx context.Context, ids []string, fn func(int, *store.View) error) error {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if !slices.Contains(ids, s.failID) {
		s.parked <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}
	for range s.park {
		select {
		case <-s.parked:
		case <-time.After(5 * time.Second):
			return errors.New("the pool never brought its other workers into the store")
		}
	}
	return errBatchRead
}

// TestSearchReportsTheFailureNotItsCancellations: one job's store error
// cancels the run; the workers it interrupts fail with context.Canceled.
// Search must return the store's error, and only once every worker has
// left the store.
func TestSearchReportsTheFailureNotItsCancellations(t *testing.T) {
	mem, q, cand := markerCorpus(t, 700)
	for _, workers := range []int{1, 2, 8} {
		for name, opts := range map[string]query.SearchOptions{
			"scan":           {},
			"candidate-only": {Candidates: cand},
		} {
			// The first job fails; with 11 jobs on offer every other worker
			// has claimed one and is parked in the store when it does.
			st := &faultStore{Store: mem, failID: "m-0000", park: workers - 1, parked: make(chan struct{}, workers)}
			_, err := query.NewEngine(st, query.EngineOptions{Workers: workers}).Search(context.Background(), q, opts)
			if !errors.Is(err, errBatchRead) {
				t.Errorf("%s workers=%d: err = %v, want the store's own error", name, workers, err)
			}
			if n := st.inFlight.Load(); n != 0 {
				t.Errorf("%s workers=%d: Search returned with %d workers still in the store", name, workers, n)
			}
		}
	}
}

// cancelOnSecondBatch cancels the caller's context from inside the second
// ViewBatch: a cancellation that arrives mid-run.
type cancelOnSecondBatch struct {
	*diskstore.Store
	calls  atomic.Int32
	cancel context.CancelFunc
}

func (s *cancelOnSecondBatch) ViewBatch(ctx context.Context, ids []string, fn func(int, *store.View) error) error {
	if s.calls.Add(1) == 2 {
		s.cancel()
	}
	return s.Store.ViewBatch(ctx, ids, fn)
}

// TestSearchCancelledMidRun: a context cancelled while jobs are in flight
// ends the run with the context's error, in every mode.
func TestSearchCancelledMidRun(t *testing.T) {
	mem, q, cand := markerCorpus(t, 700)
	for name, opts := range map[string]query.SearchOptions{
		"scan":           {},
		"candidate-only": {Candidates: cand},
		"top-k":          {Candidates: cand, TopN: 300},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		st := &cancelOnSecondBatch{Store: mem, cancel: cancel}
		_, err := query.NewEngine(st, query.EngineOptions{Workers: 2}).Search(ctx, q, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// cancelAfterFirstVisit cancels the caller's context as soon as the
// engine's visitor returns from its first document, then counts the
// documents the visitor still accepts.
type cancelAfterFirstVisit struct {
	*diskstore.Store
	cancel context.CancelFunc
	visits atomic.Int32
	after  atomic.Int32
}

func (s *cancelAfterFirstVisit) ViewBatch(ctx context.Context, ids []string, fn func(int, *store.View) error) error {
	return s.Store.ViewBatch(ctx, ids, func(i int, v *store.View) error {
		err := fn(i, v)
		if s.visits.Add(1) == 1 {
			s.cancel()
		} else if err == nil {
			s.after.Add(1)
		}
		return err
	})
}

// TestSearchCancelsWithinOneEvaluation: the engine polls cancellation
// per document, so a context cancelled while a 64-document batch is being
// visited ends the batch at the next document, without evaluating it.
func TestSearchCancelsWithinOneEvaluation(t *testing.T) {
	mem, q, _ := markerCorpus(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := &cancelAfterFirstVisit{Store: mem, cancel: cancel}
	_, err := query.NewEngine(st, query.EngineOptions{Workers: 1}).Search(ctx, q, query.SearchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := st.after.Load(); n != 0 {
		t.Fatalf("%d documents evaluated after the cancellation, want 0", n)
	}
}

// poisonStore overwrites every view — its record bytes, spans and
// probabilities — as soon as the visitor returns, the way a reused batch
// buffer eventually would. An engine that kept any part of a view past
// its visit would then report garbage.
type poisonStore struct{ *diskstore.Store }

func (s poisonStore) ViewBatch(ctx context.Context, ids []string, fn func(int, *store.View) error) error {
	return s.Store.ViewBatch(ctx, ids, func(i int, v *store.View) error {
		err := fn(i, v)
		for j := range v.Data {
			v.Data[j] = 0xa5
		}
		for j := range v.Spans {
			v.Spans[j] = 0
		}
		for j := range v.Probs {
			v.Probs[j] = math.NaN()
		}
		return err
	})
}

// TestSearchKeepsNoViewMemory: with every view poisoned once visited,
// every mode — and a rescored scan, which decodes the view — must still
// return the sequential reference's results at 1, 2, and 8 workers.
func TestSearchKeepsNoViewMemory(t *testing.T) {
	ctx := context.Background()
	mem, q, cand := markerCorpus(t, 300)
	st := poisonStore{Store: mem}
	identity := func(d *staccato.Doc) *staccato.Doc { return d }
	for name, opts := range map[string]query.SearchOptions{
		"scan":           {MinProb: 0.3},
		"rescored scan":  {Rescore: identity},
		"candidate-only": {Candidates: cand},
		"top-k":          {Candidates: cand, TopN: 20},
	} {
		want := reference(t, mem, q, opts)
		if len(want) < 20 {
			t.Fatalf("%s: reference matched only %d docs", name, len(want))
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := query.NewEngine(st, query.EngineOptions{Workers: workers}).Search(ctx, q, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: results differ from the sequential reference", name, workers)
			}
		}
	}
}

// TestCandidateSetSharedAcrossSearches: one candidate set, fresh from the
// index and so out of ID order, serves concurrent top-k and
// candidate-only searches and direct IDs and Ranked calls, the first IDs
// call among them. Every answer must equal its sequential reference; run
// under -race, this is what holds the lazy ID sort to a set that may be
// shared.
func TestCandidateSetSharedAcrossSearches(t *testing.T) {
	ctx := context.Background()
	st, q, cand := markerCorpus(t, 200)
	wantTopK := reference(t, st, q, query.SearchOptions{TopN: 5})
	wantAll := reference(t, st, q, query.SearchOptions{})
	eng := query.NewEngine(st, query.EngineOptions{Workers: 2})
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				var got, want []query.Result
				var err error
				switch (g + i) % 4 {
				case 0:
					got, err = eng.Search(ctx, q, query.SearchOptions{Candidates: cand, TopN: 5})
					want = wantTopK
				case 1:
					got, err = eng.Search(ctx, q, query.SearchOptions{Candidates: cand})
					want = wantAll
				case 2:
					if ids := cand.IDs(); len(ids) != 200 || !slices.IsSorted(ids) {
						t.Errorf("goroutine %d: IDs = %v, want 200 ascending", g, ids)
						return
					}
				default:
					if r := cand.Ranked(); len(r) != 200 || r[0].ID != "m-0000" {
						t.Errorf("goroutine %d: Ranked starts %+v, want 200 from m-0000", g, r[:min(3, len(r))])
						return
					}
				}
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: search = %v, %v; want the reference", g, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
