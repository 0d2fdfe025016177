package query_test

import (
	"context"
	"errors"
	"fmt"
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
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// markerCorpus stores n single-chunk documents that all contain
// "zzmarker", at probabilities falling from 0.9 to 0.1 with the ID, plus
// one document that cannot match — n/64 worker jobs for a scan or a
// candidate-only run, and top-k rounds of several jobs when TopN is large.
func markerCorpus(t *testing.T, n int) (*diskstore.Store, *query.Query, *query.CandidateSet) {
	t.Helper()
	ctx := context.Background()
	st := memStore(t)
	ix := index.New(3)
	put := func(id string, alts ...staccato.Alt) {
		d := &staccato.Doc{
			ID:     id,
			Params: staccato.Params{Chunks: 1, K: len(alts)},
			Chunks: []staccato.PathSet{{Alts: alts, Retained: 1}},
		}
		if err := st.Put(ctx, d); err != nil {
			t.Fatal(err)
		}
		ix.Add(d)
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

// jitterStore delays every GetBatch by a seeded random 100–500 µs, so
// worker jobs finish in an order unrelated to the order they were claimed.
type jitterStore struct {
	*diskstore.Store
	mu  sync.Mutex
	rng *rand.Rand
}

func (s *jitterStore) GetBatch(ctx context.Context, ids []string) ([]*staccato.Doc, error) {
	s.mu.Lock()
	d := time.Duration(100+s.rng.Intn(400)) * time.Microsecond
	s.mu.Unlock()
	time.Sleep(d)
	return s.Store.GetBatch(ctx, ids)
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

// faultStore fails the GetBatch that carries failID — after waiting for
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

func (s *faultStore) GetBatch(ctx context.Context, ids []string) ([]*staccato.Doc, error) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if !slices.Contains(ids, s.failID) {
		s.parked <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	for range s.park {
		select {
		case <-s.parked:
		case <-time.After(5 * time.Second):
			return nil, errors.New("the pool never brought its other workers into the store")
		}
	}
	return nil, errBatchRead
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
// GetBatch: a cancellation that arrives mid-run.
type cancelOnSecondBatch struct {
	*diskstore.Store
	calls  atomic.Int32
	cancel context.CancelFunc
}

func (s *cancelOnSecondBatch) GetBatch(ctx context.Context, ids []string) ([]*staccato.Doc, error) {
	if s.calls.Add(1) == 2 {
		s.cancel()
	}
	return s.Store.GetBatch(ctx, ids)
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
