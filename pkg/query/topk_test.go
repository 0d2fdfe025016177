package query

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// TestFinalStopDecision pins top-k's stop test at its edges: a certain
// result ends the run before a bound-1 candidate only when it ranks
// first on the DocID tiebreak, and below 1 the strict clause never stops
// on a bound whose widening the result merely reaches.
func TestFinalStopDecision(t *testing.T) {
	belowOne := 65534.0 / 65535 // the largest quantized bound under 1
	for _, c := range []struct {
		name string
		last Result
		next BoundedCandidate
		want bool
	}{
		{"P=1 against bound 1, smaller ID", Result{"d1", 1}, BoundedCandidate{"d2", 1}, true},
		{"P=1 against bound 1, larger ID", Result{"d2", 1}, BoundedCandidate{"d1", 1}, false},
		{"P=1 against bound 65534/65535", Result{"d2", 1}, BoundedCandidate{"d1", belowOne}, true},
		{"P<1 against bound 1", Result{"d1", belowOne}, BoundedCandidate{"d2", 1}, false},
		{"P=bound·slack below 1", Result{"d1", 0.5 * boundSlack}, BoundedCandidate{"d2", 0.5}, false},
		{"P above bound·slack", Result{"d2", 0.6}, BoundedCandidate{"d1", 0.5}, true},
	} {
		if got := final(c.last, c.next); got != c.want {
			t.Errorf("%s: final(%+v, %+v) = %v, want %v", c.name, c.last, c.next, got, c.want)
		}
	}
}

// TestFirstRound: the first top-k round is the smallest power of two at
// least 2·TopN, clamped to the usable candidates, for any TopN a caller
// can pass.
func TestFirstRound(t *testing.T) {
	for _, c := range []struct{ topN, usable, want int }{
		{1, 100, 2},
		{10, 340, 32},
		{16, 340, 32},
		{17, 340, 64},
		{10, 20, 20},
		{10, 19, 19},
		{3, 0, 0},
		{1 << 40, math.MaxInt, 1 << 41},
		{math.MaxInt/2 + 1, math.MaxInt, math.MaxInt},
		{math.MaxInt, 5, 5},
	} {
		if got := firstRound(c.topN, c.usable); got != c.want {
			t.Errorf("firstRound(%d, %d) = %d, want %d", c.topN, c.usable, got, c.want)
		}
	}
}

// batchCounter counts the store fetches a run makes.
type batchCounter struct {
	*diskstore.Store
	batches atomic.Int32
}

func (s *batchCounter) ViewBatch(ctx context.Context, ids []string, fn func(int, *store.View) error) error {
	s.batches.Add(1)
	return s.Store.ViewBatch(ctx, ids, fn)
}

// TestTopKCoveringTopNRunsOneRound: with TopN at or past half the
// candidate count a top-k run is one round — at one worker one job, so one
// fetch — however large TopN is.
func TestTopKCoveringTopNRunsOneRound(t *testing.T) {
	ctx := context.Background()
	const n = 60
	mem, err := diskstore.OpenFS(framelog.NewMemFS(), "", diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	st := &batchCounter{Store: mem}
	ids := make([]string, n)
	b := mem.Batch()
	for i := range ids {
		ids[i] = fmt.Sprintf("d%02d", i)
		alts := []staccato.Alt{{Text: " zz ", Prob: 0.7}, {Text: "~", Prob: 0.3}}
		d := &staccato.Doc{ID: ids[i], Params: staccato.Params{Chunks: 1, K: 2}, Chunks: []staccato.PathSet{{Alts: alts, Retained: 1}}}
		if err := b.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	q, err := Substring("zz")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st, EngineOptions{Workers: 1})
	for _, topN := range []int{n / 2, n, 1000, math.MaxInt} {
		st.batches.Store(0)
		var stats SearchStats
		res, err := eng.Search(ctx, q, SearchOptions{Candidates: NewCandidateSet(ids...), TopN: topN, Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.batches.Load(); got != 1 || stats.CandidatesFetched != n || len(res) != min(topN, n) {
			t.Errorf("TopN %d: %d fetches of %d candidates, %d results; want one round over all %d", topN, got, stats.CandidatesFetched, len(res), n)
		}
	}
}
