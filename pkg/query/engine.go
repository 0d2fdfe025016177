package query

import (
	"context"
	"errors"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// Result is one document's answer to a corpus query. The JSON form is
// the wire shape of the server's /v1/search endpoint (staccato serve).
type Result struct {
	DocID string  `json:"doc_id"`
	Prob  float64 `json:"prob"`
}

// ExecMode names how a Search run chose the documents it evaluated.
type ExecMode string

const (
	// ExecScan is the unrestricted run over the store's ID listing: every
	// live document is read and evaluated — with a result limit, in ID
	// order until the TopN-th certain match (probability 1) ends the run.
	ExecScan ExecMode = "scan"
	// ExecCandidateOnly is Search under a candidate set without index
	// bounds — no result limit, or a rescorer: only the set's members are
	// ever touched — no corpus ID listing — so cost scales with the
	// candidate count, not the corpus size. With a result limit they are
	// taken in ID order and the TopN-th certain match ends the run.
	ExecCandidateOnly ExecMode = "candidate-only"
	// ExecTopK is Search under a candidate set with a result limit and no
	// rescorer: candidates are processed best-bound-first in growing
	// rounds and the run stops as soon as the running k-th result provably
	// beats every remaining bound, so cost scales with how discriminating
	// the bounds are, not the candidate count.
	ExecTopK ExecMode = "top-k"
)

// SearchStats reports how a query executed: how much of the corpus the
// planner pruned away versus how much the DP actually evaluated. The
// engine fills Mode and every counter, and in every mode DocsTotal ==
// DocsScanned + DocsPruned + BoundsSkipped; callers that planned the
// query (such as staccatodb.DB) fill the planner fields IndexUsed,
// PlanGrams, and Plan.
// The JSON form is the wire shape of the server's /v1/search and
// /v1/explain endpoints.
type SearchStats struct {
	// Mode is the execution path the run took.
	Mode ExecMode `json:"mode"`
	// DocsTotal is the number of live documents the run considered —
	// pruned, skipped and evaluated alike. A scan's is what it listed and
	// found stored, DocsScanned + BoundsSkipped; a candidate-sourced run
	// never sees the corpus, so there it is the live-document count the
	// posting source took together with the candidates, or, for a set
	// that carries none (NewCandidateSet), the store's, read after the
	// run.
	DocsTotal int `json:"docs_total"`
	// DocsScanned is the number of documents the DP actually evaluated.
	DocsScanned int `json:"docs_scanned"`
	// DocsPruned is the number of documents skipped via the candidate set
	// without being evaluated.
	DocsPruned int `json:"docs_pruned"`
	// CandidatesFetched is the number of store fetches the candidate modes
	// attempted (zero in scan mode) — deleted candidates that came
	// back not-found included, so it can exceed DocsScanned. It runs below
	// the candidate set's size only when a limited run skipped the rest
	// (see BoundsSkipped).
	CandidatesFetched int `json:"candidates_fetched"`
	// CandidatesDeleted is how many fetched candidates turned out deleted
	// between planning and fetching: CandidatesFetched - DocsScanned.
	CandidatesDeleted int `json:"candidates_deleted"`
	// BoundsSkipped is the number of listed or candidate documents a run
	// with a result limit never fetched because their probability upper
	// bound could not affect the result — cut up front by MinProb or left
	// behind by an early stop. Zero whenever TopN is zero.
	BoundsSkipped int `json:"bounds_skipped"`
	// EarlyStopped reports that a run with a result limit proved the
	// remaining bounds beaten — in ID order, its TopN-th certain match —
	// and stopped before exhausting its listing or candidate set.
	EarlyStopped bool `json:"early_stopped"`
	// IndexUsed reports whether a candidate set restricted the run at all.
	IndexUsed bool `json:"index_used"`
	// PlanGrams is the number of dictionary grams the planner consulted:
	// the distinct grams the plan names, plus, for each window of a
	// wildcard leaf's patterns, the grams of the index it matched — a gram
	// that several windows match counts once per window (Plan.Lookup).
	PlanGrams int `json:"plan_grams"`
	// Plan is the rendered Plan the run executed under.
	Plan string `json:"plan"`
}

// EngineOptions configures a new Engine.
type EngineOptions struct {
	// Workers is how many documents are evaluated concurrently. Zero or
	// negative selects runtime.GOMAXPROCS(0).
	Workers int
}

// Engine executes compiled Queries against the documents of a DocStore.
// Every run feeds ascending ID slices — the whole corpus listing, a
// candidate set's members, or one round of either — to one worker
// pool (evalAll), which fetches and evaluates them in jobs sized to give
// every worker a share (between minJob and fetchBatch IDs) and gathers
// the reportable results in whatever order the jobs finish.
// That order cannot show: the ranking is a total order over distinct
// DocIDs and the counters are sums, so every run over an unchanged store
// is deterministic regardless of worker count. An Engine is stateless
// apart from its configuration and may be shared across goroutines.
//
// Documents outside a Plan's candidate set provably have match
// probability zero, and Search never reports a zero, which is what makes
// every mode byte-identical: a run restricted by a candidate set never
// reads the documents outside it and loses nothing by it.
type Engine struct {
	st      store.DocStore
	workers int
}

// NewEngine returns an Engine reading from st. st must be non-nil.
func NewEngine(st store.DocStore, opts EngineOptions) *Engine {
	if st == nil {
		panic("query: NewEngine requires a non-nil DocStore")
	}
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{st: st, workers: w}
}

// Workers returns the engine's worker pool size.
func (e *Engine) Workers() int { return e.workers }

// SearchOptions narrows, ranks, and instruments what Search returns.
type SearchOptions struct {
	// MinProb drops documents whose probability is below the threshold.
	// Documents with probability exactly zero are always dropped.
	MinProb float64
	// TopN keeps only the N best-ranked documents; zero keeps all.
	TopN int
	// Candidates, when non-nil, restricts the run to its members: only
	// they are fetched and evaluated, and documents outside it are treated
	// as guaranteed non-matches. Obtain one from Plan.Candidates — a set
	// that can drop true matches breaks the engine's result guarantees,
	// and top-k execution additionally needs its bounds to be admissible
	// (never below the true match probability of a stored document).
	Candidates *CandidateSet
	// Stats, when non-nil, receives the run's execution counters.
	Stats *SearchStats
	// Rescore, when non-nil, transforms each document before evaluation —
	// the lexicon rescoring hook (fuzzy.Lexicon.Rescorer). The transform
	// must be deterministic and support-preserving: it may move
	// probability mass between a chunk's alternatives but must keep every
	// alternative's probability strictly positive, or candidate pruning
	// (computed from the untransformed index) could drop true matches. It
	// must not mutate its argument, which workers share with the store.
	Rescore func(*staccato.Doc) *staccato.Doc
}

// Search evaluates q and returns the matches ranked by descending
// probability (ties broken by ascending DocID), filtered and truncated
// per opts. The ranking is fully deterministic: the same store contents
// and query produce identical results at any worker count, with or
// without a candidate set.
//
// Which documents the run reads follows from opts alone. Without
// opts.Candidates it is every stored document, in the store's ascending
// ID listing (ExecScan). With a candidate set it is only the set's
// members — no corpus listing, so cost scales with the set, not the
// corpus; a candidate deleted between planning and fetching is skipped,
// matching what a scan started after the delete would return. Without a
// result limit (opts.TopN == 0) every one of them is evaluated.
//
// With a limit the run walks a ranked sequence in rounds of
// worker-independent sizes (the smallest power of two at least 2·TopN,
// doubling each round) and stops as soon as the top N is provably final
// (see final): when the running TopN-th probability strictly beats the
// next document's slack-widened upper bound, or is exactly 1 with a
// DocID below the next document's and that document's bound is 1. Either
// way no remaining document can enter the top N or win a tie. The
// sequence is the candidate set best-bound-first under its index bounds
// (ExecTopK) when there is one and no rescorer. Otherwise no admissible
// bound below 1 is known — the listing has none, and a rescorer moves
// probability mass the stored bounds do not account for — so the run
// walks the listing or the candidates (ExecCandidateOnly) in ascending ID
// order at the vacuous bound 1, which Eval never exceeds: it stops at its
// TopN-th certain match. Documents whose widened bound falls below
// opts.MinProb are skipped without a fetch, like an early-stopped tail;
// both are counted in Stats.BoundsSkipped.
func (e *Engine) Search(ctx context.Context, q *Query, opts SearchOptions) ([]Result, error) {
	if q == nil || q.expr == nil {
		return nil, errors.New("query: Search requires a compiled, non-nil Query")
	}
	var (
		mode         = ExecScan
		ids          []string // what an unlimited run evaluates
		got          tally    // every round's outcome, summed
		skipped      int      // documents the run never fetched
		earlyStopped bool
		err          error
	)
	switch cand := opts.Candidates; {
	case cand == nil:
		ids, err = e.st.ListDocIDs(ctx)
	case opts.TopN > 0 && opts.Rescore == nil:
		mode = ExecTopK
	case opts.TopN > 0: // the one walk of a set in ID order
		mode, ids = ExecCandidateOnly, cand.IDs()
	default:
		mode, ids = ExecCandidateOnly, cand.ids
	}
	switch {
	case err != nil:
	case opts.TopN <= 0:
		got, err = e.evalAll(ctx, q, opts, ids)
	case mode == ExecTopK:
		seq := rankBounds(opts.Candidates, opts.MinProb)
		got, skipped, earlyStopped, err = e.evalRounds(ctx, q, opts, &seq)
	default:
		seq := rankIDs(ids, opts.MinProb)
		got, skipped, earlyStopped, err = e.evalRounds(ctx, q, opts, &seq)
	}

	// The one place execution counters are written. A scan evaluates every
	// document it lists that is still stored, or skips it, so that is its
	// corpus; a candidate-sourced run never observes the corpus — that is
	// its point — so its corpus-level counters derive from the live count
	// the posting source took together with the candidates (the store's,
	// read now, when the set carries none): every candidate was one of
	// those live documents, a candidate deleted between planning and
	// fetching no longer counts as scanned, and every live document that
	// was neither evaluated nor skipped on its bound was pruned. So
	// DocsTotal == DocsScanned + DocsPruned + BoundsSkipped holds by
	// construction, and under the source's own count DocsPruned cannot go
	// negative however writes race the run.
	if s := opts.Stats; s != nil {
		s.Mode = mode
		s.DocsScanned = got.scanned
		s.BoundsSkipped = skipped
		s.EarlyStopped = earlyStopped
		s.DocsTotal = got.scanned + skipped
		s.CandidatesFetched, s.CandidatesDeleted = 0, 0
		if mode != ExecScan {
			if s.DocsTotal = opts.Candidates.live; s.DocsTotal == 0 {
				s.DocsTotal = e.st.Len()
			}
			s.CandidatesFetched, s.CandidatesDeleted = got.fetched, got.fetched-got.scanned
		}
		s.DocsPruned = s.DocsTotal - got.scanned - skipped
	}
	if err != nil {
		return nil, err
	}
	return rankResults(got.res, opts.TopN), nil
}

// ranking is the sequence a limited run walks, with an admissible upper
// bound at every position, taken front to back a round at a time: a
// candidate set best-bound-first (queue), or, where no bound below 1 is
// known, ascending IDs (ids) at the vacuous bound 1. Positions whose
// slack-widened bound falls below MinProb cannot produce a reportable
// result, and the sequence being bound-descending, they form its tail;
// usable counts the positions before it, of total.
//
// The candidate set arrives in no particular order and a run usually
// reads a small prefix of it, so the ranking orders it only as far as
// the run takes it: queue is a binary heap under compareBounded of the
// usable positions not yet taken. Building it costs O(total) and each
// position taken O(log usable), against O(total log total) for sorting
// the whole set up front, and compareBounded is a total order over the
// distinct IDs, so the positions come off it exactly as Ranked lists
// them.
type ranking struct {
	ids           []string
	queue         []BoundedCandidate
	taken         int
	usable, total int
}

// rankIDs ranks ids, ascending, at the vacuous bound 1.
func rankIDs(ids []string, minProb float64) ranking {
	r := ranking{ids: ids, usable: len(ids), total: len(ids)}
	if minProb > 0 && boundSlack < minProb {
		r.usable = 0
	}
	return r
}

// rankBounds ranks c's candidates best-bound-first.
func rankBounds(c *CandidateSet, minProb float64) ranking {
	queue := make([]BoundedCandidate, 0, len(c.ids))
	for i, id := range c.ids {
		if b := c.bounds[i]; !(minProb > 0 && b*boundSlack < minProb) {
			queue = append(queue, BoundedCandidate{ID: id, Bound: b})
		}
	}
	for i := len(queue)/2 - 1; i >= 0; i-- {
		siftDown(queue, i)
	}
	return ranking{queue: queue, usable: len(queue), total: len(c.ids)}
}

// peek is the first position not yet taken, which must be usable.
func (r *ranking) peek() BoundedCandidate {
	if r.ids != nil {
		return BoundedCandidate{ID: r.ids[r.taken], Bound: 1}
	}
	return r.queue[0]
}

// take returns the IDs of the next n usable positions in ascending order,
// for near-sequential reads; the ranking is fetch-order-independent. In
// ID order that is a sub-slice of ids, which evalAll only reads.
func (r *ranking) take(n int) []string {
	r.taken += n
	if r.ids != nil {
		return r.ids[r.taken-n : r.taken]
	}
	out := make([]string, n)
	for i := range out {
		last := len(r.queue) - 1
		out[i] = r.queue[0].ID
		r.queue[0] = r.queue[last]
		r.queue = r.queue[:last]
		siftDown(r.queue, 0)
	}
	slices.Sort(out)
	return out
}

// siftDown restores the heap order of h below i, every other subtree
// being in order already: h[i] moves down past every child that
// compareBounded puts before it.
func siftDown(h []BoundedCandidate, i int) {
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			return
		}
		if kid+1 < len(h) && compareBounded(h[kid+1], h[kid]) < 0 {
			kid++
		}
		if compareBounded(h[i], h[kid]) < 0 {
			return
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
}

// evalRounds is Search's one round loop for opts.TopN > 0: it evaluates
// seq in rounds of firstRound's size, doubling, until its usable positions
// run out or the running top N is final against the next position. It
// reports what the rounds produced, how many positions it never fetched —
// the tail whose bound sits below opts.MinProb included — and whether it
// stopped early.
func (e *Engine) evalRounds(ctx context.Context, q *Query, opts SearchOptions, seq *ranking) (got tally, skipped int, earlyStopped bool, err error) {
	next := 0
	for size := firstRound(opts.TopN, seq.usable); next < seq.usable; size *= 2 {
		n := min(size, seq.usable-next)
		var round tally
		if round, err = e.evalAll(ctx, q, opts, seq.take(n)); err != nil {
			break
		}
		next += n
		got.add(round)
		// Keeping only the running top N between rounds is lossless: the
		// ranking is a total order, so the global top N is the top N of the
		// per-round top-N union.
		got.res = rankResults(got.res, opts.TopN)
		if next < seq.usable && len(got.res) == opts.TopN && final(got.res[opts.TopN-1], seq.peek()) {
			earlyStopped = true
			break
		}
	}
	return got, seq.total - next, earlyStopped, err
}

// SearchTopK is Search with cand as opts.Candidates, for callers that
// require top-k execution and want anything else reported as an error.
//
// Deprecated: set opts.Candidates and call Search, which selects top-k
// execution whenever it applies.
func (e *Engine) SearchTopK(ctx context.Context, q *Query, cand *CandidateSet, opts SearchOptions) ([]Result, error) {
	if q == nil || q.expr == nil || cand == nil || opts.TopN <= 0 || opts.Rescore != nil {
		return nil, errors.New("query: SearchTopK requires a compiled query, a non-nil candidate set, TopN > 0, and a nil Rescore (index bounds do not cover rescored probabilities); use Search")
	}
	opts.Candidates = cand
	return e.Search(ctx, q, opts)
}

// rankResults orders matches by descending probability (ties by
// ascending DocID) and applies the TopN cut — the one ranking every run
// shares, which is what makes their outputs byte-identical.
func rankResults(out []Result, topN int) []Result {
	slices.SortFunc(out, func(a, b Result) int {
		//lint:allow floateq sort comparators need exact comparison — an epsilon tie-break is not a strict weak order and would make the ranking itself nondeterministic
		if a.Prob != b.Prob {
			if a.Prob > b.Prob {
				return -1
			}
			return 1
		}
		return strings.Compare(a.DocID, b.DocID)
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// final reports whether a limited run whose running N-th result is last
// may stop before next, the first position of its ranking it has not
// fetched: a remaining document enters the top N only by evaluating
// above last.Prob, or to it with a smaller DocID. The first clause rules
// that out for every remaining document, since each evaluates to at most
// its slack-widened bound and the ranking puts none above next's. The
// second cuts the one tie that can be cut, at 1 — Eval's ceiling: only a
// document of bound exactly 1 can evaluate to 1 (Plan.Lookup raised every
// bound whose widening reaches 1 to 1), and both rankings take those in
// ascending ID order, so every remaining one ranks after last. In ID
// order every bound is 1, so only the second clause ever fires there.
func final(last Result, next BoundedCandidate) bool {
	//lint:allow floateq 1 is both Eval's exact ceiling and the bound Plan.Lookup snaps to; the tie clause is about exactly that value
	return last.Prob > next.Bound*boundSlack || next.Bound == 1 && last.Prob == 1 && last.DocID < next.ID
}

// firstRound is the size of a limited run's first round over usable
// positions: the smallest power of two at least 2·topN — room for the
// top N and as many again to prove them final — clamped to usable. It
// reads neither the worker count nor anything evaluated, so the rounds,
// and with them every counter, are the same at any worker count.
func firstRound(topN, usable int) int {
	if topN > usable/2 { // 2·topN passes usable, or overflows
		return usable
	}
	return min(1<<bits.Len(uint(2*topN-1)), usable)
}

// fetchBatch is the most IDs one worker job carries. Batching amortizes
// store locking and lets a disk backend sort the batch by record offset
// into one read per run of adjacent records. A run too short to give every worker a
// full batch — a top-k round, a small candidate set — is cut into
// ⌈len/workers⌉-ID jobs instead, but none below minJob.
const fetchBatch = 64

// minJob is the fewest IDs evalAll puts in a job when it spreads a short
// run over the pool: below it, waking another worker costs more than the
// share of the run it would take, so a run under minJob IDs is one job.
const minJob = 16

// boundSlack widens stored bounds by one part in 10⁹ wherever the engine
// compares an evaluated probability against one. The bound DP and the
// evaluation DP sum the same products in different association orders, so
// an exact-in-real-arithmetic "P ≤ bound" can come out a few ulps the
// wrong way in floats; comparing against bound*boundSlack keeps every
// skip decision provably safe without giving up meaningful pruning.
const boundSlack = 1 + 1e-9

// tally is what a set of worker jobs produced: the reportable results, in
// no particular order, and how many store fetches and evaluations they
// took; the difference is documents deleted under the run.
type tally struct {
	res              []Result
	fetched, scanned int
}

func (t *tally) add(o tally) {
	t.res = append(t.res, o.res...)
	t.fetched += o.fetched
	t.scanned += o.scanned
}

// evalAll is the engine's one worker pool. It cuts ids — duplicate-free —
// into jobs of ⌈len/workers⌉ IDs, clamped to [minJob, fetchBatch], which
// the workers claim off a shared counter, fetch and evaluate into a tally
// each; the tallies are summed once every worker has stopped. The first
// error — a store failure, or ctx's own — cancels the rest of the run and
// is the one returned, not the cancellations it caused.
//
// A run that is one job — fewer than minJob IDs, a top-k round over a
// small candidate set — or that has one worker runs its jobs in order on
// the calling goroutine, with no goroutine, cancel or WaitGroup to pay
// for, and the same tally and errors.
func (e *Engine) evalAll(ctx context.Context, q *Query, opts SearchOptions, ids []string) (tally, error) {
	size := min(max((len(ids)+e.workers-1)/e.workers, minJob), fetchBatch)
	jobs := (len(ids) + size - 1) / size
	workers := min(e.workers, jobs) // never start workers that could have no job to take
	if workers <= 1 {
		var t tally
		for job := range jobs {
			if err := e.evalBatch(ctx, q, opts, ids[job*size:min((job+1)*size, len(ids))], &t); err != nil {
				return tally{}, err
			}
		}
		if err := ctx.Err(); err != nil {
			return tally{}, err
		}
		return t, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		tallies  = make([]tally, workers)
		failOnce sync.Once
		failure  error
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally // worker-local, so the per-document counting shares no cache line
			defer func() { tallies[w] = t }()
			for {
				job := int(next.Add(1)) - 1
				if job >= jobs {
					return
				}
				batch := ids[job*size : min((job+1)*size, len(ids))]
				if err := e.evalBatch(ctx, q, opts, batch, &t); err != nil {
					failOnce.Do(func() {
						failure = err
						cancel()
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	if failure != nil {
		return tally{}, failure
	}
	// The run may have finished before an external cancellation was
	// observed; cancel has not run yet, so a non-nil error here can only
	// come from the caller's context.
	if err := ctx.Err(); err != nil {
		return tally{}, err
	}
	var sum tally
	for _, t := range tallies {
		sum.add(t)
	}
	return sum, nil
}

// evalBatch reads ids with one ViewBatch and evaluates each record the
// store still has in place, into t, keeping the results Search can
// report. An ID the store no longer has (deleted since the IDs were
// planned or listed) counts as fetched but not scanned. A rescorer needs
// a Doc, so under one the record is decoded, rescored and evaluated
// through Eval.
func (e *Engine) evalBatch(ctx context.Context, q *Query, opts SearchOptions, ids []string, t *tally) error {
	// Polling Done per document bounds cancellation latency to one
	// evaluation; unlike ctx.Err it takes no lock once the channel exists.
	done := ctx.Done()
	scratch := q.tab.scratch() // one DP buffer for the whole batch
	err := e.st.ViewBatch(ctx, ids, func(i int, v *store.View) error {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		var p float64
		if opts.Rescore != nil {
			doc, err := store.Decode(v.Data)
			if err != nil {
				return err
			}
			p = q.Eval(opts.Rescore(doc))
		} else {
			p = q.evalView(v, scratch)
		}
		t.scanned++
		if p > 0 && p >= opts.MinProb {
			t.res = append(t.res, Result{DocID: ids[i], Prob: p})
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.fetched += len(ids)
	return nil
}
