package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// Result is one document's answer to a corpus query. The JSON form is
// the wire shape of the staccatod search endpoint.
type Result struct {
	DocID string  `json:"doc_id"`
	Prob  float64 `json:"prob"`
}

// ExecMode names the (source, sink) pair a query run executed as.
type ExecMode string

const (
	// ExecScan is the unrestricted run, ranked or streamed: every live
	// document is read, decoded, and evaluated.
	ExecScan ExecMode = "scan"
	// ExecPrunedScan is ForEachPruned under a candidate set: the corpus ID
	// list is still walked in full (the every-doc streaming contract needs
	// a Result per document), but documents outside the candidate set are
	// reported at probability zero without being read or evaluated.
	ExecPrunedScan ExecMode = "pruned-scan"
	// ExecCandidateOnly is Search under a candidate set, ranking all of
	// it: only the set's members are ever touched — no corpus ID listing,
	// no zero-result synthesis — so cost scales with the candidate count,
	// not the corpus size.
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
// The JSON form is the wire shape of the staccatod search and explain
// endpoints.
type SearchStats struct {
	// Mode is the execution path the run took.
	Mode ExecMode `json:"mode"`
	// DocsTotal is the number of live documents the run considered —
	// pruned and evaluated alike. A candidate-sourced run never sees the
	// corpus, so there it is the store's live-document count, read after
	// the run.
	DocsTotal int `json:"docs_total"`
	// DocsScanned is the number of documents the DP actually evaluated.
	DocsScanned int `json:"docs_scanned"`
	// DocsPruned is the number of documents skipped via the candidate set
	// without being evaluated.
	DocsPruned int `json:"docs_pruned"`
	// CandidatesFetched is the number of store fetches the candidate modes
	// attempted (zero in the scan modes) — deleted candidates that came
	// back not-found included, so it can exceed DocsScanned. It runs below
	// the candidate set's size only when top-k early termination skipped
	// the rest (see BoundsSkipped).
	CandidatesFetched int `json:"candidates_fetched"`
	// CandidatesDeleted is how many fetched candidates turned out deleted
	// between planning and fetching: CandidatesFetched - DocsScanned.
	CandidatesDeleted int `json:"candidates_deleted"`
	// BoundsSkipped is the number of candidates top-k execution never
	// fetched because their probability upper bound could not affect the
	// result — cut up front by MinProb or left behind by an early stop.
	// Zero in every other mode.
	BoundsSkipped int `json:"bounds_skipped"`
	// EarlyStopped reports that a top-k run proved the remaining bounds
	// beaten and stopped before exhausting the candidate set.
	EarlyStopped bool `json:"early_stopped"`
	// IndexUsed reports whether a candidate set restricted the run at all.
	IndexUsed bool `json:"index_used"`
	// PlanGrams is the number of distinct grams the planner consulted.
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
// Every run is one pipeline: a source (an ascending ID slice — the whole
// corpus listing, or a candidate set's members) is cut into fetchBatch-ID
// jobs, a fixed worker pool fetches and evaluates each job, and the
// finished batches reach the run's sink in source order, so every run
// over an unchanged store is deterministic regardless of worker count.
// An Engine is stateless apart from its configuration and may be shared
// across goroutines.
//
// Documents outside a Plan's candidate set provably have match
// probability zero, which is what makes every (source, sink) pair
// byte-identical: a run restricted by a candidate set never reads the
// documents outside it, and reports them — where the sink reports
// non-matches at all — at probability zero.
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
// How the run executes follows from opts alone. Without opts.Candidates
// every stored document is fetched and evaluated (ExecScan). With a
// candidate set only its members are — no corpus listing, so cost scales
// with the set, not the corpus; a candidate deleted between planning and
// fetching is skipped, matching what a scan started after the delete
// would return. Those members are all evaluated (ExecCandidateOnly)
// unless opts.TopN > 0 and opts.Rescore is nil, when they are taken
// best-bound-first in rounds of fixed, worker-independent sizes
// (fetchBatch, doubling each round) and the run stops as soon as the
// running TopN-th probability strictly beats every remaining candidate's
// slack-widened upper bound (ExecTopK) — at which point no remaining
// candidate can enter the top N or win a tie (ties break toward ascending
// DocID, and a tie would require probability equal to the N-th, which the
// strict inequality excludes). Candidates whose widened bound falls below
// opts.MinProb are skipped without a fetch, like the early-stopped tail;
// both are counted in Stats.BoundsSkipped. A rescorer rules top-k out
// because bounds describe the stored documents and rescoring moves
// probability mass they do not account for; a set without bound
// information still returns correct results — every bound reads as 1 —
// it just never stops early.
func (e *Engine) Search(ctx context.Context, q *Query, opts SearchOptions) ([]Result, error) {
	return e.run(ctx, "Search", q, opts, nil)
}

// SearchTopK is Search with cand as opts.Candidates, for callers that
// require top-k execution and want anything else reported as an error.
//
// Deprecated: set opts.Candidates and call Search, which selects top-k
// execution whenever it applies.
func (e *Engine) SearchTopK(ctx context.Context, q *Query, cand *CandidateSet, opts SearchOptions) ([]Result, error) {
	opts.Candidates = cand
	return e.run(ctx, "SearchTopK", q, opts, nil)
}

// ForEach evaluates q against every stored document and streams one
// Result per document — unfiltered, probability zero included — to fn in
// ascending DocID (scan) order. fn runs on the caller's goroutine.
// Returning store.ErrStopScan from fn ends the stream early without
// error; any other error cancels in-flight work and is returned.
// Cancelling ctx aborts the stream with ctx's error: once cancellation
// is observed, fn is not called again.
func (e *Engine) ForEach(ctx context.Context, q *Query, fn func(Result) error) error {
	_, err := e.run(ctx, "ForEach", q, SearchOptions{}, fn)
	return err
}

// ForEachPruned is ForEach restricted by a candidate set: documents
// outside cand stream out with probability zero without being read or
// evaluated (ExecPrunedScan; the corpus ID list is still walked in full,
// because the every-doc contract needs a Result per document). A nil
// cand evaluates everything, exactly like ForEach. stats, when non-nil,
// receives the run's counters before the call returns. cand is a
// snapshot: a document added to the store after cand was computed but
// before this run lists it may stream out at probability zero even if
// it matches — callers needing a write to be visible must compute the
// candidate set after the write completes (Search's ranked output is
// unaffected: it drops zero-probability results, so it matches an
// execution ordered before such a write).
func (e *Engine) ForEachPruned(ctx context.Context, q *Query, cand *CandidateSet, stats *SearchStats, fn func(Result) error) error {
	_, err := e.run(ctx, "ForEachPruned", q, SearchOptions{Candidates: cand, Stats: stats}, fn)
	return err
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

// fetchBatch is how many IDs one worker job carries. Batching amortizes
// store locking and lets a disk backend sort the batch by record offset
// into a near-sequential read; the size is small enough that a handful of
// candidates still spreads across the pool.
const fetchBatch = 64

// boundSlack widens stored bounds by one part in 10⁹ wherever the engine
// compares an evaluated probability against one. The bound DP and the
// evaluation DP sum the same products in different association orders, so
// an exact-in-real-arithmetic "P ≤ bound" can come out a few ulps the
// wrong way in floats; comparing against bound*boundSlack keeps every
// skip decision provably safe without giving up meaningful pruning.
const boundSlack = 1 + 1e-9

// run is the one execution path behind every exported entry point, named
// by method so a precondition failure points at the caller's own call. A
// nil stream selects the ranking sinks (Search); a non-nil one receives
// one Result per listed document, in ID order, on this goroutine
// (ForEach).
func (e *Engine) run(ctx context.Context, method string, q *Query, opts SearchOptions, stream func(Result) error) ([]Result, error) {
	cand := opts.Candidates
	mode := ExecScan
	switch {
	case cand == nil:
	case stream != nil:
		mode = ExecPrunedScan
	case opts.TopN > 0 && opts.Rescore == nil:
		mode = ExecTopK
	default:
		mode = ExecCandidateOnly
	}
	switch {
	case q == nil || q.expr == nil:
		return nil, fmt.Errorf("query: %s requires a compiled, non-nil Query", method)
	case method == "SearchTopK" && mode != ExecTopK: // the deprecated shim's contract; goes when it does
		return nil, errors.New("query: SearchTopK requires a non-nil candidate set, TopN > 0, and a nil Rescore (index bounds do not cover rescored probabilities); use Search")
	}

	var (
		out                      []Result
		fetched, scanned, pruned int // fetch attempts, evaluations, zero results for non-candidates
		skipped                  int // candidates top-k never fetched
		earlyStopped             bool
	)
	sink := func(b batch) error {
		fetched += b.fetched
		scanned += b.scanned
		pruned += len(b.res) - b.scanned
		for _, r := range b.res {
			if stream != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := stream(r); err != nil {
					return err
				}
			} else if r.Prob > 0 && r.Prob >= opts.MinProb {
				out = append(out, r)
			}
		}
		return nil
	}

	var err error
	switch mode {
	case ExecScan, ExecPrunedScan:
		var ids []string
		if ids, err = e.st.ListDocIDs(ctx); err == nil {
			err = e.pipeline(ctx, q, opts.Rescore, ids, cand, sink)
		}
	case ExecCandidateOnly:
		err = e.pipeline(ctx, q, opts.Rescore, cand.IDs(), nil, sink)
	case ExecTopK:
		ranked := cand.Ranked()
		// Candidates whose bound already sits below MinProb cannot produce a
		// reportable result; ranked is bound-descending, so they form a tail.
		usable := len(ranked)
		if opts.MinProb > 0 {
			usable = sort.Search(len(ranked), func(i int) bool {
				return ranked[i].Bound*boundSlack < opts.MinProb
			})
		}
		next := 0
		for size := fetchBatch; next < usable; size *= 2 {
			end := min(next+size, usable)
			ids := make([]string, 0, end-next)
			for _, c := range ranked[next:end] {
				ids = append(ids, c.ID)
			}
			sort.Strings(ids) // near-sequential reads; ranking is fetch-order-independent
			if err = e.pipeline(ctx, q, nil, ids, nil, sink); err != nil {
				break
			}
			next = end
			// Keeping only the running top N between rounds is lossless: the
			// ranking is a total order, so the global top N is the top N of the
			// per-round top-N union.
			out = rankResults(out, opts.TopN)
			if next < usable && len(out) == opts.TopN && out[opts.TopN-1].Prob > ranked[next].Bound*boundSlack {
				earlyStopped = true
				break
			}
		}
		skipped = len(ranked) - next
	}

	// The one place execution counters are written. A corpus walk observes
	// every document it reports; a candidate-sourced run never observes the
	// corpus — that is its point — so its corpus-level counters derive from
	// the store's live count: a candidate deleted between planning and
	// fetching is no longer live, every live document that was neither
	// evaluated nor skipped on its bound was pruned, and DocsTotal ==
	// DocsScanned + DocsPruned + BoundsSkipped holds by construction —
	// deliberately unclamped, so a write racing the run shows up as a
	// skewed count instead of being silently absorbed.
	if s := opts.Stats; s != nil {
		s.Mode = mode
		s.DocsScanned = scanned
		s.BoundsSkipped = skipped
		s.EarlyStopped = earlyStopped
		if mode == ExecScan || mode == ExecPrunedScan {
			s.DocsTotal = scanned + pruned
			s.DocsPruned = pruned
			s.CandidatesFetched, s.CandidatesDeleted = 0, 0
		} else {
			s.DocsTotal = e.st.Len()
			s.DocsPruned = s.DocsTotal - scanned - skipped
			s.CandidatesFetched, s.CandidatesDeleted = fetched, fetched-scanned
		}
	}
	if stream != nil && errors.Is(err, store.ErrStopScan) {
		err = nil // fn ended the stream early, which is not a failure
	}
	if err != nil {
		return nil, err
	}
	return rankResults(out, opts.TopN), nil
}

// batch is one worker job's outcome.
type batch struct {
	seq int
	// res holds, in ID order, one Result per job ID that is still stored:
	// the evaluated probability, or zero for an ID outside the keep set.
	res []Result
	// fetched and scanned count the job's store fetch attempts and its
	// evaluations; the difference is documents deleted under the run.
	fetched, scanned int
	err              error
}

// pipeline is the engine's one worker pool. It cuts ids — ascending and
// duplicate-free — into fetchBatch-sized jobs, has the workers fetch and
// evaluate them, and hands each finished batch to sink on the caller's
// goroutine in job order. IDs outside keep (nil keeps everything) are
// never fetched: they come back as zero-probability results. At most
// 2×workers jobs are claimed but undelivered at any time, so one slow
// document cannot let the pool run the whole source ahead. The first
// worker, sink, or context error ends the run and is returned once every
// worker has stopped.
func (e *Engine) pipeline(ctx context.Context, q *Query, rescore func(*staccato.Doc) *staccato.Doc, ids []string, keep *CandidateSet, sink func(batch) error) error {
	jobs := (len(ids) + fetchBatch - 1) / fetchBatch
	workers := min(e.workers, jobs) // never start workers that could have no job to take
	inFlight := 2 * workers
	ctx, cancel := context.WithCancel(ctx)
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		window = make(chan struct{}, inFlight) // one token per claimed, undelivered job
		done   = make(chan batch, inFlight)    // never blocks a sender: every job in it holds a token
	)
	defer func() {
		cancel()
		wg.Wait()
	}()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case window <- struct{}{}:
				case <-ctx.Done():
					return
				}
				seq := int(next.Add(1)) - 1
				if seq >= jobs {
					return
				}
				b := e.evalBatch(ctx, q, rescore, ids[seq*fetchBatch:min((seq+1)*fetchBatch, len(ids))], keep)
				b.seq = seq
				done <- b
				if b.err != nil {
					return
				}
			}
		}()
	}

	// Jobs are claimed in seq order and a claim needs a token, so every
	// undelivered seq is below delivered+inFlight and owns its ring slot.
	ring := make([]*batch, inFlight)
	for delivered := 0; delivered < jobs; {
		select {
		case b := <-done:
			if b.err != nil {
				return b.err
			}
			ring[b.seq%inFlight] = &b
		case <-ctx.Done():
			return ctx.Err()
		}
		for ; delivered < jobs && ring[delivered%inFlight] != nil; delivered++ {
			b := ring[delivered%inFlight]
			ring[delivered%inFlight] = nil
			<-window
			if err := sink(*b); err != nil {
				return err
			}
		}
	}
	// The run may have finished before an external cancellation was
	// observed; cancel has not run yet, so a non-nil error here can only
	// come from the caller's context.
	return ctx.Err()
}

// evalBatch fetches the members of ids that keep admits with one GetBatch
// and evaluates each document the store still has. A nil slot from the
// store (deleted since the IDs were planned or listed) counts as fetched
// but not scanned and yields no Result.
func (e *Engine) evalBatch(ctx context.Context, q *Query, rescore func(*staccato.Doc) *staccato.Doc, ids []string, keep *CandidateSet) batch {
	fetch := ids
	if keep != nil {
		fetch = make([]string, 0, len(ids))
		for _, id := range ids {
			if keep.Has(id) {
				fetch = append(fetch, id)
			}
		}
	}
	docs, err := e.st.GetBatch(ctx, fetch)
	if err != nil {
		return batch{err: err}
	}
	b := batch{res: make([]Result, 0, len(ids)), fetched: len(fetch)}
	k := 0
	for _, id := range ids {
		if k == len(fetch) || fetch[k] != id {
			b.res = append(b.res, Result{DocID: id}) // outside keep
			continue
		}
		doc := docs[k]
		k++
		if doc == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return batch{err: err} // bound cancellation latency to one evaluation
		}
		if rescore != nil {
			doc = rescore(doc)
		}
		b.res = append(b.res, Result{DocID: doc.ID, Prob: q.Eval(doc)})
		b.scanned++
	}
	return b
}
