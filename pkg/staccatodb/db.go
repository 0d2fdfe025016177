// Package staccatodb is the single-handle public API of the system: one
// DB wires together the document store (durable diskstore or in-memory),
// the persistent inverted q-gram index, and the parallel query engine,
// keeps the three consistent through every write, and tears them down in
// one Close. Callers that previously hand-assembled diskstore.Open +
// query.NewEngine + per-query compilation now write:
//
//	db, err := staccatodb.Open(dir)
//	defer db.Close()
//	db.Ingest(ctx, docs)
//	q, _ := query.Substring("staccato")
//	results, stats, err := db.Search(ctx, q, query.SearchOptions{TopN: 10})
//
// # Index consistency
//
// On disk, the index is maintained transactionally alongside store
// commits: a diskstore commit hook applies each batch to the in-memory
// index and appends a mirroring record to the index log (index.FileName
// in the store directory) before the write call returns, stamped with the
// store's CommitState. Open compares the log's final state against the
// store's: any mismatch — the index file missing, the store modified
// without the index attached, a torn tail truncated on either side, an
// interrupted rebuild — declares the index stale and rebuilds it from a
// full scan. The index is thus a pure cache: no failure mode of the index
// file can lose documents or change query results.
//
// # Query execution
//
// Search and ForEach extract a Plan from the compiled query, turn the
// index's posting lists into a candidate document set, and hand it to the
// engine, which runs every query through one pipeline. When the plan can
// prune, Search fetches exactly the candidates by batched point lookup
// and never touches the rest of the corpus, so a selective query costs
// O(candidates), not O(corpus) — and with a result limit it takes them
// best-bound-first and stops once the limit is provably filled. ForEach
// keeps its every-document streaming contract: it walks the corpus ID
// list and reports non-candidates at probability zero without reading
// them. The planner is conservative (AND intersects, OR unions, NOT and
// sub-gram terms scan), so results are byte-identical across every mode
// and with the index enabled, disabled, or absent; SearchStats reports
// the mode taken and how much was pruned so the speedup is observable.
package staccatodb

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("staccatodb: db is closed")

// DB is one handle over a document store, its inverted index, and the
// query engine. It is safe for concurrent use.
type DB struct {
	cfg  config
	dir  string           // store directory; "" for OpenMem
	disk *diskstore.Store // nil for OpenMem
	mem  *store.MemStore  // nil for Open
	st   store.DocStore   // whichever of the two is live
	eng  *query.Engine

	// writeMu serializes OpenMem writes so the store and index mutate in
	// the same order (disk-mode writes are ordered by the commit hook,
	// which runs under the store's own write lock).
	writeMu sync.Mutex

	// mu guards the fields below. Lock-order discipline: the diskstore
	// commit hook acquires mu while the store's write lock is held, so no
	// DB method may call into the store while holding mu.
	mu      sync.Mutex
	idx     *index.Index  // nil when the index is disabled
	idxW    *index.Writer // nil when not persisting (OpenMem, or after a log write failure)
	commits uint64        // counts index-visible writes; lets RebuildIndex detect a raced scan
	closed  bool
}

// Open opens (creating if necessary) the database in dir: the durable
// document store plus, unless WithoutIndex, the inverted index — loaded
// from the index log when fresh, rebuilt from a store scan when missing
// or stale.
func Open(dir string, opts ...Option) (*DB, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	db := &DB{cfg: cfg, dir: dir}
	dopts := diskstore.Options{
		MaxSegmentBytes: cfg.maxSegmentBytes,
		NoSync:          cfg.noSync,
	}
	if !cfg.noIndex {
		// Only hook commits when an index will consume them: hook
		// preparation forces a decode and gram extraction per committed
		// document, which a WithoutIndex database should never pay.
		dopts.PrepareCommit = db.prepareCommit
		dopts.OnCommit = db.onCommit
	}
	disk, err := diskstore.Open(dir, dopts)
	if err != nil {
		return nil, err
	}
	db.disk = disk
	db.st = disk
	db.eng = query.NewEngine(disk, query.EngineOptions{Workers: cfg.workers})
	if !cfg.noIndex {
		if err := db.loadOrRebuildIndex(); err != nil {
			disk.Close()
			return nil, err
		}
	}
	return db, nil
}

// OpenMem returns a database over a fresh in-memory store — same API,
// nothing on disk, index (unless WithoutIndex) maintained purely in
// memory. The natural fit for tests and ephemeral corpora.
func OpenMem(opts ...Option) (*DB, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	db := &DB{cfg: cfg}
	db.mem = store.NewMemStore()
	db.st = db.mem
	db.eng = query.NewEngine(db.mem, query.EngineOptions{Workers: cfg.workers})
	if !cfg.noIndex {
		db.idx = index.New(cfg.gramSize)
	}
	return db, nil
}

func buildConfig(opts []Option) (config, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.validated()
}

// indexPath returns the index log's location inside the store directory.
func (db *DB) indexPath() string { return filepath.Join(db.dir, index.FileName) }

// loadOrRebuildIndex loads the index log if its recorded CommitState
// matches the store's, and otherwise rebuilds the index from a full scan
// and snapshots it. Runs during Open, before the DB is shared. Failures
// to WRITE the index log — a read-only corpus directory, a full disk —
// degrade to an unpersisted in-memory index rather than failing Open:
// search over a read-only directory must keep working, and an
// unpersisted index only costs a rebuild next time. Failures to read the
// store itself still fail.
func (db *DB) loadOrRebuildIndex() error {
	want := db.disk.CommitState()
	wantState := toState(want)
	persisted := true
	ix, got, err := index.Load(db.indexPath(), db.cfg.gramSize)
	if err != nil || got != wantState {
		//lint:allow ctxflow Open's signature deliberately takes no context (a DB either opens or it doesn't); the rebuild scan is startup work with no caller deadline to inherit
		ix, err = db.scannedIndex(context.Background())
		if err != nil {
			return err
		}
		if err := index.WriteSnapshot(db.indexPath(), ix, wantState); err != nil {
			persisted = false
		}
	}
	db.idx = ix
	if !persisted {
		return nil
	}
	if w, err := index.OpenAppend(db.indexPath(), db.cfg.gramSize, !db.cfg.noSync); err == nil {
		db.idxW = w
	}
	return nil
}

// scannedIndex builds a fresh index from a full store scan.
func (db *DB) scannedIndex(ctx context.Context) (*index.Index, error) {
	ix := index.New(db.cfg.gramSize)
	err := db.st.Scan(ctx, func(d *staccato.Doc) error {
		ix.Add(d)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("staccatodb: rebuilding index: %w", err)
	}
	return ix, nil
}

// preparedCommit is one commit's index mutations, derived by
// prepareCommit before the store's write lock is taken.
type preparedCommit struct {
	adds []index.Entry
	dels []string
}

// prepareCommit runs the expensive half of index maintenance — decode is
// already done by the store, gram extraction happens here — on the
// writing goroutine, outside every lock. It also reduces the commit to
// its net effect per ID (the last operation wins), so a put-then-delete
// of the same ID inside one batch yields disjoint add/delete sets; both
// Index.Apply and log replay process deletes before adds, which is only
// order-independent once the sets are disjoint.
func (db *DB) prepareCommit(ops []diskstore.CommitOp) any {
	type netOp struct {
		entry index.Entry
		del   bool
	}
	final := make(map[string]*netOp, len(ops))
	order := make([]string, 0, len(ops))
	for _, o := range ops {
		n, seen := final[o.ID]
		if !seen {
			n = &netOp{}
			final[o.ID] = n
			order = append(order, o.ID)
		}
		if o.Doc != nil {
			n.entry = index.EntryFor(o.Doc, db.cfg.gramSize)
			n.del = false
		} else {
			n.del = true
		}
	}
	p := &preparedCommit{}
	for _, id := range order {
		if n := final[id]; n.del {
			p.dels = append(p.dels, id)
		} else {
			p.adds = append(p.adds, n.entry)
		}
	}
	return p
}

// onCommit is the diskstore commit hook: it mirrors every durable store
// commit into the in-memory index and the index log, in commit order,
// under the store's write lock. A log write failure stops persistence —
// the in-memory index stays correct for this process, and the log's now
// stale CommitState forces a rebuild on the next Open — but never fails
// the commit: the documents are already durable.
func (db *DB) onCommit(ops []diskstore.CommitOp, prepared any, cs diskstore.CommitState) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.commits++
	if db.idx == nil {
		return nil
	}
	p, ok := prepared.(*preparedCommit)
	if !ok {
		// PrepareCommit and OnCommit are registered together, so this is
		// unreachable; recompute defensively rather than corrupt the index.
		p = db.prepareCommit(ops).(*preparedCommit)
	}
	db.idx.Apply(p.adds, p.dels)
	if db.idxW != nil {
		if err := db.idxW.Append(p.adds, p.dels, toState(cs)); err != nil {
			db.idxW.Close()
			db.idxW = nil
		}
	}
	return nil
}

// toState converts the store's staleness fingerprint into the index
// log's representation — the single place the field mapping lives.
func toState(cs diskstore.CommitState) index.State {
	return index.State{Ops: cs.Ops, Bytes: cs.Bytes, Seg: cs.Seg}
}

// memApply mirrors an OpenMem write into the in-memory index. Callers
// hold writeMu, so index order matches store order.
func (db *DB) memApply(adds []*staccato.Doc, dels []string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.idx == nil {
		return
	}
	entries := make([]index.Entry, len(adds))
	for i, d := range adds {
		entries[i] = index.EntryFor(d, db.idx.GramSize())
	}
	db.idx.Apply(entries, dels)
}

func (db *DB) isClosed() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.closed
}

// Put stores doc, replacing any existing document with the same ID, and
// keeps the index in step. On disk each Put is one fsync; use Ingest to
// amortize the fsync across many documents.
//
// Writes concurrent with Search/ForEach follow snapshot semantics: the
// candidate set is computed when a query call starts, so a document
// committed while that call is running may be reported by it with
// probability zero (ranked Search drops zero-probability results, so
// its output matches an execution ordered before the write); the next
// call sees the document. A write that completes BEFORE a query call
// starts is always fully visible: on the in-memory path additions
// update the index before the store and deletions the store before the
// index, and on the disk path the commit hook applies the index
// mutation inside the same store-write critical section, so no
// candidate set computed after a completed write can prune its
// document.
func (db *DB) Put(ctx context.Context, doc *staccato.Doc) error {
	if db.isClosed() {
		return ErrClosed
	}
	if db.disk != nil {
		return db.disk.Put(ctx, doc)
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if doc == nil || doc.ID == "" {
		return db.mem.Put(ctx, doc) // the store owns the validation error
	}
	db.memApply([]*staccato.Doc{doc}, nil)
	return db.mem.Put(ctx, doc)
}

// Ingest stores docs as one durable batch — one commit, one fsync, one
// index log record — replacing same-ID documents. It is the bulk-load
// path; split very large loads into multiple Ingest calls to bound commit
// latency and memory.
func (db *DB) Ingest(ctx context.Context, docs []*staccato.Doc) error {
	if db.isClosed() {
		return ErrClosed
	}
	if db.disk != nil {
		b := db.disk.Batch()
		for _, d := range docs {
			if err := b.Put(d); err != nil {
				return err
			}
		}
		return b.Commit(ctx)
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	for _, d := range docs {
		if d == nil || d.ID == "" {
			return db.mem.Put(ctx, d) // the store owns the validation error
		}
	}
	db.memApply(docs, nil)
	for _, d := range docs {
		if err := db.mem.Put(ctx, d); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the document with the given ID from the store and the
// index; deleting a missing ID is a no-op.
func (db *DB) Delete(ctx context.Context, id string) error {
	if db.isClosed() {
		return ErrClosed
	}
	if db.disk != nil {
		return db.disk.Delete(ctx, id)
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.mem.Delete(ctx, id); err != nil {
		return err
	}
	db.memApply(nil, []string{id})
	return nil
}

// Get returns the document with the given ID, or store.ErrNotFound.
func (db *DB) Get(ctx context.Context, id string) (*staccato.Doc, error) {
	if db.isClosed() {
		return nil, ErrClosed
	}
	return db.st.Get(ctx, id)
}

// Search runs one compiled query against the corpus through the planner
// and the parallel engine, returning the ranked matches (descending
// probability, ties by ascending DocID) plus the execution stats —
// the mode taken and how many documents the index pruned versus how
// many the DP evaluated. The DB plans and the engine executes: when the
// planner produces a candidate set it becomes opts.Candidates, and
// query.Engine.Search then fetches and evaluates only the candidates
// (query.ExecCandidateOnly) — best-bound-first with an early stop
// (query.ExecTopK) when opts.TopN > 0 and there is no rescorer, whose
// re-weighting the stored bounds do not cover. Without a candidate set
// the run is the full scan. Results are byte-identical across every mode
// and whether the index is enabled, disabled, or absent.
// opts.Candidates and opts.Stats are managed by the DB and ignored if
// set by the caller.
func (db *DB) Search(ctx context.Context, q *query.Query, opts query.SearchOptions) ([]query.Result, query.SearchStats, error) {
	var stats query.SearchStats
	if db.isClosed() {
		return nil, stats, ErrClosed
	}
	opts.Candidates = db.planCandidates(q, &stats)
	opts.Stats = &stats
	res, err := db.eng.Search(ctx, q, opts)
	return res, stats, err
}

// Snippets runs Search and then extracts each matching document's top
// readings containing the match (query.Query.Snippets): per document, the
// most probable retained readings that satisfy the query, each with its
// probability and the byte/rune positions of every query term — the
// retrieval-chunk input a RAG pipeline consumes. The slice is ordered
// exactly like Search's ranking, and because extraction is a
// deterministic function of each matching document, the output is
// byte-identical across execution modes (scan, candidate-only, top-k)
// and worker counts, just like Search itself. A document
// deleted between the search and the snippet fetch is skipped, matching
// what a search started after the delete would report. When opts.Rescore
// is set, the same transform the search ranked under is applied to each
// fetched document before extraction, so reported reading probabilities
// agree with the ranking.
func (db *DB) Snippets(ctx context.Context, q *query.Query, opts query.SearchOptions, sopts query.SnippetOptions) ([]query.DocSnippets, query.SearchStats, error) {
	results, stats, err := db.Search(ctx, q, opts)
	if err != nil {
		return nil, stats, err
	}
	out := make([]query.DocSnippets, 0, len(results))
	for _, r := range results {
		doc, err := db.st.Get(ctx, r.DocID)
		if errors.Is(err, store.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, stats, err
		}
		if opts.Rescore != nil {
			doc = opts.Rescore(doc)
		}
		out = append(out, q.Snippets(doc, sopts))
	}
	return out, stats, nil
}

// Workers returns the query engine's worker pool size — the evaluation
// parallelism ceiling, which services in front of the DB (staccatod)
// report alongside their own in-flight gauges to make engine saturation
// observable.
func (db *DB) Workers() int { return db.eng.Workers() }

// ForEach streams one Result per document — probability zero included —
// to fn in ascending DocID order, pruning evaluation through the index
// exactly like Search. See query.Engine.ForEach for the callback
// contract.
func (db *DB) ForEach(ctx context.Context, q *query.Query, fn func(query.Result) error) error {
	if db.isClosed() {
		return ErrClosed
	}
	return db.eng.ForEachPruned(ctx, q, db.planCandidates(q, nil), nil, fn)
}

// planCandidates extracts q's plan, evaluates it against the index, and
// (when stats is non-nil) records the planner fields. A nil return means
// no pruning: scan everything.
func (db *DB) planCandidates(q *query.Query, stats *query.SearchStats) *query.CandidateSet {
	db.mu.Lock()
	ix := db.idx
	db.mu.Unlock()
	if ix == nil || q == nil {
		if stats != nil {
			stats.Plan = "scan (no index)"
		}
		return nil
	}
	plan := q.Plan(ix.GramSize())
	cand := plan.Candidates(ix)
	if stats != nil {
		stats.Plan = plan.String()
		stats.PlanGrams = plan.NumGrams()
		stats.IndexUsed = cand != nil
	}
	return cand
}

// Explain renders how q would execute right now: the pruning plan,
// the candidate count against the current corpus when the index can
// prune, and the execution mode Search would take. It runs the planner
// but not the engine.
func (db *DB) Explain(q *query.Query) string {
	db.mu.Lock()
	ix := db.idx
	db.mu.Unlock()
	if q == nil {
		return "plan: none (nil query)"
	}
	if ix == nil {
		return fmt.Sprintf("plan: full scan (no index)\nmode: %s\nquery: %s", query.ExecScan, q.String())
	}
	plan := q.Plan(ix.GramSize())
	out := fmt.Sprintf("plan: %s\nindex: %d-gram over %d docs", plan.String(), ix.GramSize(), ix.Len())
	if cand := plan.Candidates(ix); cand != nil {
		out += fmt.Sprintf("\ncandidates: %d of %d docs\nmode: %s (Search fetches only the candidates)",
			cand.Len(), ix.Len(), query.ExecCandidateOnly)
		if cand.Bounded() {
			out += fmt.Sprintf("\ntop-k: with a result limit, mode %s processes candidates best-bound-first and reports early_stopped/bounds_skipped",
				query.ExecTopK)
		}
	} else {
		out += fmt.Sprintf("\ncandidates: all (plan cannot prune)\nmode: %s", query.ExecScan)
	}
	return out
}

// Stats describes the database's current shape. Segment and disk fields
// are zero for OpenMem databases. The JSON tags define the one canonical
// stats shape, shared verbatim by the CLI's verbose output and the
// staccatod /v1/stats endpoint — live doc count and index persistence
// always read the same either way.
type Stats struct {
	// Docs is the number of live documents.
	Docs int `json:"docs"`
	// Segments and DiskBytes mirror diskstore.Stats.
	Segments  int   `json:"segments"`
	DiskBytes int64 `json:"disk_bytes"`
	// IndexEnabled reports whether an inverted index is attached.
	IndexEnabled bool `json:"index_enabled"`
	// IndexPersisted reports whether the index is being persisted to the
	// store directory's index log. False for OpenMem databases, and for
	// disk databases whose log could not be written (read-only directory,
	// full disk) — the in-memory index still serves queries, but the next
	// Open pays a rebuild.
	IndexPersisted bool `json:"index_persisted"`
	// IndexDocs, IndexGrams, and IndexOverflowDocs mirror index.Stats.
	IndexDocs         int `json:"index_docs"`
	IndexGrams        int `json:"index_grams"`
	IndexOverflowDocs int `json:"index_overflow_docs"`
}

// Stats reports document, segment, and index counts.
func (db *DB) Stats() Stats {
	var st Stats
	db.mu.Lock()
	ix := db.idx
	st.IndexPersisted = db.idxW != nil
	db.mu.Unlock()
	if ix != nil {
		ist := ix.Stats()
		st.IndexEnabled = true
		st.IndexDocs = ist.Docs
		st.IndexGrams = ist.Grams
		st.IndexOverflowDocs = ist.OverflowDocs
	}
	if db.disk != nil {
		dst := db.disk.Stats()
		st.Docs = dst.Docs
		st.Segments = dst.Segments
		st.DiskBytes = dst.DiskBytes
		return st
	}
	st.Docs = db.mem.Len()
	return st
}

// Compact rewrites the store's live records into fresh segments (see
// diskstore.Compact) and snapshots the index log to match, dropping the
// dead postings both accumulate. A no-op for OpenMem databases.
func (db *DB) Compact(ctx context.Context) error {
	if db.isClosed() {
		return ErrClosed
	}
	if db.disk == nil {
		return nil
	}
	if err := db.disk.Compact(ctx); err != nil {
		return err
	}
	cs := db.disk.CommitState()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.idx == nil {
		return nil
	}
	// Commits that land between the CommitState read above and this lock
	// would make the snapshot's state stamp stale; the next Open then just
	// rebuilds. Correctness never depends on the stamp being fresh.
	if db.idxW != nil {
		db.idxW.Close()
		db.idxW = nil
	}
	if err := index.WriteSnapshot(db.indexPath(), db.idx, toState(cs)); err != nil {
		return fmt.Errorf("staccatodb: snapshotting index after compact: %w", err)
	}
	// Compact the in-memory index too: replaying the snapshot's own
	// entries drops the dead ordinals and stale postings that write churn
	// accumulates, so index memory tracks live documents, not
	// total-writes-ever.
	compacted := index.New(db.cfg.gramSize)
	compacted.Apply(db.idx.Entries(), nil)
	db.idx = compacted
	w, err := index.OpenAppend(db.indexPath(), db.cfg.gramSize, !db.cfg.noSync)
	if err != nil {
		return fmt.Errorf("staccatodb: reopening index log after compact: %w", err)
	}
	db.idxW = w
	return nil
}

// RebuildIndex discards the current index and rebuilds it from a full
// store scan, snapshotting the result for disk-backed databases — the
// force-refresh for an index suspected out of step (Open already
// rebuilds automatically whenever staleness is detectable). Writes that
// race the rebuild cannot be lost, in-process or across reopen: a scan
// that any commit raced is discarded and retried (the running index —
// which the commit hooks kept current throughout — stays installed), and
// once a clean scan is swapped in, later commits flow into it before the
// snapshot is stamped. Under relentless write pressure RebuildIndex
// gives up with an error rather than install a possibly-incomplete
// index. A database opened WithoutIndex has no commit hook to keep a
// rebuilt index current, so RebuildIndex refuses — reopen without the
// option instead (Open then builds the index itself).
func (db *DB) RebuildIndex(ctx context.Context) error {
	if db.isClosed() {
		return ErrClosed
	}
	if db.cfg.noIndex {
		return errors.New("staccatodb: index disabled by WithoutIndex; reopen without it to build and maintain one")
	}

	if db.disk == nil {
		// In-memory writes go through writeMu, so holding it excludes
		// them for the duration of the scan — no race to detect.
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
		ix, err := db.scannedIndex(ctx)
		if err != nil {
			return err
		}
		db.mu.Lock()
		db.idx = ix
		db.mu.Unlock()
		return nil
	}

	// Disk writes cannot be excluded, so detect them instead: the commit
	// hook bumps db.commits strictly after a document becomes visible to
	// Scan (both happen inside the store's write critical section), so an
	// unchanged counter across the scan proves the scan missed nothing.
	swapped := false
	for attempt := 0; attempt < 3 && !swapped; attempt++ {
		db.mu.Lock()
		c0 := db.commits
		db.mu.Unlock()
		ix, err := db.scannedIndex(ctx)
		if err != nil {
			return err
		}
		db.mu.Lock()
		if db.commits == c0 {
			// No write raced the scan: ix is complete. Swap it in; from
			// here every commit's hook applies to ix. Persistence pauses
			// (idxW nil) until the snapshot below establishes the new log.
			if db.idxW != nil {
				db.idxW.Close()
				db.idxW = nil
			}
			db.idx = ix
			swapped = true
		}
		db.mu.Unlock()
	}
	if !swapped {
		return errors.New("staccatodb: writes kept racing the rebuild scan; index left as it was (still correct — the commit hooks maintain it)")
	}

	// Commits between the swap and the CommitState read are in the index
	// (via the hook) and in the state — the stamp is exact. A commit
	// landing between the read and the snapshot write is in the snapshot
	// but not the stamp, which only under-states it: the next Open sees a
	// mismatch and harmlessly rebuilds.
	cs := db.disk.CommitState()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := index.WriteSnapshot(db.indexPath(), db.idx, toState(cs)); err != nil {
		// Keep the correct in-memory index; persistence stays off and the
		// next Open rebuilds.
		return fmt.Errorf("staccatodb: writing index snapshot: %w", err)
	}
	w, err := index.OpenAppend(db.indexPath(), db.cfg.gramSize, !db.cfg.noSync)
	if err != nil {
		return fmt.Errorf("staccatodb: reopening index log: %w", err)
	}
	db.idxW = w
	return nil
}

// Close detaches the index, closes the index log, and closes the store.
// Operations after Close return ErrClosed (or the store's own closed
// error). Close never loses committed data.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	w := db.idxW
	db.idx, db.idxW = nil, nil
	db.mu.Unlock()

	var err error
	if w != nil {
		err = w.Close()
	}
	if db.disk != nil {
		if cerr := db.disk.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
