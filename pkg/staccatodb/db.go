// Package staccatodb is the single-handle public API of the system: one
// DB wires together the document store (a diskstore.Store, on disk or
// over an in-memory file system), the inverted q-gram index (persisted
// on disk), and the parallel query engine,
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
// The DB is the single sequencer of mutations. Every write extracts its
// index entries before any lock, takes the DB's write lock, commits to
// the store as one all-or-none batch, and only then applies the same
// change to the in-memory index and — on disk — appends a mirroring
// record to the index log (index.FileName in the store directory),
// stamped with the store's CommitState, before the write call returns.
// Store first, so a failed commit, which stores nothing, leaves the index
// describing what the store still holds. Compact and RebuildIndex take
// the same lock, so they exclude writers. Open compares the log's final
// state against the store's: any mismatch — the index file missing, the
// store modified without the index attached, a torn tail truncated on
// either side, a crash between the store commit and the log append —
// declares the index stale and rebuilds it from a full scan. The index
// is thus a pure cache: no failure mode of the index file can lose
// documents or change query results.
//
// # Query execution
//
// Search extracts a Plan from the compiled query, turns the index's
// posting lists into a candidate document set, and hands it to the
// engine, which runs every query through one worker pool. When the plan
// can prune, Search fetches exactly the candidates by batched point
// lookup and never touches the rest of the corpus, so a selective query
// costs O(candidates), not O(corpus) — and with a result limit it takes
// them best-bound-first and stops once the limit is provably filled. The
// planner is conservative (AND intersects, OR unions, fuzzy terms too
// short for the pigeonhole go through the gram dictionary, NOT and
// sub-gram terms scan), so results are byte-identical across every mode
// and with the index enabled, disabled, or absent; SearchStats reports
// the mode taken and how much was pruned so the speedup is observable.
package staccatodb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/paper-repo/staccato-go/internal/framelog"
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
	dir  string // store directory; "" for OpenMem, whose index is never persisted
	disk *diskstore.Store
	eng  *query.Engine

	// writeMu orders every mutation: writes, Compact, RebuildIndex and
	// Close hold it from the store commit through the index update, so
	// the store and the index change in the same order and maintenance
	// excludes writers.
	writeMu sync.Mutex

	// mu guards the fields below. idx and idxW are assigned only with
	// writeMu also held, so a writeMu holder reads them directly and
	// everyone else goes through index(). Lock order: writeMu, then the
	// store's lock or mu; mu is never held across a store or index call.
	mu     sync.Mutex
	idx    *index.Index  // nil when the index is disabled
	idxW   *index.Writer // nil when not persisting (OpenMem, or after a log write failure)
	closed bool
}

// Open opens (creating if necessary) the database in dir: the durable
// document store plus, unless WithoutIndex, the inverted index — loaded
// from the index log when fresh, rebuilt from a store scan when missing
// or stale.
func Open(dir string, opts ...Option) (*DB, error) {
	return open(dir, func(o diskstore.Options) (*diskstore.Store, error) { return diskstore.Open(dir, o) }, opts)
}

// OpenMem returns a database over a fresh diskstore.OpenMem store — the
// same store, write path and Compact as Open, over an in-memory file
// system, so nothing touches disk and the index (unless WithoutIndex)
// is never persisted. The natural fit for tests and ephemeral corpora.
func OpenMem(opts ...Option) (*DB, error) {
	return open("", diskstore.OpenMem, opts)
}

// open is Open and OpenMem: openStore opens the document store.
func open(dir string, openStore func(diskstore.Options) (*diskstore.Store, error), opts []Option) (*DB, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	cfg, err := cfg.validated()
	if err != nil {
		return nil, err
	}
	disk, err := openStore(diskstore.Options{MaxSegmentBytes: cfg.maxSegmentBytes, NoSync: cfg.noSync})
	if err != nil {
		return nil, err
	}
	db := &DB{cfg: cfg, dir: dir, disk: disk}
	db.eng = query.NewEngine(disk, query.EngineOptions{Workers: cfg.workers})
	if !cfg.noIndex {
		if err := db.loadOrRebuildIndex(); err != nil {
			disk.Close()
			return nil, err
		}
	}
	return db, nil
}

// indexPath returns the index log's location inside the store directory.
func (db *DB) indexPath() string { return filepath.Join(db.dir, index.FileName) }

// loadOrRebuildIndex loads the index log if its recorded CommitState
// matches the store's, and otherwise rebuilds the index from a full scan
// and snapshots it; OpenMem has no log, and scans its empty store. Runs
// during Open, before the DB is shared. Failures to WRITE the index log —
// a read-only corpus directory, a full disk — degrade to an unpersisted
// in-memory index rather than failing Open: search over a read-only
// directory must keep working, and an unpersisted index only costs a
// rebuild next time. Failures to read the store itself still fail.
func (db *DB) loadOrRebuildIndex() error {
	if db.dir != "" {
		// A crash mid-snapshot strands the replace's staging file, and only
		// a later successful snapshot would ever overwrite it. Best effort:
		// a read-only directory keeps its debris and still opens.
		_ = os.Remove(db.indexPath() + framelog.TempSuffix)
		ix, got, err := index.Load(db.indexPath(), db.cfg.gramSize)
		if err == nil && got == toState(db.disk.CommitState()) {
			db.idx = ix
			if w, err := index.OpenAppend(db.indexPath(), db.cfg.gramSize, !db.cfg.noSync); err == nil {
				db.idxW = w
			}
			return nil
		}
	}
	//lint:allow ctxflow Open's signature deliberately takes no context (a DB either opens or it doesn't); the rebuild scan is startup work with no caller deadline to inherit
	ix, err := db.scannedIndex(context.Background())
	if err != nil {
		return err
	}
	_ = db.installIndex(ix) // a log that cannot be written leaves the index installed but unpersisted
	return nil
}

// installIndex makes ix the live index and, on disk (dir != ""),
// replaces the index log with a snapshot of it stamped with the store's
// CommitState, then reopens the log for appending. Callers hold writeMu (Open runs before
// the DB is shared), so no commit lands between the stamp and the
// snapshot and the stamp is exact. If the log cannot be written ix is
// installed all the same — it is correct for this process — with
// persistence off, and the next Open rebuilds.
func (db *DB) installIndex(ix *index.Index) error {
	if db.idxW != nil {
		db.idxW.Close()
	}
	var w *index.Writer
	var err error
	if db.dir != "" {
		err = index.WriteSnapshot(db.indexPath(), ix, toState(db.disk.CommitState()))
		if err == nil {
			w, err = index.OpenAppend(db.indexPath(), db.cfg.gramSize, !db.cfg.noSync)
		}
		if err != nil {
			err = fmt.Errorf("staccatodb: persisting index: %w", err)
		}
	}
	db.mu.Lock()
	db.idx, db.idxW = ix, w
	db.mu.Unlock()
	return err
}

// scannedIndex builds a fresh index from a full store scan.
func (db *DB) scannedIndex(ctx context.Context) (*index.Index, error) {
	ix := index.New(db.cfg.gramSize)
	err := db.disk.Scan(ctx, func(d *staccato.Doc) error {
		ix.Add(d)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("staccatodb: rebuilding index: %w", err)
	}
	return ix, nil
}

// toState converts the store's staleness fingerprint into the index
// log's representation — the single place the field mapping lives.
func toState(cs diskstore.CommitState) index.State {
	return index.State{Ops: cs.Ops, Bytes: cs.Bytes, Seg: cs.Seg}
}

// index returns the live index — nil when disabled or closed — and
// whether it is being persisted to the index log.
func (db *DB) index() (ix *index.Index, persisted bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.idx, db.idxW != nil
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
// Writes concurrent with Search follow snapshot semantics: the candidate
// set is computed when a query call starts, so a document committed
// while that call is running may be missing from its results, which then
// match an execution ordered before the write; the next call sees the
// document. A write that has RETURNED is always fully
// visible: it returns only after the index has absorbed what the store
// committed, so no candidate set computed after it can prune its
// document.
func (db *DB) Put(ctx context.Context, doc *staccato.Doc) error {
	return db.write(ctx, []*staccato.Doc{doc}, "")
}

// Ingest stores docs as one durable batch — one commit, one fsync, one
// index log record — replacing same-ID documents. The batch is all or
// none: if any document is invalid or the commit fails, none is stored.
// It is the bulk-load path; split very large loads into multiple Ingest
// calls to bound commit latency and memory.
func (db *DB) Ingest(ctx context.Context, docs []*staccato.Doc) error {
	return db.write(ctx, docs, "")
}

// Delete removes the document with the given ID from the store and the
// index; deleting a missing ID is a no-op.
func (db *DB) Delete(ctx context.Context, id string) error {
	return db.write(ctx, nil, id)
}

// write is the one mutation path: it stores puts, or deletes del when
// del is non-empty (no document has the empty ID).
func (db *DB) write(ctx context.Context, puts []*staccato.Doc, del string) error {
	// Gram extraction and inverting the batch are the expensive part of
	// index maintenance; both run before any lock, and not at all
	// WithoutIndex. A nil document keeps a placeholder: the store rejects it
	// before its entry could be applied.
	var entries []index.Entry
	var adds *index.Batch
	if !db.cfg.noIndex {
		entries = make([]index.Entry, len(puts))
		for i, d := range puts {
			if d != nil {
				entries[i] = index.EntryFor(d, db.cfg.gramSize)
			}
		}
		adds = index.Invert(entries)
	}

	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.isClosed() {
		return ErrClosed
	}
	// Store first, so a failed commit, which stores nothing, leaves the
	// index describing what the store still holds.
	before := db.disk.CommitState()
	if err := db.commit(ctx, puts, del); err != nil || db.idx == nil || db.disk.CommitState() == before {
		// A failed commit, no index to maintain, or nothing written — an
		// empty Ingest, or a Delete of a missing ID — so neither the index
		// nor its log has anything to record.
		return err
	}
	var dels []string
	if del != "" {
		dels = []string{del}
	}
	db.idx.ApplyBatch(adds, dels)
	if db.idxW != nil {
		// A log write failure stops persistence — the in-memory index stays
		// correct for this process, and the log's now stale CommitState
		// forces a rebuild on the next Open — but never fails the write:
		// the documents are already durable.
		if db.idxW.Append(adds, dels, toState(db.disk.CommitState())) != nil {
			db.idxW.Close()
			db.mu.Lock()
			db.idxW = nil
			db.mu.Unlock()
		}
	}
	return nil
}

// commit applies one write to the store: a Delete, or puts as one batch
// and one fsync, stored all or none.
func (db *DB) commit(ctx context.Context, puts []*staccato.Doc, del string) error {
	if del != "" {
		return db.disk.Delete(ctx, del)
	}
	b := db.disk.Batch()
	for _, d := range puts {
		if err := b.Put(d); err != nil {
			return err
		}
	}
	return b.Commit(ctx)
}

// Get returns the document with the given ID, or store.ErrNotFound.
func (db *DB) Get(ctx context.Context, id string) (*staccato.Doc, error) {
	if db.isClosed() {
		return nil, ErrClosed
	}
	return db.disk.Get(ctx, id)
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
	ix, _ := db.index()
	opts.Candidates = planCandidates(ix, q, &stats)
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
		doc, err := db.disk.Get(ctx, r.DocID)
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

// planCandidates is the DB's one planning step: it extracts q's plan,
// evaluates it against ix, and records the planner fields in stats. A nil
// return means no pruning: scan everything.
func planCandidates(ix *index.Index, q *query.Query, stats *query.SearchStats) *query.CandidateSet {
	if ix == nil || q == nil {
		stats.Plan = "scan (no index)"
		return nil
	}
	plan := q.Plan(ix.GramSize())
	cand, grams := plan.Lookup(ix)
	stats.Plan = plan.String()
	stats.PlanGrams = grams
	stats.IndexUsed = cand != nil
	return cand
}

// Explain renders how q would execute right now: the pruning plan,
// the candidate count against the current corpus when the index can
// prune, and the execution mode Search would take. It runs the planner
// but not the engine.
func (db *DB) Explain(q *query.Query) string {
	ix, _ := db.index()
	if q == nil {
		return "plan: none (nil query)"
	}
	if ix == nil {
		return fmt.Sprintf("plan: full scan (no index)\nmode: %s\nquery: %s", query.ExecScan, q.String())
	}
	var planned query.SearchStats
	cand := planCandidates(ix, q, &planned)
	out := fmt.Sprintf("plan: %s\nindex: %d-gram over %d docs, %d dictionary grams consulted", planned.Plan, ix.GramSize(), ix.Len(), planned.PlanGrams)
	if cand != nil {
		out += fmt.Sprintf("\ncandidates: %d of %d docs\nmode: %s (Search fetches only the candidates)"+
			"\ntop-k: with a result limit, mode %s processes candidates best-bound-first and reports early_stopped/bounds_skipped",
			cand.Len(), ix.Len(), query.ExecCandidateOnly, query.ExecTopK)
	} else {
		out += fmt.Sprintf("\ncandidates: all (plan cannot prune)\nmode: %s", query.ExecScan)
	}
	return out
}

// Stats describes the database's current shape; for OpenMem databases
// the segment and disk fields describe the in-memory file system. The
// JSON tags define the one canonical stats shape, shared verbatim by the
// CLI's verbose output and the staccatod /v1/stats endpoint — live doc
// count and index persistence always read the same either way.
type Stats struct {
	// Docs is the number of live documents.
	Docs int `json:"docs"`
	// Segments and DiskBytes mirror diskstore.Stats.
	Segments  int   `json:"segments"`
	DiskBytes int64 `json:"disk_bytes"`
	// IndexEnabled reports whether an inverted index is attached.
	IndexEnabled bool `json:"index_enabled"`
	// IndexPersisted reports whether the index is being persisted to the
	// store directory's index log. False for OpenMem databases, which
	// have no index log, and for disk databases whose log could not be
	// written (read-only directory, full disk) — the in-memory index still
	// serves queries, but the next Open pays a rebuild.
	IndexPersisted bool `json:"index_persisted"`
	// IndexDocs, IndexGrams, IndexPostings (dead postings included until
	// the next Compact) and IndexOverflowDocs mirror index.Stats.
	IndexDocs         int `json:"index_docs"`
	IndexGrams        int `json:"index_grams"`
	IndexPostings     int `json:"index_postings"`
	IndexOverflowDocs int `json:"index_overflow_docs"`
	// IndexBytes is the size of the index log, to set beside DiskBytes
	// (which counts the segments only): the index exists so that a query
	// need not read the data, and should not outweigh it. Zero when the
	// index is not persisted.
	IndexBytes int64 `json:"index_bytes"`
}

// Stats reports document, segment, and index counts.
func (db *DB) Stats() Stats {
	ix, persisted := db.index()
	dst := db.disk.Stats()
	st := Stats{Docs: dst.Docs, Segments: dst.Segments, DiskBytes: dst.DiskBytes, IndexPersisted: persisted}
	if ix != nil {
		ist := ix.Stats()
		st.IndexEnabled = true
		st.IndexDocs = ist.Docs
		st.IndexGrams = ist.Grams
		st.IndexPostings = ist.Postings
		st.IndexOverflowDocs = ist.OverflowDocs
	}
	if persisted {
		if fi, err := os.Stat(db.indexPath()); err == nil {
			st.IndexBytes = fi.Size()
		}
	}
	return st
}

// Compact rewrites the store's live records into fresh segments (see
// diskstore.Compact) and compacts the index to match — snapshotting the
// index log on disk — dropping the dead records and postings both
// accumulate. Writers wait while it runs.
func (db *DB) Compact(ctx context.Context) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.isClosed() {
		return ErrClosed
	}
	if err := db.disk.Compact(ctx); err != nil {
		return err
	}
	if db.idx == nil {
		return nil
	}
	// Compact the in-memory index too: replaying its own snapshot drops the
	// dead ordinals and stale postings that write churn accumulates, so
	// index memory tracks live documents, not total-writes-ever.
	compacted := index.New(db.cfg.gramSize)
	compacted.ApplyBatch(db.idx.Snapshot(), nil)
	return db.installIndex(compacted)
}

// RebuildIndex discards the current index and rebuilds it from a full
// store scan, snapshotting the result for disk-backed databases — the
// force-refresh for an index suspected out of step (Open already
// rebuilds automatically whenever staleness is detectable). Writers wait
// for the length of the scan, so the rebuilt index and its stamp cover
// exactly what the store holds. A database opened WithoutIndex extracts
// no index entries on write, so nothing would keep a rebuilt index
// current and RebuildIndex refuses — reopen without the option instead
// (Open then builds the index itself).
func (db *DB) RebuildIndex(ctx context.Context) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.isClosed() {
		return ErrClosed
	}
	if db.cfg.noIndex {
		return errors.New("staccatodb: index disabled by WithoutIndex; reopen without it to build and maintain one")
	}
	ix, err := db.scannedIndex(ctx)
	if err != nil {
		return err
	}
	return db.installIndex(ix)
}

// Close waits for writes in flight, then detaches the index, closes the
// index log, and closes the store. Operations after Close return
// ErrClosed (or the store's own closed error). Close never loses
// committed data.
func (db *DB) Close() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
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
	if cerr := db.disk.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
