// Package staccatodb is the single-handle public API of the system: one
// DB wires together the document store (a diskstore.Store), the inverted
// q-gram index with its log, and the parallel query engine, keeps the
// three consistent through every write, and tears them down in one Close.
// The store and the index log live on one file system: the disk for
// Open, memory for OpenMem, and nothing else differs between the two.
// Callers that previously hand-assembled diskstore.Open +
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
// The DB is the single sequencer of mutations. Every write arrives
// prepared: before any lock, its deletes and documents go into one store
// batch, which validates and encodes the documents (a refused document
// fails the write before anything is derived from it), and the index
// extracts its additions. Only then does the write take the DB's write
// lock, commit the batch to the store, all or none, and hand the same
// change to the index (index.Index.Commit),
// which applies it in memory and appends a mirroring record to its log
// (index.FileName in the store directory), stamped with the store's
// CommitState, before the write call returns. The index owns that log: it
// rewrites it as a snapshot once it is past 1 MiB and either past 3/2 of
// its last snapshot or more than half dead ordinals (deletes and
// supersedes), and stops persisting, serving on from memory, when the log
// cannot be written.
// Store first, so a failed commit, which stores nothing, leaves the index
// describing what the store still holds. Compact takes the same lock, so
// it excludes writers. Open hands index.Open the store's CommitState: any
// mismatch with the log's final state — the index file missing, the store
// modified without the index attached, a torn tail truncated on either
// side, a crash between the store commit and the log append — declares
// the index stale and rebuilds it from a full scan. The index is thus a
// pure cache: no failure mode of the index file can lose documents or
// change query results, and the recovery for any of them is a reopen.
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
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("staccatodb: db is closed")

// DB is one handle over a document store, its inverted index, and the
// query engine. It is safe for concurrent use.
type DB struct {
	cfg  config
	fsys framelog.FS // the file system the store and the index log live on
	dir  string      // store directory on fsys
	disk *diskstore.Store
	eng  *query.Engine
	idx  *index.Index // nil when the index is disabled; set once, by open

	// writeMu orders every mutation: writes, Compact and Close hold it
	// from the store commit through the index update, so the store and
	// the index change in the same order and maintenance excludes writers.
	writeMu sync.Mutex
	// closed is set once, by Close, with writeMu held. A reader that loads
	// it false as Close runs is safe: a closed index answers lookups from
	// memory, and the closed store reports its own error.
	closed atomic.Bool
}

// Open opens (creating if necessary) the database in dir: the durable
// document store plus, unless WithoutIndex, the inverted index — loaded
// from the index log when fresh, rebuilt from a store scan when missing
// or stale.
func Open(dir string, opts ...Option) (*DB, error) {
	return open(framelog.OS, dir, opts)
}

// OpenMem returns a new, empty database over a fresh in-memory file
// system — the same store, index log, write path and Compact as Open,
// but nothing touches disk and everything goes with the DB. The natural
// fit for tests and ephemeral corpora.
func OpenMem(opts ...Option) (*DB, error) {
	return open(framelog.NewMemFS(), "", opts)
}

// open is Open over any file system: the store's files and the index log
// both live in dir on fsys.
func open(fsys framelog.FS, dir string, opts []Option) (*DB, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	disk, err := diskstore.OpenFS(fsys, dir, diskstore.Options{MaxSegmentBytes: cfg.maxSegmentBytes, NoSync: cfg.noSync})
	if err != nil {
		return nil, err
	}
	db := &DB{cfg: cfg, fsys: fsys, dir: dir, disk: disk}
	db.eng = query.NewEngine(disk, query.EngineOptions{Workers: cfg.workers})
	if !cfg.noIndex {
		// Only a failure to read the store fails Open. An index log that
		// cannot be written — a read-only corpus directory, a full disk —
		// leaves the index serving unpersisted: search must keep working,
		// and an unpersisted index only costs a rebuild next time.
		build := func(ix *index.Index) error {
			//lint:allow ctxflow Open's signature deliberately takes no context (a DB either opens or it doesn't); the rebuild scan is startup work with no caller deadline to inherit
			return db.rebuild(context.Background(), ix)
		}
		if db.idx, err = index.Open(fsys, db.indexPath(), disk.CommitState(), !cfg.noSync, build); err != nil {
			disk.Close()
			return nil, err
		}
	}
	return db, nil
}

// indexPath returns the index log's location inside the store directory.
func (db *DB) indexPath() string { return filepath.Join(db.dir, index.FileName) }

// rebuildRun is how many documents a rebuild reads and extracts at a
// time. A longer run shares more of its gram dictionary and splits better
// over the workers: rebuilding 8,000 error-model documents on 2 vCPUs
// took ≈ 310 ms in runs of 256, 240 ms in runs of 1,024 and 200 ms in runs
// of 2,048; 1,024 keeps the decoded documents held at once to a few MB.
const rebuildRun = 1024

// rebuild fills ix, a new unpersisted index, from a full store scan, read
// and extracted in runs of rebuildRun documents, each committed as one
// Batch.
func (db *DB) rebuild(ctx context.Context, ix *index.Index) error {
	ids, err := db.disk.ListDocIDs(ctx)
	for from := 0; err == nil && from < len(ids); from += rebuildRun {
		var docs []*staccato.Doc
		if docs, err = db.disk.GetBatch(ctx, ids[from:min(from+rebuildRun, len(ids))]); err == nil {
			docs = slices.DeleteFunc(docs, func(d *staccato.Doc) bool { return d == nil }) // deleted since the listing
			err = ix.Commit(ix.BatchOf(docs, db.Workers()), nil, diskstore.CommitState{})
		}
	}
	if err != nil {
		return fmt.Errorf("staccatodb: rebuilding index: %w", err)
	}
	return nil
}

// Put stores doc, replacing any existing document with the same ID, and
// keeps the index in step. On disk each Put is one fsync; use Ingest to
// amortize the fsync across many documents.
//
// Writes concurrent with Search follow snapshot semantics: a query's
// candidate set comes from the one index version its lookup pins — the
// index as a whole commit left it, never part of one — so a document
// committed while that call is running may be missing from its results,
// which then match an execution ordered before the write; the next call
// sees the document. (The store is read as it stands, not pinned.) A
// write that has RETURNED is always fully visible: it returns only after
// the index has published the version that holds what the store
// committed, so no candidate set computed after it can prune its
// document.
func (db *DB) Put(ctx context.Context, doc *staccato.Doc) error {
	return db.write(ctx, nil, []*staccato.Doc{doc})
}

// Ingest stores docs as one durable batch — one commit, one fsync, one
// index log record — replacing same-ID documents. The batch is all or
// none: if any document is invalid or the commit fails, none is stored.
// An invalid document's error wraps store.ErrInvalidDoc and names its
// position, docs[i].
// It is the bulk-load path; split very large loads into multiple Ingest
// calls to bound commit latency and memory.
func (db *DB) Ingest(ctx context.Context, docs []*staccato.Doc) error {
	return db.write(ctx, nil, docs)
}

// Delete removes the document with the given ID from the store and the
// index; deleting a missing ID writes nothing.
func (db *DB) Delete(ctx context.Context, id string) error {
	return db.write(ctx, []string{id}, nil)
}

// write is the one mutation path: one store Batch that deletes dels and
// then stores puts — the order in which index.Index.Commit applies them —
// and, when it wrote anything, one index commit of the same change.
func (db *DB) write(ctx context.Context, dels []string, puts []*staccato.Doc) error {
	// The store judges and encodes every document before anything is
	// derived from it, so a batch it refuses costs no gram extraction.
	// Both run before any lock: extraction, the expensive part of index
	// maintenance, on up to Workers goroutines, and not at all
	// WithoutIndex.
	b := db.disk.Batch()
	for _, id := range dels {
		b.Delete(id)
	}
	for i, d := range puts {
		if err := b.Put(d); err != nil {
			return fmt.Errorf("staccatodb: docs[%d]: %w", i, err)
		}
	}
	var adds *index.Batch
	if db.idx != nil {
		adds = db.idx.BatchOf(puts, db.Workers())
	}

	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	// Store first, so a failed commit, which stores nothing, leaves the
	// index describing what the store still holds.
	before := db.disk.CommitState()
	if err := b.Commit(ctx); err != nil || db.idx == nil || db.disk.CommitState() == before {
		// A failed commit, no index to maintain, or nothing written — an
		// empty Ingest, or a Delete of a missing ID — so neither the index
		// nor its log has anything to record.
		return err
	}
	// A log write failure — of the record, or of the rewrite a record
	// that takes the log past its trigger sets off — stops persistence:
	// the in-memory index stays correct for this process, and the log goes
	// stale with the next write, which forces a rebuild on the next Open.
	// It never fails the write: the documents are already durable.
	_ = db.idx.Commit(adds, dels, db.disk.CommitState())
	return nil
}

// Get returns the document with the given ID, or store.ErrNotFound.
func (db *DB) Get(ctx context.Context, id string) (*staccato.Doc, error) {
	if db.closed.Load() {
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
// the run is the full scan (query.ExecScan). With opts.TopN > 0 a scan or
// rescored run reads in ID order and stops at its TopN-th certain match.
// Results are byte-identical across every mode and whether the index is
// enabled, disabled, or absent.
// opts.Candidates and opts.Stats are managed by the DB and ignored if
// set by the caller.
func (db *DB) Search(ctx context.Context, q *query.Query, opts query.SearchOptions) ([]query.Result, query.SearchStats, error) {
	var stats query.SearchStats
	if db.closed.Load() {
		return nil, stats, ErrClosed
	}
	opts.Candidates = planCandidates(db.idx, q, &stats)
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
	ids := make([]string, len(results))
	for i, r := range results {
		ids[i] = r.DocID
	}
	docs, err := db.disk.GetBatch(ctx, ids)
	if err != nil {
		return nil, stats, err
	}
	out := make([]query.DocSnippets, 0, len(docs))
	for _, doc := range docs {
		if doc == nil { // deleted since Search ranked it
			continue
		}
		if opts.Rescore != nil {
			doc = opts.Rescore(doc)
		}
		out = append(out, q.Snippets(doc, sopts))
	}
	return out, stats, nil
}

// Workers returns the query engine's worker pool size — the evaluation
// parallelism ceiling, and the most goroutines a write extracts grams on —
// which services in front of the DB (pkg/server) report alongside their
// own in-flight gauges to make engine saturation observable.
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
	ix := db.idx
	if db.closed.Load() {
		ix = nil
	}
	if q == nil {
		return "plan: none (nil query)"
	}
	scan := fmt.Sprintf("mode: %s\ntop-k: with a result limit, Search reads in ID order and stops at the N-th certain match, reporting early_stopped/bounds_skipped", query.ExecScan)
	if ix == nil {
		return fmt.Sprintf("plan: full scan (no index)\n%s\nquery: %s", scan, q.String())
	}
	var planned query.SearchStats
	cand := planCandidates(ix, q, &planned)
	out := fmt.Sprintf("plan: %s\nindex: %d-gram over %d docs, %d dictionary grams consulted", planned.Plan, ix.GramSize(), ix.Len(), planned.PlanGrams)
	if cand != nil {
		out += fmt.Sprintf("\ncandidates: %d of %d docs\nmode: %s (Search fetches only the candidates)"+
			"\ntop-k: with a result limit, mode %s processes candidates best-bound-first and reports early_stopped/bounds_skipped",
			cand.Len(), ix.Len(), query.ExecCandidateOnly, query.ExecTopK)
	} else {
		out += "\ncandidates: all (plan cannot prune)\n" + scan
	}
	return out
}

// Stats describes the database's current shape; for OpenMem databases
// the segment, disk and index log fields describe the in-memory file
// system. The JSON tags define the one canonical stats shape, shared
// verbatim by the CLI's verbose output and the server's /v1/stats
// endpoint — live doc count and index persistence always read the same
// either way.
type Stats struct {
	// Docs is the number of live documents.
	Docs int `json:"docs"`
	// Segments and DiskBytes mirror diskstore.Stats.
	Segments  int   `json:"segments"`
	DiskBytes int64 `json:"disk_bytes"`
	// IndexEnabled reports whether an inverted index is attached.
	IndexEnabled bool `json:"index_enabled"`
	// IndexPersisted reports whether the index is being persisted to the
	// store directory's index log. False when the log could not be written
	// (read-only directory, full disk) — the in-memory index still serves
	// queries, but the next Open pays a rebuild.
	IndexPersisted bool `json:"index_persisted"`
	// IndexDocs, IndexGrams, IndexPostings (dead postings included until
	// the index log's next rewrite, which Compact forces) and
	// IndexOverflowDocs mirror index.Stats.
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
	dst := db.disk.Stats()
	st := Stats{Docs: dst.Docs, Segments: dst.Segments, DiskBytes: dst.DiskBytes}
	if db.idx != nil && !db.closed.Load() {
		ist := db.idx.Stats()
		st.IndexEnabled = true
		st.IndexPersisted = ist.LogBytes > 0
		st.IndexDocs = ist.Docs
		st.IndexGrams = ist.Grams
		st.IndexPostings = ist.Postings
		st.IndexOverflowDocs = ist.OverflowDocs
		st.IndexBytes = ist.LogBytes
	}
	return st
}

// Compact rewrites the store's live records into fresh segments (see
// diskstore.Compact) and compacts the index to match — snapshotting the
// index log — dropping the dead records and postings both accumulate.
// Writers wait while it runs.
func (db *DB) Compact(ctx context.Context) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.disk.Compact(ctx); err != nil {
		return err
	}
	if db.idx == nil {
		return nil
	}
	// Persisting rewrites the in-memory index too, dropping the dead
	// ordinals and stale postings that write churn accumulates, and it
	// takes an index that had stopped persisting back to its log.
	if err := db.idx.Persist(db.fsys, db.indexPath(), db.disk.CommitState(), !db.cfg.noSync); err != nil {
		return fmt.Errorf("staccatodb: persisting index: %w", err)
	}
	return nil
}

// Close waits for writes in flight, then closes the index log and the
// store. Operations after Close return ErrClosed (or the store's own
// closed error), and Stats and Explain report no index. Close never loses
// committed data.
func (db *DB) Close() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.closed.Swap(true) {
		return nil
	}
	var err error
	if db.idx != nil {
		err = db.idx.Close()
	}
	if cerr := db.disk.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
