// Package server turns a staccatodb.DB into a long-running HTTP/JSON
// service — the network face of the system. One Server owns one DB and
// exposes ingest (batched), search and explain (per-result
// probabilities plus full execution stats — probability semantics stay
// first-class on the wire, never flattened to matched/not-matched),
// point get/delete, stats, and health.
//
// Between the socket and the engine sit the three mechanisms a serving
// path needs that a CLI does not:
//
//   - A compiled-query LRU cache. Queries arrive as strings; compiling
//     one is pure CPU that repeat traffic should not re-pay. The cache
//     is keyed by the canonical query spec and its hit rate is part of
//     the exported metrics.
//   - Admission control. In-flight requests are bounded by a semaphore;
//     a request that cannot be admitted is rejected immediately with
//     429 and a Retry-After hint, and every rejection is counted —
//     under overload the server sheds load loudly instead of queueing
//     without bound, and no rejection is ever silent.
//   - Per-request deadlines. Every DB call runs under a context
//     deadline (the server default, tightened per request via
//     timeout_ms); a request that exceeds it returns 504 with the
//     deadline error rather than occupying a worker forever.
//
// Shutdown is graceful by construction: Shutdown marks the server
// draining (new requests get 503, health reports draining so load
// balancers stop routing), waits for every in-flight request to finish,
// and only then closes the DB — an admitted request never observes a
// closed database.
//
// Metrics are expvar-based: request counts, error counts, and
// fixed-bucket latency histograms per endpoint, cache hits/misses,
// rejected count, the in-flight gauge, and the engine worker ceiling,
// served both at /debug/vars (expvar JSON) and inside /v1/stats next to
// the database's own stats.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// Defaults for Options zero values.
const (
	DefaultMaxInFlight    = 256
	DefaultRequestTimeout = 10 * time.Second
)

const (
	// queryCacheSize is the compiled-query LRU capacity.
	queryCacheSize = 256
	// retryAfter is the hint every 429 carries in its Retry-After header.
	retryAfter = 1 * time.Second
)

// maxBodyBytes bounds request bodies: generous for document batches,
// tight for queries — a malformed client must not buffer the server into
// the ground.
const (
	maxIngestBodyBytes = 64 << 20 // 64 MiB of documents per batch
	maxQueryBodyBytes  = 1 << 20  // 1 MiB of query spec
)

// Options configures a Server. Zero values select the defaults above.
type Options struct {
	// MaxInFlight bounds how many requests may be in the DB-touching
	// handlers at once; requests beyond it are rejected with 429.
	MaxInFlight int
	// RequestTimeout is the per-request deadline applied to every DB
	// call. A request's timeout_ms can tighten it but never extend it.
	RequestTimeout time.Duration
	// Lexicon, when non-nil, enables lexicon rescoring: a request setting
	// "lexicon": true is ranked under Lexicon.Rescorer(fuzzy.DefaultBoost).
	// When nil, such requests are rejected with 400 — the knob must fail
	// loudly, not silently rank without the dictionary.
	Lexicon *fuzzy.Lexicon
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = DefaultMaxInFlight
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	return o
}

// Server serves one staccatodb.DB over HTTP. Create with New, mount
// Handler on an http.Server, and stop with Shutdown. The Server owns
// the DB from New onward: Shutdown closes it.
type Server struct {
	db      *staccatodb.DB
	opts    Options
	cache   *queryCache
	met     *metrics
	sem     chan struct{}
	mux     *http.ServeMux
	rescore func(*staccato.Doc) *staccato.Doc // nil unless Options.Lexicon is set

	mu       sync.Mutex
	draining bool
	closed   bool
	inflight sync.WaitGroup

	// testHookSearch, when non-nil, runs inside the search handler after
	// the request context is derived and before the engine is invoked —
	// the deterministic seam the deadline, overload, and drain tests
	// block on. Set it before the server starts serving.
	testHookSearch func(ctx context.Context)
}

// New returns a Server over db. db must be non-nil and open; the Server
// takes ownership and closes it during Shutdown.
func New(db *staccatodb.DB, opts Options) *Server {
	if db == nil {
		panic("server: New requires a non-nil DB")
	}
	opts = opts.withDefaults()
	s := &Server{
		db:    db,
		opts:  opts,
		cache: newQueryCache(queryCacheSize),
		sem:   make(chan struct{}, opts.MaxInFlight),
	}
	if opts.Lexicon != nil {
		s.rescore = opts.Lexicon.Rescorer(fuzzy.DefaultBoost)
	}
	endpoints := []string{"ingest", "search", "snippets", "explain", "get_doc", "delete_doc", "stats", "health"}
	s.met = newMetrics(endpoints, s.cache, db.Workers(), opts.MaxInFlight)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ingest", s.endpoint("ingest", true, s.handleIngest))
	s.mux.HandleFunc("POST /v1/search", s.endpoint("search", true, s.handleSearch))
	s.mux.HandleFunc("POST /v1/snippets", s.endpoint("snippets", true, s.handleSnippets))
	s.mux.HandleFunc("POST /v1/explain", s.endpoint("explain", true, s.handleExplain))
	s.mux.HandleFunc("GET /v1/docs/{id}", s.endpoint("get_doc", true, s.handleGetDoc))
	s.mux.HandleFunc("DELETE /v1/docs/{id}", s.endpoint("delete_doc", true, s.handleDeleteDoc))
	// Stats and health skip admission: observability must keep answering
	// precisely when the server is saturated enough to reject work.
	s.mux.HandleFunc("GET /v1/stats", s.endpoint("stats", false, s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.endpoint("health", false, s.handleHealth))
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Options returns the server's resolved configuration — the caller's
// Options with every zero value replaced by its default.
func (s *Server) Options() Options { return s.opts }

// Shutdown gracefully stops the server: it marks the server draining
// (new requests are refused with 503, health reports draining), waits
// for every in-flight request to complete, and then closes the DB. If
// ctx expires first, Shutdown returns ctx's error WITHOUT closing the
// DB — in-flight requests are still running against it; call Shutdown
// again (or close the DB directly) to force the issue.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.draining = true
	s.mu.Unlock()
	if alreadyClosed {
		return nil
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w (in-flight requests still draining; db left open)", ctx.Err())
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.db.Close()
}

// beginRequest registers a request with the drain accounting. It returns
// false when the server is draining, in which case the request must be
// refused and end may not be called.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// endpoint wraps a handler with the request lifecycle every endpoint
// shares, in order: drain gate (503 once Shutdown begins), admission
// control when admit is set (429 + Retry-After when MaxInFlight requests
// are already in the handlers), then metrics (count, error count,
// latency histogram). The deadline is applied inside the handlers, where
// the request's own timeout_ms is known.
func (s *Server) endpoint(name string, admit bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if !s.beginRequest() {
			writeError(sw, http.StatusServiceUnavailable, "server is shutting down")
			s.met.record(name, sw.status, time.Since(start))
			return
		}
		defer s.inflight.Done()
		if admit {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
				s.met.inFlight.Add(1)
				defer s.met.inFlight.Add(-1)
			default:
				s.met.rejected.Add(1)
				secs := int(retryAfter / time.Second)
				sw.Header().Set("Retry-After", fmt.Sprint(secs))
				writeError(sw, http.StatusTooManyRequests,
					"server at capacity (%d requests in flight); retry after %ds", s.opts.MaxInFlight, secs)
				s.met.record(name, sw.status, time.Since(start))
				return
			}
		}
		h(sw, r)
		s.met.record(name, sw.status, time.Since(start))
	}
}

// requestCtx derives the request's working context: the server's default
// deadline, tightened to timeoutMS when the request asked for less. The
// two are compared in milliseconds before timeoutMS becomes a Duration,
// which a timeoutMS past 2⁶³ ns would wrap negative — a deadline already
// past — so any larger request clamps to the server's maximum.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.opts.RequestTimeout
	if timeoutMS > 0 && int64(timeoutMS) <= d.Milliseconds() {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// writeJSON writes v as the JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // the status line is already out; a failed body write has no better channel
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeDBError maps a DB call's failure onto the right status: a
// rejected document is the client's error (400), exceeded deadlines are
// the gateway-timeout contract (504), a closed DB means the server is
// going away (503), anything else is a plain 500.
func writeDBError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, store.ErrInvalidDoc):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "request deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled):
		// The client went away; the status is a formality it will not read.
		writeError(w, http.StatusServiceUnavailable, "request canceled: %v", err)
	case errors.Is(err, staccatodb.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "database is closed")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// decodeBody strictly decodes r's JSON body into v: unknown fields,
// trailing garbage, and bodies over limit are all 400-level errors
// reported by the returned error.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return errors.New("invalid JSON body: trailing data after the request object")
	}
	return nil
}

// queryRequest is the wire form of a query: a term list plus the same
// shaping knobs the CLI exposes. It compiles to exactly the boolean
// Query `staccato search` would build for the same inputs.
type queryRequest struct {
	// Terms are the query terms; at least one is required.
	Terms []string `json:"terms"`
	// Mode is the leaf type: "substring" (default), "keyword", or "fuzzy".
	Mode string `json:"mode,omitempty"`
	// Distance is the edit distance of fuzzy leaves, in
	// [0, fuzzy.MaxDistance]. Only valid with mode "fuzzy".
	Distance int `json:"distance,omitempty"`
	// Lexicon, when true, ranks under the server's lexicon rescorer;
	// rejected with 400 when the server was started without a lexicon.
	Lexicon bool `json:"lexicon,omitempty"`
	// Combine joins multiple terms: "and" (default) or "or".
	Combine string `json:"combine,omitempty"`
	// Not, when set, additionally requires this term to be absent.
	Not string `json:"not,omitempty"`
	// MinProb drops results below this probability.
	MinProb float64 `json:"min_prob,omitempty"`
	// Top keeps only the N best-ranked results; zero keeps all.
	Top int `json:"top,omitempty"`
	// TimeoutMS tightens the server's request deadline for this call;
	// it can never extend past the server's configured maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// cacheKey canonicalizes the query-defining part of the request — every
// field that changes what a hit would evaluate, so two specs differing
// only in, say, distance can never share an entry. Lexicon is included
// even though it shapes SearchOptions rather than the compiled Query:
// keying it keeps the cache key aligned with "same spec, same results"
// rather than an implementation detail of what the cache stores. Each
// part is quoted, so a part ends at its first unescaped quote and no byte
// a term may hold (JSON admits \u0000) can shift a boundary.
func (q *queryRequest) cacheKey() string {
	var key []byte
	for _, part := range append([]string{q.Mode, strconv.Itoa(q.Distance), strconv.FormatBool(q.Lexicon), q.Combine, q.Not}, q.Terms...) {
		key = strconv.AppendQuote(key, part)
	}
	return string(key)
}

// compile builds the boolean Query the request describes, through the
// same query.Spec the CLI compiles.
func (q *queryRequest) compile() (*query.Query, error) {
	return query.Spec{Terms: q.Terms, Mode: q.Mode, Distance: q.Distance, Combine: q.Combine, Not: q.Not}.Compile()
}

// compiledQuery resolves the request through the cache.
func (s *Server) compiledQuery(req *queryRequest) (*query.Query, bool, error) {
	return s.cache.get(req.cacheKey(), req.compile)
}

// searchOptions builds the engine options a query request asks for,
// failing when top or min_prob is out of range or the request wants
// lexicon rescoring the server cannot provide.
func (s *Server) searchOptions(req *queryRequest) (query.SearchOptions, error) {
	opts := query.SearchOptions{MinProb: req.MinProb, TopN: req.Top}
	if err := opts.Validate(); err != nil {
		return opts, err
	}
	if req.Lexicon {
		if s.rescore == nil {
			return opts, errors.New("lexicon rescoring requested but no lexicon is loaded; start staccatod with -lexicon")
		}
		opts.Rescore = s.rescore
	}
	return opts, nil
}

// ingestRequest is the wire form of a batched write.
type ingestRequest struct {
	Docs      []*staccato.Doc `json:"docs"`
	TimeoutMS int             `json:"timeout_ms,omitempty"`
}

type ingestResponse struct {
	// Ingested is how many documents this batch committed.
	Ingested int `json:"ingested"`
	// Docs is the store's live document count after the commit.
	Docs int `json:"docs"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if err := decodeBody(w, r, &req, maxIngestBodyBytes); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Docs) == 0 {
		writeError(w, http.StatusBadRequest, "ingest requires at least one document in docs")
		return
	}
	for i, d := range req.Docs {
		if d == nil || d.ID == "" {
			writeError(w, http.StatusBadRequest, "docs[%d]: document must have a non-empty id", i)
			return
		}
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	if err := s.db.Ingest(ctx, req.Docs); err != nil {
		writeDBError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Ingested: len(req.Docs), Docs: s.db.Stats().Docs})
}

type searchResponse struct {
	// Query is the compiled query's canonical rendering.
	Query string `json:"query"`
	// Results are the ranked matches, each with its match probability.
	Results []query.Result `json:"results"`
	// Stats is the run's execution report: mode, plan, pruned/evaluated
	// counts, candidates fetched.
	Stats query.SearchStats `json:"stats"`
	// CacheHit reports whether the compiled query came from the cache.
	CacheHit bool `json:"cache_hit"`
	// ElapsedMS is the server-side execution time of the DB call.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// queryRun is what runQuery hands back for the response: the compiled
// query, whether it came from the cache, and the DB call's duration.
type queryRun struct {
	q         *query.Query
	cacheHit  bool
	elapsedMS float64
}

// runQuery is the lifecycle the three query endpoints share: strictly
// decode the body into body, whose query spec is req; run check (the
// endpoint's own knob validation, may be nil); resolve the query through
// the cache; build the engine options; derive the request deadline; then
// time call, the endpoint's DB work. Every failure is answered here —
// ok false means the response is already written.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, body any, req *queryRequest, check func() error,
	call func(ctx context.Context, q *query.Query, opts query.SearchOptions) error) (run queryRun, ok bool) {
	if err := decodeBody(w, r, body, maxQueryBodyBytes); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return run, false
	}
	if check != nil {
		if err := check(); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return run, false
		}
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "timeout_ms must not be negative, got %d", req.TimeoutMS)
		return run, false
	}
	q, hit, err := s.compiledQuery(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid query: %v", err)
		return run, false
	}
	opts, err := s.searchOptions(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return run, false
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	if s.testHookSearch != nil {
		s.testHookSearch(ctx)
	}
	start := time.Now()
	if err := call(ctx, q, opts); err != nil {
		writeDBError(w, err)
		return run, false
	}
	return queryRun{q: q, cacheHit: hit, elapsedMS: float64(time.Since(start).Microseconds()) / 1000}, true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var (
		req     queryRequest
		results []query.Result
		stats   query.SearchStats
	)
	run, ok := s.runQuery(w, r, &req, &req, nil, func(ctx context.Context, q *query.Query, opts query.SearchOptions) (err error) {
		results, stats, err = s.db.Search(ctx, q, opts)
		return err
	})
	if !ok {
		return
	}
	if results == nil {
		results = []query.Result{} // "results": [] beats "results": null on the wire
	}
	writeJSON(w, http.StatusOK, searchResponse{
		Query:     run.q.String(),
		Results:   results,
		Stats:     stats,
		CacheHit:  run.cacheHit,
		ElapsedMS: run.elapsedMS,
	})
}

// snippetsRequest is the wire form of a snippet extraction: the same
// query spec as search (so the two endpoints share compiled-query cache
// entries) plus the per-document snippet knobs.
type snippetsRequest struct {
	queryRequest
	// MaxReadings is how many matching readings to report per document
	// (default query.DefaultMaxReadings).
	MaxReadings int `json:"max_readings,omitempty"`
	// MaxEnumerate bounds how many readings the per-document best-first
	// enumeration may examine (default query.DefaultMaxEnumerate); the
	// server additionally caps it so one request cannot buy unbounded CPU.
	MaxEnumerate int `json:"max_enumerate,omitempty"`
	// ContextRunes, when positive, adds surrounding reading text to each
	// span: the match plus up to this many runes on each side.
	ContextRunes int `json:"context_runes,omitempty"`
}

// Server-side ceilings on the snippet knobs: snippet extraction is
// per-document CPU the admission semaphore cannot see inside, so the
// per-request dials are clamped to sane maxima rather than trusted.
const (
	maxSnippetReadings  = 64
	maxSnippetEnumerate = 1 << 16
	// maxSnippetContext mirrors the library-wide cap so the server's
	// reject threshold and the library's clamp threshold never drift.
	maxSnippetContext = query.MaxContextRunes
)

type snippetsResponse struct {
	// Query is the compiled query's canonical rendering.
	Query string `json:"query"`
	// Snippets are the matching documents in Search's ranking order, each
	// with its top readings containing the match: text, per-reading
	// probability, and byte/rune spans of every query term.
	Snippets []query.DocSnippets `json:"snippets"`
	// Stats is the underlying search's execution report.
	Stats     query.SearchStats `json:"stats"`
	CacheHit  bool              `json:"cache_hit"`
	ElapsedMS float64           `json:"elapsed_ms"`
}

// check validates the snippet knobs against the server-side ceilings.
func (req *snippetsRequest) check() error {
	if req.MaxReadings < 0 || req.MaxReadings > maxSnippetReadings {
		return fmt.Errorf("max_readings must be in [0, %d], got %d", maxSnippetReadings, req.MaxReadings)
	}
	if req.MaxEnumerate < 0 || req.MaxEnumerate > maxSnippetEnumerate {
		return fmt.Errorf("max_enumerate must be in [0, %d], got %d", maxSnippetEnumerate, req.MaxEnumerate)
	}
	if req.ContextRunes < 0 || req.ContextRunes > maxSnippetContext {
		return fmt.Errorf("context_runes must be in [0, %d], got %d", maxSnippetContext, req.ContextRunes)
	}
	return nil
}

func (s *Server) handleSnippets(w http.ResponseWriter, r *http.Request) {
	var (
		req      snippetsRequest
		snippets []query.DocSnippets
		stats    query.SearchStats
	)
	run, ok := s.runQuery(w, r, &req, &req.queryRequest, req.check, func(ctx context.Context, q *query.Query, opts query.SearchOptions) (err error) {
		snippets, stats, err = s.db.Snippets(ctx, q, opts,
			query.SnippetOptions{MaxReadings: req.MaxReadings, MaxEnumerate: req.MaxEnumerate, ContextRunes: req.ContextRunes})
		return err
	})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, snippetsResponse{
		Query:     run.q.String(),
		Snippets:  snippets,
		Stats:     stats,
		CacheHit:  run.cacheHit,
		ElapsedMS: run.elapsedMS,
	})
}

type explainResponse struct {
	Query string `json:"query"`
	// Explain is the DB's plan rendering: the pruning plan, index shape,
	// candidate count, and the mode Search would take.
	Explain string `json:"explain"`
	// Stats comes from actually executing the query (explain-analyze
	// semantics), so Mode and CandidatesFetched report what really
	// happened, not a prediction.
	Stats query.SearchStats `json:"stats"`
	// Matches is how many documents matched with probability > 0.
	Matches   int     `json:"matches"`
	CacheHit  bool    `json:"cache_hit"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var (
		req     queryRequest
		results []query.Result
		stats   query.SearchStats
		explain string
	)
	run, ok := s.runQuery(w, r, &req, &req, nil, func(ctx context.Context, q *query.Query, opts query.SearchOptions) (err error) {
		results, stats, err = s.db.Search(ctx, q, opts)
		explain = s.db.Explain(q) // rendered inside the clock, as elapsed_ms has always counted it
		return err
	})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, explainResponse{
		Query:     run.q.String(),
		Explain:   explain,
		Stats:     stats,
		Matches:   len(results),
		CacheHit:  run.cacheHit,
		ElapsedMS: run.elapsedMS,
	})
}

func (s *Server) handleGetDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	doc, err := s.db.Get(ctx, id)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, doc)
	case errors.Is(err, store.ErrNotFound):
		writeError(w, http.StatusNotFound, "no document with id %q", id)
	default:
		writeDBError(w, err)
	}
}

type deleteResponse struct {
	Deleted string `json:"deleted"`
}

func (s *Server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "document id is required")
		return
	}
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	if err := s.db.Delete(ctx, id); err != nil {
		writeDBError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, deleteResponse{Deleted: id})
}

// serverStats is the service-level branch of /v1/stats, alongside the
// database's own canonical stats shape.
type serverStats struct {
	InFlight      int64                       `json:"in_flight"`
	MaxInFlight   int                         `json:"max_in_flight"`
	Rejected      int64                       `json:"rejected"`
	EngineWorkers int                         `json:"engine_workers"`
	Draining      bool                        `json:"draining"`
	QueryCache    cacheStats                  `json:"query_cache"`
	Requests      map[string]endpointSnapshot `json:"requests"`
}

type statsResponse struct {
	// DB is staccatodb.Stats in its canonical JSON shape — the same
	// bytes the CLI's verbose stats line prints.
	DB     staccatodb.Stats `json:"db"`
	Server serverStats      `json:"server"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, statsResponse{
		DB: s.db.Stats(),
		Server: serverStats{
			InFlight:      s.met.inFlight.Value(),
			MaxInFlight:   s.opts.MaxInFlight,
			Rejected:      s.met.rejected.Value(),
			EngineWorkers: s.db.Workers(),
			Draining:      draining,
			QueryCache:    s.cache.stats(),
			Requests:      s.met.requestsSnapshot(),
		},
	})
}

type healthResponse struct {
	Status string `json:"status"`
	Docs   int    `json:"docs"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Docs: s.db.Stats().Docs})
}

// handleVars serves the server's expvar map as /debug/vars-style JSON.
// The map is per-server rather than process-global, so the standard
// expvar handler (which only sees published globals) cannot serve it.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n%q: %s\n}\n", "staccatod", s.met.vars.String())
}
